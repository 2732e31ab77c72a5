// Lemke-Howson complementary pivoting for 2-player games, in exact
// rational arithmetic.
//
// The algorithm walks edges of the best-response polytopes
//   P = { x >= 0 : B^T x <= 1 },  Q = { y >= 0 : A y <= 1 }
// (payoffs shifted positive first), starting from the artificial
// equilibrium (0,0) by dropping one label, until a completely labeled pair
// is reached; the normalized pair is a Nash equilibrium. Different dropped
// labels may reach different equilibria.
//
// Degenerate games can cycle under the naive minimum-ratio rule; pivoting
// is capped and std::nullopt returned so callers can fall back to
// support_enumeration (the exact-but-slower path).
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "game/game_view.h"
#include "game/normal_form.h"
#include "solver/support_enumeration.h"

namespace bnash::solver {

struct LemkeHowsonStats final {
    std::size_t pivots = 0;
};

// Runs one Lemke-Howson path dropping `initial_label` in [0, m+n).
// Throws std::logic_error unless the game has exactly 2 players. A view
// is pivoted on directly (strategies in VIEW action space), materializing
// no restricted tensor; a NormalFormGame passes as its identity view.
[[nodiscard]] std::optional<MixedEquilibrium> lemke_howson(
    const game::GameView& view, std::size_t initial_label = 0,
    std::size_t max_pivots = 100'000, LemkeHowsonStats* stats = nullptr);

// Runs every initial label and returns the distinct equilibria found.
[[nodiscard]] std::vector<MixedEquilibrium> lemke_howson_all_labels(
    const game::GameView& view, std::size_t max_pivots = 100'000);

}  // namespace bnash::solver
