// Exact mixed Nash equilibria of 2-player games by support enumeration.
//
// For each pair of equal-size supports, the indifference system is solved
// exactly over Rational; candidates are kept when the resulting strategies
// are valid distributions and no outside action is a profitable deviation.
// On nondegenerate games this enumerates ALL Nash equilibria (equilibria
// of nondegenerate bimatrix games have equal-size supports); on degenerate
// games it returns a (possibly strict, always valid) subset of the
// equilibrium components' vertices.
#pragma once

#include <vector>

#include "game/game_view.h"
#include "game/normal_form.h"
#include "game/strategy.h"
#include "util/rational.h"

namespace bnash::solver {

struct MixedEquilibrium final {
    game::ExactMixedProfile profile;
    std::vector<util::Rational> payoffs;
};

// Throws std::logic_error unless the game has exactly two players.
// `max_support` caps the support size considered (default: no cap). A
// view is solved directly (strategies in VIEW action space) — an
// elimination-reduced game is solved without materializing its tensor; a
// NormalFormGame passes as its identity view.
[[nodiscard]] std::vector<MixedEquilibrium> support_enumeration(
    const game::GameView& view, std::size_t max_support = SIZE_MAX);

}  // namespace bnash::solver
