// Iterated elimination of dominated strategies.
//
// One of the "refinements of Nash equilibrium" the paper's introduction
// surveys. Supports strict and weak pure-strategy domination and strict
// domination by mixed strategies (the LP test), applied to all players
// round-robin until a fixed point.
#pragma once

#include <cstddef>
#include <vector>

#include "game/game_view.h"
#include "game/normal_form.h"

namespace bnash::solver {

enum class DominanceKind {
    kStrictPure,   // dominated by some pure strategy, strictly everywhere
    kWeakPure,     // weakly dominated by a pure strategy (>= all, > somewhere)
    kStrictMixed,  // dominated by a mixed strategy (LP certificate)
};

struct EliminationStep final {
    std::size_t player = 0;
    std::size_t action = 0;  // index in the ORIGINAL game
    friend bool operator==(const EliminationStep&, const EliminationStep&) = default;
};

struct EliminationResult final {
    game::NormalFormGame reduced;
    // kept[player] = surviving original action indices, ascending.
    std::vector<std::vector<std::size_t>> kept;
    std::vector<EliminationStep> trace;
};

// Zero-copy sibling: the reduction as a VIEW into the original game's
// tensors — no materialization at all. Downstream consumers that are
// view-native (the robustness checkers, the 2-player solvers) check the
// reduced game without a single tensor allocation; the view must not
// outlive the game it was built from.
struct ViewEliminationResult final {
    game::GameView reduced;
    std::vector<std::vector<std::size_t>> kept;
    std::vector<EliminationStep> trace;
};

// Iterates until no further elimination applies. For kWeakPure the result
// can depend on elimination order (a classic fact); this implementation
// removes the lowest-indexed dominated action of the lowest-indexed player
// first, making the output deterministic.
//
// The reduction loop runs entirely on zero-copy GameViews: each round
// re-restricts a view of the ORIGINAL game to the surviving actions and
// scans dominance through it; the only payoff tensor allocated is the
// final `reduced` materialization (asserted by the allocation-count
// test). The seed implementation copied both tensors on every round.
[[nodiscard]] EliminationResult iterated_elimination(const game::NormalFormGame& game,
                                                     DominanceKind kind);

// The same reduction, stopping BEFORE the materialization: allocates no
// payoff tensor whatsoever. iterated_elimination is this plus one
// materialize().
[[nodiscard]] ViewEliminationResult iterated_elimination_view(const game::NormalFormGame& game,
                                                              DominanceKind kind);

// True iff `action` of `player` is dominated in the view under `kind`
// (single-round test, no iteration; action is a VIEW action index, and a
// NormalFormGame passes as its identity view). The reduction loop's scan.
[[nodiscard]] bool is_dominated(const game::GameView& view, std::size_t player,
                                std::size_t action, DominanceKind kind);

}  // namespace bnash::solver
