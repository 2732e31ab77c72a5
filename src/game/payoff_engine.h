// Stride-indexed payoff engine: single-sweep expected and deviation
// payoffs over a payoff tensor.
//
// Every solution concept in the paper — Nash regret, epsilon-equilibria,
// (k,t)-robustness — reduces to repeated expected-utility and
// deviation-payoff evaluations. Walking the whole tensor once per
// (player, action) and re-deriving each profile's rank from scratch
// (O(players) per lookup; the naive:: references below) makes best
// responses, regret and the learning dynamics O(actions x profiles x
// players^2). These sweeps:
//
//   - step a GameView's per-digit cell-offset tables with the shared
//     util::OffsetWalker, so ranks update in O(1) per odometer step;
//   - compute ALL deviation payoffs for ALL players in ONE sweep via
//     marginalization: for each profile, prefix/suffix probability
//     products give weight_excluding(i) for every i in O(players), and
//     each accumulates into dev[i][a_i] (or one support row per player
//     when that walks fewer cells; see below);
//   - run the same kernel over doubles and exact payoffs, both read as
//     rank then level (its double or its Rational) from the game's store
//     (the robustness checkers must not see floating point);
//   - above kParallelBlock profiles, split the sweep into fixed-size
//     contiguous blocks dispatched to util::global_pool(). Block
//     decomposition is independent of worker count and partial tables are
//     merged in block order, so results are bit-identical whether the
//     sweep ran serial or threaded.
//
// A DENSE GAME IS THE IDENTITY VIEW: every sweep takes a GameView, and a
// NormalFormGame converts to its identity view implicitly, so each
// quantity has exactly one entry, and NormalFormGame keeps no member
// twin of any of them. Restricted and permuted views sweep
// zero-copy through the view's offsets into the parent's store. When the
// view's player map is the identity (the full game and its action
// restrictions) the double kernels read each player's level table
// through a pointer looked up once per sweep; exact payoffs and permuted
// views read through the view. Both read the same level of each cell.
//
// EVERY SWEEP WALKS ONLY THE PROFILE'S SUPPORT: a profile with zero
// weights is walked over a SupportPlan (radix = |supp(sigma_i)| per
// digit; the deviating player of a row keeps its whole range), turning
// sweep cost from prod |A_i| into prod |supp(sigma_i)|. A profile with no
// zero weight walks the view's own columns and builds no plan. Both
// walks visit the nonzero-weight profiles in the same row-major order,
// fold each weight the same way (incremental left-fold prefix products)
// and cut partial sums at the same dense kParallelBlock boundaries, so
// the support picks the work, never the bits. The deviation table runs
// whichever of its two walks touches fewer cells: one marginalization
// sweep over prod |A_i| cells, or one support row per player
// (sum_p |A_p| * prod_{i != p} |supp_i| cells; ties go to
// marginalization). Both give the same bits, and deviation_row equals
// its row of the table bitwise.
#pragma once

#include <cstdint>
#include <vector>

#include "game/game_view.h"
#include "game/normal_form.h"
#include "game/strategy.h"
#include "util/rational.h"

namespace bnash::util {
class OffsetWalker;
}  // namespace bnash::util

namespace bnash::game {

// dev[player][action]: expected utility of `player` deviating to `action`
// while everyone else follows the profile the table was computed from.
using DeviationTable = std::vector<std::vector<double>>;
using ExactDeviationTable = std::vector<std::vector<util::Rational>>;

// How a sweep executes. kAuto uses the global pool above the block
// threshold; kSerial forces inline execution (same block decomposition,
// so results are identical — used by the determinism tests and benches).
enum class SweepMode { kAuto, kSerial };

// Profiles per parallel block. Fixed (not derived from worker count) so
// that threaded and serial sweeps merge identically.
inline constexpr std::uint64_t kParallelBlock = std::uint64_t{1} << 14;

// --- the sweeps ---------------------------------------------------------------
// One entry per quantity. Profiles are indexed in VIEW action space;
// shape mismatches throw std::invalid_argument.

// --- doubles
[[nodiscard]] std::vector<double> expected_payoffs(const GameView& view,
                                                   const MixedProfile& profile,
                                                   SweepMode mode = SweepMode::kAuto);
[[nodiscard]] double expected_payoff(const GameView& view, const MixedProfile& profile,
                                     std::size_t player);
[[nodiscard]] DeviationTable deviation_payoffs_all(const GameView& view,
                                                   const MixedProfile& profile,
                                                   SweepMode mode = SweepMode::kAuto);
// One player's full deviation row (all of that player's actions).
[[nodiscard]] std::vector<double> deviation_row(const GameView& view,
                                                const MixedProfile& profile,
                                                std::size_t player);
// Read off a computed table, so a caller asking several questions per
// sweep (fictitious play needs regret AND best responses every
// iteration) sweeps once. regret_from: the max over players of the best
// deviation payoff minus the profile's payoff (0 at a Nash equilibrium,
// <= epsilon at an epsilon-equilibrium). best_responses_from: the actions
// within `tol` of the row's best.
[[nodiscard]] double regret_from(const DeviationTable& dev, const MixedProfile& profile);
[[nodiscard]] std::vector<std::size_t> best_responses_from(const std::vector<double>& row,
                                                           double tol);

// --- exact payoffs
[[nodiscard]] std::vector<util::Rational> expected_payoffs_exact(
    const GameView& view, const ExactMixedProfile& profile,
    SweepMode mode = SweepMode::kAuto);
[[nodiscard]] util::Rational expected_payoff_exact(const GameView& view,
                                                   const ExactMixedProfile& profile,
                                                   std::size_t player);
[[nodiscard]] ExactDeviationTable deviation_payoffs_all_exact(
    const GameView& view, const ExactMixedProfile& profile,
    SweepMode mode = SweepMode::kAuto);
[[nodiscard]] std::vector<util::Rational> deviation_row_exact(
    const GameView& view, const ExactMixedProfile& profile, std::size_t player);

// --- shared support plan -----------------------------------------------------
// The support restriction the sweeps above walk for a profile with zero
// weights, exposed so other
// sweep engines (the robustness CoalitionSweep's sparse coalition scans)
// build it ONCE per sweep instead of once per expected-payoff call: each
// player's support actions in ascending order plus the matching slice of
// its cell-offset column, ready to feed util::OffsetWalker digits. A
// `full_player` (kNoFullPlayer for none) keeps its whole action range —
// the deviating player of a deviation-row sweep. Offset tables live in
// the plan; the plan must outlive any walker built over them.
struct SupportPlan final {
    static constexpr std::size_t kNoFullPlayer = static_cast<std::size_t>(-1);

    std::vector<std::vector<std::size_t>> actions;    // support actions, ascending
    std::vector<std::vector<std::uint64_t>> offsets;  // cell offsets at those actions
    std::vector<std::size_t> radices;                 // actions[p].size()
    std::uint64_t num_tuples = 0;
    bool dead = false;  // some support (other than full_player's) is empty

    // Walker over every plan digit, in player order.
    [[nodiscard]] util::OffsetWalker make_walker() const;
};

// Plan over a view's cell-offset columns for an exact candidate profile
// (the robustness engine's case; the double variant stays private to the
// sweep kernels).
[[nodiscard]] SupportPlan build_support_plan(
    const GameView& view, const ExactMixedProfile& profile,
    std::size_t full_player = SupportPlan::kNoFullPlayer);

// Plan over an explicit product distribution against caller-supplied flat
// strides: support = actions with positive probability, offsets[p][s] =
// actions[p][s] * strides[p]. With rank strides the walker's row is an
// action rank: the machine-game expected utility walks one Bayesian
// state's action ranks with strides = BayesianGame::action_rank_strides().
[[nodiscard]] SupportPlan build_support_plan_from_dists(
    const std::vector<std::vector<double>>& dists,
    const std::vector<std::uint64_t>& strides);

// Reference implementations with the seed's per-action full-tensor
// complexity. Golden baselines for the equivalence tests and the
// speedup benchmarks; not for production call sites.
namespace naive {

[[nodiscard]] double deviation_payoff(const NormalFormGame& game, const MixedProfile& profile,
                                      std::size_t player, std::size_t action);
[[nodiscard]] util::Rational deviation_payoff_exact(const NormalFormGame& game,
                                                    const ExactMixedProfile& profile,
                                                    std::size_t player, std::size_t action);
[[nodiscard]] DeviationTable deviation_payoffs_all(const NormalFormGame& game,
                                                   const MixedProfile& profile);

}  // namespace naive

}  // namespace bnash::game
