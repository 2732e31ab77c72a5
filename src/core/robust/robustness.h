// Section 2's solution concepts: k-resilience, t-immunity, and
// (k,t)-robustness [Abraham, Dolev, Gonen, Halpern 2006; Abraham, Dolev,
// Halpern 2008].
//
// Definitions implemented (for a candidate profile sigma):
//   - k-RESILIENT: for every coalition C with 1 <= |C| <= k and every
//     joint deviation tau_C, the deviation does not "gain" (see
//     GainCriterion). "Deviators do not gain by deviating."
//   - t-IMMUNE: for every set T with 1 <= |T| <= t, every joint deviation
//     tau_T, and every player i not in T, u_i(tau_T, sigma_-T) >=
//     u_i(sigma). "Non-deviators do not get hurt by deviators."
//   - (k,t)-ROBUST: for all disjoint C, T with |C| <= k, |T| <= t, and all
//     tau_T: (a) players outside C and T are not hurt (immunity under
//     simultaneous C-deviation is checked through C = empty), and (b) C
//     cannot gain relative to playing sigma_C against the same tau_T.
//     A Nash equilibrium is exactly a (1,0)-robust profile.
//
// Checking quantifies over PURE joint deviations only: expected utility is
// multilinear in each deviator's strategy, so for fixed everything-else a
// profitable (possibly correlated/mixed) deviation exists iff a profitable
// pure one does; the same holds for the adversarial minimization in
// immunity. This makes the checkers exact and complete.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "game/bayesian.h"
#include "game/game_view.h"
#include "game/normal_form.h"
#include "game/payoff_engine.h"
#include "game/strategy.h"

namespace bnash::game {
class SymmetryGroup;
}  // namespace bnash::game

namespace bnash::core {

enum class GainCriterion {
    // Violation as soon as SOME coalition member strictly gains (the
    // "strongly resilient" reading used in the paper's examples).
    kAnyMemberGains,
    // Violation only when EVERY coalition member strictly gains.
    kAllMembersGain,
};

// A found violation, for diagnostics and the examples' narratives.
struct RobustnessViolation final {
    std::vector<std::size_t> coalition;       // C: strategic deviators
    std::vector<std::size_t> faulty;          // T: "unexpected" players
    game::PureProfile coalition_deviation;    // actions of C (aligned with coalition)
    game::PureProfile faulty_deviation;       // actions of T (aligned with faulty)
    std::size_t witness_player = 0;           // who gains / gets hurt
    double payoff_before = 0.0;
    double payoff_after = 0.0;
    [[nodiscard]] std::string to_string() const;
    // Bit-identity assertions between serial/parallel and new/reference
    // checkers compare whole violations.
    friend bool operator==(const RobustnessViolation&, const RobustnessViolation&) = default;
};

struct RobustnessOptions final {
    GainCriterion criterion = GainCriterion::kAnyMemberGains;
    // kAuto sweeps coalition tasks on util::global_pool(); kSerial forces
    // in-order inline execution. Verdicts and violations are identical in
    // both modes (deterministic lowest-coalition-first resolution).
    game::SweepMode mode = game::SweepMode::kAuto;
};

// Verdict state of one (k, t) cell under budgeted execution. Unbudgeted
// runs resolve every cell; a run cut short by a util::ExecutionGrant
// marks exactly the cells whose verdict was established before expiry —
// each bit-identical to the unbudgeted run's — and leaves the rest
// kUnknown (never a false kRobust/kBroken).
enum class CellVerdict : std::uint8_t { kRobust = 0, kBroken = 1, kUnknown = 2 };

// Result of a shared-sweep batch probe (max_resilience / max_immunity):
// per-coalition-size verdicts accumulated from ONE coalition sweep
// instead of max_k independent restarts. violations[k - 1] is the first
// violation an independent k-probe would have reported (nullopt when the
// profile survives that k); by the size-major subset order every probed k
// shares the same winning task, so the stored witnesses are bit-identical
// to independent probes.
struct BatchVerdict final {
    // Largest k (or t) VERIFIED clean; 0 means not even 1-resilient
    // (resp. 1-immune) when a violation exists, or "nothing verified"
    // when the sweep was truncated before covering size 1.
    std::size_t max_ok = 0;
    std::vector<std::optional<RobustnessViolation>> violations;  // index k-1, k = 1..max_k
    // False when an active ExecutionGrant expired before every probed
    // size was resolved: sizes in (max_ok, first violation) are then
    // unknown, not clean. A truncated sweep that still found a violation
    // IS complete — size-major order pins every per-size verdict.
    bool complete = true;
    friend bool operator==(const BatchVerdict&, const BatchVerdict&) = default;
};

// The full (k, t)-robustness FRONTIER: per-cell verdicts for every
// k = 0..max_k and t = 0..max_t, computed by batch_robustness_frontier in
// ONE size-major coalition sweep plus one shared faulty-set sweep instead
// of (max_k+1) x (max_t+1) independent probes. violation(k, t) is exactly
// what an independent find_robustness_violation(k, t) call would have
// returned (nullopt when the profile is (k, t)-robust) — bit-identical
// witnesses, asserted by the fuzz suite and the R-FRONTIER bench block.
struct FrontierVerdict final {
    std::size_t max_k = 0;
    std::size_t max_t = 0;
    // Row-major by k: cell (k, t) at index k * (max_t + 1) + t.
    std::vector<std::optional<RobustnessViolation>> cells;
    // Per-cell resolution state, same indexing. EMPTY means "every cell
    // resolved" (the unbudgeted contract, and hand-built grids): robust
    // iff no violation. When a util::ExecutionGrant truncated the sweep,
    // states marks the unresolved cells kUnknown; their `cells` entry is
    // nullopt and means nothing.
    std::vector<CellVerdict> states;
    // Number of resolved (non-kUnknown) cells; == cells.size() iff the
    // grid is complete — callers retry unresolved queries with a larger
    // grant.
    std::uint64_t cells_resolved = 0;

    [[nodiscard]] const std::optional<RobustnessViolation>& violation(std::size_t k,
                                                                      std::size_t t) const {
        return cells.at(k * (max_t + 1) + t);
    }
    [[nodiscard]] CellVerdict verdict(std::size_t k, std::size_t t) const {
        if (!states.empty()) return states.at(k * (max_t + 1) + t);
        return violation(k, t) ? CellVerdict::kBroken : CellVerdict::kRobust;
    }
    [[nodiscard]] bool robust(std::size_t k, std::size_t t) const {
        return verdict(k, t) == CellVerdict::kRobust;
    }
    [[nodiscard]] bool complete() const {
        return states.empty() || cells_resolved == cells.size();
    }
    friend bool operator==(const FrontierVerdict&, const FrontierVerdict&) = default;
};

// Compact resume state of a budgeted sweep, captured when an active
// util::ExecutionGrant expires mid-run and handed back to a later retry,
// which seek()s past everything already resolved: N budgeted retries
// then cost ~one full sweep instead of N. It keeps only what a retry
// cannot derive, for the three resumable entry points of SweepDriver
// (robustness_violation, the frontier, and the max_kt walk); unused
// fields keep their defaults. Positions are ranks in the engine's task
// enumeration order:
//   - dense CoalitionSweep: faulty-set ranks (phase a) and coalition
//     ranks (phase b) in util::SubsetEnumerator's size-major order;
//   - orbit OrbitSweep: faulty SIZES minus one (phase a) and
//     (coalition size, faulty size) pair ranks, coalition-size-major
//     (phase b).
// Soundness rests on those orders being fixed: tasks [0, next_task) of
// the phase the run stopped in were verified clean by the earlier runs,
// so re-entering at that rank reproduces the unbudgeted run's verdicts
// and witnesses bit for bit. Cells already resolved by earlier runs stay
// kUnknown in a resumed run's own grid — their witnesses were delivered
// earlier — and merge_frontier reassembles the full grid from the run
// sequence.
//
// Checkpoints are untrusted input (they travel in client tokens). Every
// entry point range-checks each field in release builds and throws
// InvalidCheckpoint for a value it could not have written itself; an
// in-range position, though, is still taken on trust.
//
// PROGRESS FLOOR: a run can only vouch for a task it completed with the
// grant still live, so a budget below the immunity baseline plus one
// task's cells makes NO progress — the checkpoint comes back unchanged
// and a same-budget retry re-runs that task forever. Chains must either
// cap their retries or grow a stuck leg's budget (compare checkpoints:
// operator== detects a zero-progress leg).
struct SweepCheckpoint final {
    // True when nothing is left to resume: the run that produced this
    // checkpoint (together with its predecessors) resolved everything.
    bool finished = false;
    // Phase (a), the shared immunity sweep, finished; immunity_ok is then
    // its exact boundary (the frontier and the walk record it).
    bool immunity_done = false;
    std::size_t immunity_ok = 0;
    // First unverified task of the phase the run stopped in: an immunity
    // task before immunity_done, a resilience task after (for the max_kt
    // walk, within its current column).
    std::uint64_t next_task = 0;
    // Frontier: columns [0, open_columns) were still open; the columns up
    // to min(max_t, immunity_ok) above them were resolved, and their
    // verdicts and witnesses delivered, by earlier runs.
    std::size_t open_columns = 0;
    // max_kt walk: kmax of the columns resolved so far. The walk resumes
    // in column walk_k_of_t.size() with the last entry (max_k when empty)
    // as its coalition-size budget.
    std::vector<std::size_t> walk_k_of_t;
    friend bool operator==(const SweepCheckpoint&, const SweepCheckpoint&) = default;
};

// Thrown for a resume checkpoint (or, by the serving layer, a resume
// token) that is refused: a position beyond its task space, or any field
// the entry point could not have written.
class InvalidCheckpoint final : public std::invalid_argument {
public:
    using std::invalid_argument::invalid_argument;
};

// Streaming hook for batch_robustness_frontier: called as each t-column's
// verdict becomes FINAL. `breaking_k` is the smallest broken k in the
// column (max_k + 1 for a clean column); `violation` is the witness
// breaking (breaking_k, t), nullptr for clean columns. Serial and pooled
// sweeps emit the same sequence: a broken column the moment its winner is
// pinned (genuinely mid-sweep; one hit pins a run of columns in t order,
// and each later hit pins lower ones), then the clean columns at sweep
// end, in t order. Columns resolved by an EARLIER resumed run are not
// re-emitted. The callback runs on the sweep thread; it must not re-enter
// the sweep.
using FrontierColumnSink =
    std::function<void(std::size_t t, std::size_t breaking_k, const RobustnessViolation*)>;

// Overlays `update` (a later resumed run's grid) onto `base` in place:
// every cell unresolved in base takes update's verdict and witness. Both
// grids must share max_k/max_t (throws std::invalid_argument otherwise).
// When every cell resolves, states collapses to its empty "all resolved"
// form, so a grid assembled from budgeted retries compares bit-identical
// (operator==) to one unbudgeted run.
void merge_frontier(FrontierVerdict& base, const FrontierVerdict& update);

// The maximal robust set within a (max_k, max_t) budget, computed by
// max_kt's boundary walk WITHOUT filling the grid. Robustness is
// monotone (a (k, t)-robust profile is (k', t')-robust for k' <= k,
// t' <= t), so the robust region is a downward-closed staircase fully
// described by kmax(t) — the largest robust k per column — and the walk
// resolves only the cells adjacent to that staircase. robust(k, t)
// agrees with FrontierVerdict::robust cell for cell.
struct MaxKtResult final {
    std::size_t max_k = 0;  // probed budget
    std::size_t max_t = 0;
    // Largest t <= max_t VERIFIED immune (cell (0, t) is robust). When
    // immunity_exact, columns above it are broken for every k; when a
    // grant truncated the immunity sweep they are merely unknown.
    std::size_t immunity_ok = 0;
    // k_of_t[t] = kmax(t) for the RESOLVED columns t = 0..k_of_t.size()-1
    // (non-increasing). Complete walks resolve every column up to
    // immunity_ok; truncated walks stop early and leave the remaining
    // columns kUnknown.
    std::vector<std::size_t> k_of_t;
    // The Pareto-maximal robust cells among resolved columns, t ascending
    // / k descending.
    std::vector<std::pair<std::size_t, std::size_t>> maximal;
    // Grid cells whose verdict the walk resolved DIRECTLY (boundary
    // confirmations + adjacent broken discoveries) — the "cells" the
    // R-MAXKT acceptance counts against the frontier's full
    // (max_k+1) x (max_t+1) grid, and the serving layer's retry
    // currency.
    std::uint64_t cells_resolved = 0;
    // True when the t-axis immunity boundary is exact (sweep completed or
    // found the breaking faulty set) rather than a truncated lower bound.
    bool immunity_exact = true;
    // True when every column t = 0..immunity_ok resolved its kmax AND the
    // immunity boundary is exact — i.e. the result equals the unbudgeted
    // walk's. False only under an expired ExecutionGrant.
    bool complete = true;

    [[nodiscard]] CellVerdict verdict(std::size_t k, std::size_t t) const {
        if (t < k_of_t.size()) {
            return k <= k_of_t[t] ? CellVerdict::kRobust : CellVerdict::kBroken;
        }
        if (t <= immunity_ok) {
            // Column immune-verified but its kmax never resolved: only
            // the vacuous k = 0 cell is known.
            return k == 0 ? CellVerdict::kRobust : CellVerdict::kUnknown;
        }
        return immunity_exact ? CellVerdict::kBroken : CellVerdict::kUnknown;
    }
    [[nodiscard]] bool robust(std::size_t k, std::size_t t) const {
        return verdict(k, t) == CellVerdict::kRobust;
    }
    friend bool operator==(const MaxKtResult&, const MaxKtResult&) = default;
};

// --- the questions (exact rational arithmetic throughout) -----------------
// One entry per question, on a view:
//
//   (view, profile, sizes..., options = {}[, symmetry = nullptr])
//
// The candidate lives in VIEW action space. A NormalFormGame converts to
// its identity view (the view is taken by value and moved into the sweep,
// so the conversion is the only view a game caller builds); an
// iterated-elimination reduction or an awareness-restricted slice is
// swept ZERO-COPY through the view's cell offsets (no restricted tensor
// is materialized, asserted by the tensor_allocations() tests), with
// verdicts and violations bit-identical to checking the materialized
// copy. Every entry validates the candidate first (throws
// std::invalid_argument for a wrong width or a non-distribution).
//
// `symmetry` (nullable; the (k,t) questions only) is a symmetry group of
// the view — for example game::SymmetryGroup::detect's. When it is
// non-trivial and the candidate is pure and class-constant
// (orbit_applicable, orbit_sweep.h), the question runs on the orbit
// engine: verdicts, boundaries and MaxKtResult structs equal the dense
// engine's, but a reported witness may be a different, equally valid
// member of the same orbit. Otherwise the dense CoalitionSweep answers,
// bit for bit as with no group at all. It is an argument rather than a
// RobustnessOptions field because the SweepDriver methods take
// RobustnessOptions too and have no engine to choose.

[[nodiscard]] std::optional<RobustnessViolation> find_resilience_violation(
    game::GameView view, const game::ExactMixedProfile& profile, std::size_t k,
    const RobustnessOptions& options = {});

[[nodiscard]] std::optional<RobustnessViolation> find_immunity_violation(
    game::GameView view, const game::ExactMixedProfile& profile, std::size_t t);

[[nodiscard]] std::optional<RobustnessViolation> find_robustness_violation(
    game::GameView view, const game::ExactMixedProfile& profile, std::size_t k,
    std::size_t t, const RobustnessOptions& options = {},
    const game::SymmetryGroup* symmetry = nullptr);

[[nodiscard]] bool is_k_resilient(game::GameView view,
                                  const game::ExactMixedProfile& profile, std::size_t k,
                                  const RobustnessOptions& options = {});
[[nodiscard]] bool is_t_immune(game::GameView view,
                               const game::ExactMixedProfile& profile, std::size_t t);
[[nodiscard]] bool is_kt_robust(game::GameView view,
                                const game::ExactMixedProfile& profile, std::size_t k,
                                std::size_t t, const RobustnessOptions& options = {},
                                const game::SymmetryGroup* symmetry = nullptr);

// --- shared-sweep batch probes ----------------------------------------------
// All k = 1..max_k (resp. t = 1..max_t) probes inside ONE coalition
// sweep; see SweepDriver::batch_resilience for the prefix argument
// that makes the per-k witnesses bit-identical to independent probes.
[[nodiscard]] BatchVerdict batch_resilience(game::GameView view,
                                            const game::ExactMixedProfile& profile,
                                            std::size_t max_k,
                                            const RobustnessOptions& options = {});
[[nodiscard]] BatchVerdict batch_immunity(game::GameView view,
                                          const game::ExactMixedProfile& profile,
                                          std::size_t max_t,
                                          game::SweepMode mode = game::SweepMode::kAuto);

// The whole k x t grid in one batched sweep; see FrontierVerdict.
[[nodiscard]] FrontierVerdict batch_robustness_frontier(
    game::GameView view, const game::ExactMixedProfile& profile, std::size_t max_k,
    std::size_t max_t, const RobustnessOptions& options = {},
    const game::SymmetryGroup* symmetry = nullptr);

// The maximal robust set only, via the boundary walk; see MaxKtResult.
[[nodiscard]] MaxKtResult max_kt(game::GameView view,
                                 const game::ExactMixedProfile& profile, std::size_t max_k,
                                 std::size_t max_t, const RobustnessOptions& options = {},
                                 const game::SymmetryGroup* symmetry = nullptr);

// Largest k (up to max_k) such that the profile is k-resilient; 0 means
// not even 1-resilient (i.e. not a Nash equilibrium in the coalition
// sense). Similarly for immunity. Both run as ONE shared coalition sweep
// (batch_resilience / batch_immunity) instead of max_k independent
// probes; the returned boundary is identical to the probe loop's.
[[nodiscard]] std::size_t max_resilience(game::GameView view,
                                         const game::ExactMixedProfile& profile,
                                         std::size_t max_k,
                                         const RobustnessOptions& options = {});
[[nodiscard]] std::size_t max_immunity(game::GameView view,
                                       const game::ExactMixedProfile& profile,
                                       std::size_t max_t);

// Pure-profile convenience: point masses in VIEW action space.
[[nodiscard]] game::ExactMixedProfile as_exact_profile(const game::GameView& view,
                                                       const game::PureProfile& profile);

// Inverse direction: the pure profile when every strategy is a point mass
// (the common case for the paper's examples), nullopt otherwise. The
// checkers' O(1)-lookup fast path keys off this.
[[nodiscard]] std::optional<game::PureProfile> as_pure_profile(
    const game::ExactMixedProfile& profile);

// --- (k+t)-punishment strategies ------------------------------------------
// A pure profile rho is a q-punishment strategy relative to equilibrium
// payoffs `baseline` if, whenever all but at most q players play rho, every
// player's payoff is strictly below its baseline (the paper's condition for
// the 2k+3t < n <= 3k+3t regime).
[[nodiscard]] bool is_punishment_strategy(const game::NormalFormGame& game,
                                          const game::PureProfile& rho, std::size_t q,
                                          const std::vector<util::Rational>& baseline);

// Scans candidate profiles in rank order and returns the first (lowest
// rank) q-punishment strategy. The candidate rank space is split into
// fixed-size util::first_hit blocks; kAuto sends the blocks after the
// first to util::global_pool() when the first holds no hit, so serial and
// parallel searches return the SAME profile (and the same first
// exception, if an evaluation throws). The answer is exact whatever
// util::ExecutionGrant is active.
[[nodiscard]] std::optional<game::PureProfile> find_punishment_strategy(
    const game::NormalFormGame& game, std::size_t q,
    const std::vector<util::Rational>& baseline,
    game::SweepMode mode = game::SweepMode::kAuto);

// --- PR-1 serial reference checkers ----------------------------------------
// The pre-CoalitionSweep implementations: coalitions enumerated serially,
// subset lists re-materialized per call, O(players) re-ranking per payoff
// lookup. Golden baselines for the sweep equivalence tests and the
// bench_robustness speedup acceptance; not for production call sites.
namespace reference {

[[nodiscard]] std::optional<RobustnessViolation> find_immunity_violation(
    const game::NormalFormGame& game, const game::ExactMixedProfile& profile, std::size_t t);

[[nodiscard]] std::optional<RobustnessViolation> find_robustness_violation(
    const game::NormalFormGame& game, const game::ExactMixedProfile& profile, std::size_t k,
    std::size_t t, const RobustnessOptions& options = {});

}  // namespace reference

// --- Bayesian wrapper -------------------------------------------------------
// Ex-ante robustness of a Bayesian pure profile, checked on the strategic
// form (coalition deviations may condition on coalition types).
[[nodiscard]] bool is_kt_robust_bayesian(const game::BayesianGame& game,
                                         const game::BayesianPureProfile& profile,
                                         std::size_t k, std::size_t t,
                                         const RobustnessOptions& options = {});

}  // namespace bnash::core
