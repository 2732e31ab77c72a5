// The dense engine behind the (k,t)-robustness checkers: a task space
// and scan kernels for SweepDriver (sweep_driver.h), which asks the
// questions and owns winners, resume checkpoints and the boundary walk.
//
// TASKS are util::SubsetEnumerator's lists — faulty sets for phase (a),
// coalitions for phase (b) — size-major then lexicographic, materialized
// once per (n, size) and shared across calls. A coalition task scans its
// disjoint faulty sets empty-first, then size-major. This is the PR-1
// reference checkers' enumeration order, so witnesses match theirs.
//
// KERNELS scan joint deviations with an incremental mixed-radix odometer
// that updates the profile's flat payoff-row offset in O(1) per step —
// the pure-candidate inner loops allocate nothing and never re-rank a
// profile. Pure-candidate kernels compare the parent game's uint32
// ordinal ranks (NormalFormGame::ordinal_ranks), read through the same
// row offsets plus the parent column, instead of Rationals: every check
// compares two payoffs of ONE player, where ranks order exactly like
// the payoffs (serve/canonical.h, ORDINAL INVARIANCE), so verdicts,
// witness cells and work counters are those of the exact compare. A
// witness reads its two exact payoffs once. The ranks are the game's
// exact storage, so a sweep builds nothing.
//
// ONE KERNEL per pure-candidate question scans a rank range of one
// faulty set's combined faulty-then-coalition odometer. A task runs it
// through run_scan (sweep_driver.h): once, inline, over the whole scan —
// or, in kAuto mode when the scan spans two or more kIntraBlock blocks
// (split_scan), as seek()-entered util::OffsetWalker blocks, so one
// large coalition on a big game does not serialize one core. The
// lowest-rank winner keeps the reported violation the in-order scan's,
// and a split robust scan counts exactly the inline scan's work.
//
// The sweep is VIEW-NATIVE: it walks a game::GameView's cell-offset
// tables, so the full game (an identity view), an iterated-elimination
// reduction, or an awareness-restricted slice are all checked zero-copy.
//
// Mixed (non-point-mass) candidates run SUPPORT-SPARSE scans through ONE
// support walk: its digits are the deviators' full action ranges, then
// the weighted players' support actions (a game::SupportPlan over the
// candidate, built once per sweep), and it sums weight * u_p for every
// target p with incremental prefix-product weights, handing each finished
// joint deviation to a callback. It is used three ways: an immunity task
// walks deviators T with the outsiders weighted and targeted; a
// resilience scan of one faulty set walks deviators T with everyone
// outside T weighted and C targeted (phase A: C's references per tau_T),
// then deviators T and C with the rest weighted (phase B: each joint
// deviation against its tau_T's references). Exact arithmetic makes every
// verdict and witness identical to evaluating each deviation's expected
// payoffs separately.
//
// Work is charged through ScanTally (sweep_driver.h): a pure-candidate
// task keeps one tally, a mixed immunity task one, and a mixed resilience
// scan one per faulty set, spanning its two phases.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/robust/robustness.h"
#include "core/robust/sweep_driver.h"
#include "game/game_view.h"
#include "game/payoff_engine.h"
#include "game/strategy.h"

namespace bnash::core {

class CoalitionSweep final : public SweepDriver {
public:
    // The profile must be a valid exact mixed profile in VIEW action space
    // (a NormalFormGame passes as its identity view); the sweep reads the
    // parent tensor through the view's cell offsets. The view's parent
    // game and the profile must outlive the sweep.
    CoalitionSweep(game::GameView view, const game::ExactMixedProfile& profile);

private:
    class ImmunityTasks;
    class ResilienceTasks;

    [[nodiscard]] std::unique_ptr<SweepTasks> immunity_tasks(std::size_t max_t,
                                                             game::SweepMode mode) const override;
    [[nodiscard]] std::unique_ptr<SweepTasks> resilience_tasks(
        std::size_t max_k, std::size_t max_t, GainCriterion criterion,
        game::SweepMode mode) const override;

    // One faulty-set / coalition task; nullopt when the task finds
    // nothing. `mode` gates the split of a pure candidate's scans
    // (split_scan).
    [[nodiscard]] std::optional<RobustnessViolation> immunity_task(
        const std::vector<std::size_t>& faulty,
        const std::vector<util::Rational>& baseline, game::SweepMode mode) const;
    // Scans faulty sets with min_t <= |T| <= max_t (the empty set iff
    // min_t == 0); max_kt's boundary steps use min_t == max_t. Stops
    // between faulty sets once `bound` is beaten.
    [[nodiscard]] std::optional<RobustnessViolation> resilience_task(
        const std::vector<std::size_t>& coalition, std::size_t min_t, std::size_t max_t,
        GainCriterion criterion, game::SweepMode mode, const TaskBound& bound) const;

    // Mixed candidates' expected payoffs at the candidate (empty for a
    // pure candidate, whose kernels read the candidate row's ranks).
    [[nodiscard]] std::vector<util::Rational> immunity_baseline() const;

    // A mixed candidate's scan of one faulty set for one coalition: the
    // support walk's phases A (references) and B (joint deviations).
    [[nodiscard]] std::optional<RobustnessViolation> sparse_resilience_scan(
        const std::vector<std::size_t>& coalition, const std::vector<std::size_t>& faulty,
        GainCriterion criterion) const;

    game::GameView view_;
    const game::ExactMixedProfile* profile_;
    std::optional<game::PureProfile> pure_;  // set iff the candidate is pure
    std::uint64_t base_row_ = 0;             // flat row of *pure_ when set
    // Pure candidates only: the parent game's ordinal ranks, read at
    // ranks_[row + view_.parent_player(p)] for view player p.
    const std::uint32_t* ranks_ = nullptr;
    // Built once per sweep for mixed candidates: the support restriction
    // every sparse coalition scan walks.
    std::optional<game::SupportPlan> support_;
};

}  // namespace bnash::core
