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
// witness reads its two exact payoffs once. The ranks are built on the
// first pure sweep (or cache key) of a tensor and shared by its copies.
//
// TWO-LEVEL parallelism: above a split threshold of joint-deviation
// cells, a single task splits ITS OWN scan into seek()-entered
// util::OffsetWalker blocks over the combined faulty-then-coalition digit
// space (run_ranked_blocks), so one large coalition on a big game no
// longer serializes one core; the lowest-rank winner keeps the reported
// violation the serial scan's.
//
// The sweep is VIEW-NATIVE: it walks a game::GameView's cell-offset
// tables, so the full game (an identity view), an iterated-elimination
// reduction, or an awareness-restricted slice are all checked zero-copy.
//
// Mixed (non-point-mass) candidates run SUPPORT-SPARSE scans: a
// game::SupportPlan over the candidate is built once per sweep, and each
// task walks only prod |supp| joint-deviation cells with incremental
// prefix-product weights (one fused walk per faulty set). Exact
// arithmetic makes every verdict and witness identical to evaluating each
// deviation's expected payoffs separately.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/robust/robustness.h"
#include "core/robust/sweep_driver.h"
#include "game/game_view.h"
#include "game/normal_form.h"
#include "game/payoff_engine.h"
#include "game/strategy.h"

namespace bnash::core {

class CoalitionSweep final : public SweepDriver {
public:
    // Joint-deviation cells per ranged intra-task block, and the default
    // per-faulty-set scan size above which a task splits. Fixed (not
    // derived from worker count) so the block decomposition — and the
    // lowest-rank winner — is machine-independent.
    static constexpr std::uint64_t kIntraBlock = std::uint64_t{1} << 11;
    static constexpr std::uint64_t kDefaultIntraSplitCells = std::uint64_t{1} << 13;

    // The profile must be a valid exact mixed profile for `game`; both
    // must outlive the sweep.
    CoalitionSweep(const game::NormalFormGame& game, const game::ExactMixedProfile& profile);

    // View-native: the profile lives in VIEW action space and the sweep
    // reads the parent tensor through the view's cell offsets. The view's
    // parent game and the profile must outlive the sweep.
    CoalitionSweep(game::GameView view, const game::ExactMixedProfile& profile);

    // --- intra-task split tuning / test hooks --------------------------------
    // Per-faulty-set joint-scan size (in cells) above which a kAuto task
    // splits into ranged blocks, and the block size used when it does.
    // Process-wide; benches/tests lower them to exercise the split on
    // small games. The block size is fixed per scan (read once at scan
    // entry), so the decomposition stays machine-independent.
    //
    // By default the threshold ADAPTS per sweep: when a sweep already has
    // enough coalition tasks to saturate the pool, splitting only adds
    // seek() overhead, so the default threshold applies; when tasks are
    // scarce (fewer than 2x the workers) the threshold scales DOWN
    // proportionally so big per-task scans still fan out. Calling
    // set_intra_split_cells PINS the given value for every sweep (the
    // legacy behavior tests rely on); set_intra_split_adaptive restores
    // the derivation. Thresholds never change verdicts — only which
    // ranged-block decomposition computes them.
    static void set_intra_split_cells(std::uint64_t cells) noexcept;
    [[nodiscard]] static std::uint64_t intra_split_cells() noexcept;
    static void set_intra_split_adaptive() noexcept;
    [[nodiscard]] static bool intra_split_pinned() noexcept;
    // The threshold a sweep with `num_tasks` top-level tasks whose largest
    // task scans `max_task_cells` cells will use (the pinned value when
    // pinned). Exposed so tests and the orbit engine share the policy.
    [[nodiscard]] static std::uint64_t sweep_intra_split_cells(
        std::size_t num_tasks, std::uint64_t max_task_cells) noexcept;
    static void set_intra_block_cells(std::uint64_t cells) noexcept;
    [[nodiscard]] static std::uint64_t intra_block_cells() noexcept;
    // Split even when the pool has a single executor (the blocks then run
    // inline, in order) — lets single-core hosts pin the ranged-block
    // path's bit-identity.
    static void set_intra_split_force(bool force) noexcept;
    [[nodiscard]] static bool intra_split_force() noexcept;

private:
    class ImmunityTasks;
    class ResilienceTasks;

    [[nodiscard]] std::unique_ptr<SweepTasks> immunity_tasks(std::size_t max_t,
                                                             game::SweepMode mode) const override;
    [[nodiscard]] std::unique_ptr<SweepTasks> resilience_tasks(
        std::size_t max_k, std::size_t max_t, GainCriterion criterion,
        game::SweepMode mode) const override;

    // One faulty-set / coalition task; nullopt when the task finds
    // nothing. `mode` gates the intra-task ranged-block split (kAuto
    // only); `split_cells` is the sweep's resolved split threshold,
    // computed once per task space so every task decomposes consistently.
    [[nodiscard]] std::optional<RobustnessViolation> immunity_task(
        const std::vector<std::size_t>& faulty,
        const std::vector<util::Rational>& baseline, game::SweepMode mode,
        std::uint64_t split_cells) const;
    // Scans faulty sets with min_t <= |T| <= max_t (the empty set iff
    // min_t == 0); max_kt's boundary steps use min_t == max_t.
    [[nodiscard]] std::optional<RobustnessViolation> resilience_task(
        const std::vector<std::size_t>& coalition, std::size_t min_t, std::size_t max_t,
        GainCriterion criterion, game::SweepMode mode, std::uint64_t split_cells) const;

    // Mixed candidates' expected payoffs at the candidate (empty for a
    // pure candidate, whose kernels read the candidate row's ranks).
    [[nodiscard]] std::vector<util::Rational> immunity_baseline() const;

    // Support-sparse fused scans for mixed candidates (one walk per
    // faulty set over deviator ranges x everyone else's support).
    [[nodiscard]] std::optional<RobustnessViolation> sparse_immunity_task(
        const std::vector<std::size_t>& faulty,
        const std::vector<util::Rational>& baseline) const;
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
