// The one sweep driver behind every (k,t)-robustness question, shared by
// the dense CoalitionSweep and the symmetry-quotient OrbitSweep engines.
//
// An ENGINE is a task space plus scan kernels. It enumerates two phases
// of tasks in a fixed order — phase (a) immunity tasks (faulty sets, or
// faulty sizes) and phase (b) resilience tasks (coalitions, or
// (coalition size, faulty size) pairs) — and scans one task on demand.
// Everything that follows from that order alone lives here, once:
//
//   - run_tasks: the lowest-index winner over the task list, serially or
//     on util::global_pool(), with grant vouching (a task that finishes
//     after its util::ExecutionGrant expired vouches for nothing) and
//     serial-equivalent error replay;
//   - the resumable immunity phase and the two-phase robustness check;
//   - the frontier's per-column caps and winners, on_column streaming,
//     checkpoint capture and per-cell `states` assembly;
//   - the max_kt boundary walk;
//   - release-build validation of every resume checkpoint field.
//
// The invariant every prefix argument rests on: task sizes (faulty size
// in phase (a), coalition size in phase (b)) never decrease along the
// enumeration order, and a resilience task scans the empty faulty set
// first, then faulty sets size-major. A task's first violation therefore
// sits at the smallest faulty size s0 at which it breaks, and the lowest
// violating task is the witness every independent probe would report.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "core/robust/robustness.h"
#include "game/payoff_engine.h"

namespace bnash::core {

// One phase's tasks, in the engine's fixed enumeration order.
class SweepTasks {
public:
    // `mode` is how the driver dispatches the TASKS: kAuto claims them on
    // the pool, kSerial runs them in order. A kernel may still split one
    // task's scan onto the pool (see run_ranked_blocks).
    explicit SweepTasks(game::SweepMode mode) : mode_(mode) {}
    virtual ~SweepTasks() = default;
    SweepTasks(const SweepTasks&) = delete;
    SweepTasks& operator=(const SweepTasks&) = delete;

    [[nodiscard]] game::SweepMode mode() const noexcept { return mode_; }
    [[nodiscard]] virtual std::size_t size() const = 0;
    // Faulty size of an immunity task, coalition size of a resilience
    // task; non-decreasing in `task`.
    [[nodiscard]] virtual std::size_t set_size(std::size_t task) const = 0;
    // The task's first violation in enumeration order, or nullopt. A
    // resilience task scans only faulty sizes in [min_t, max_t] (and
    // returns at once when it has none there); an immunity task ignores
    // the range. Kernels may stop early once the active grant expires —
    // the driver then discards whatever they return.
    [[nodiscard]] virtual std::optional<RobustnessViolation> run(std::size_t task,
                                                                 std::size_t min_t,
                                                                 std::size_t max_t) const = 0;

private:
    game::SweepMode mode_;
};

// A violation found at a global scan rank of one ranged-block scan.
struct RankHit final {
    std::uint64_t rank = 0;
    RobustnessViolation violation;
};

// Scans ranks [0, total) as fixed-size blocks on util::global_pool() and
// returns the LOWEST-rank hit — the violation the in-order scan reports.
// `scan_block(lo, hi, best)` scans [lo, hi) in order and returns its
// first hit; it may give up early once `best` (the lowest hit rank so
// far) drops to or below its current rank. Blocks above the current
// winner are skipped. Block size is `block_cells`, grown so that no scan
// has more than 4096 blocks. An exception in a block below the winner is
// rethrown, lowest block first; a scan cut short by an expired grant
// reports nothing.
using BlockScan = std::function<std::optional<RankHit>(
    std::uint64_t lo, std::uint64_t hi, const std::atomic<std::uint64_t>& best)>;
[[nodiscard]] std::optional<RobustnessViolation> run_ranked_blocks(std::uint64_t total,
                                                                   std::uint64_t block_cells,
                                                                   const BlockScan& scan_block);

// The questions, asked of any engine. Each verdict and witness is a pure
// function of the engine's enumeration order, so serial, parallel and
// resumed runs agree bit for bit.
class SweepDriver {
public:
    virtual ~SweepDriver() = default;

    // Part (a) of (k,t)-robustness: some T with 1 <= |T| <= t and joint
    // deviation tau_T leaves a player outside T below its candidate
    // payoff. Smallest faulty size first.
    [[nodiscard]] std::optional<RobustnessViolation> immunity_violation(
        std::size_t t, game::SweepMode mode = game::SweepMode::kAuto) const;

    // Part (b): some coalition C with 1 <= |C| <= k gains against some
    // disjoint T with |T| <= t (including T empty).
    [[nodiscard]] std::optional<RobustnessViolation> resilience_violation(
        std::size_t k, std::size_t t, GainCriterion criterion,
        game::SweepMode mode = game::SweepMode::kAuto) const;

    // Parts (a) then (b) — the full (k,t)-robustness check. `resume`
    // (nullable) seeks past the task prefix an earlier budgeted run
    // verified; `checkpoint` (nullable) receives the state a further
    // retry needs. A retry chain's verdict and witness are bit-identical
    // to one unbudgeted call, and its total work is about one sweep. A
    // nullopt return with an expired grant and !checkpoint->finished
    // means "resume me"; with checkpoint->finished it is a proven robust.
    // Throws InvalidCheckpoint for resume state this entry point could
    // not have written.
    [[nodiscard]] std::optional<RobustnessViolation> robustness_violation(
        std::size_t k, std::size_t t, const RobustnessOptions& options,
        const SweepCheckpoint* resume = nullptr, SweepCheckpoint* checkpoint = nullptr) const;

    // All k = 1..max_k resilience probes in ONE task sweep: the tasks a
    // k-probe enumerates are a PREFIX of the max_k task list, so the
    // first violating task of the batch is the first violating task of
    // every probe whose k covers its coalition size.
    [[nodiscard]] BatchVerdict batch_resilience(
        std::size_t max_k, GainCriterion criterion = GainCriterion::kAnyMemberGains,
        game::SweepMode mode = game::SweepMode::kAuto) const;

    // Same sharing for t = 1..max_t immunity probes.
    [[nodiscard]] BatchVerdict batch_immunity(
        std::size_t max_t, game::SweepMode mode = game::SweepMode::kAuto) const;

    // The FULL k x t grid in one task sweep. A resilience task's first
    // violation, at faulty size s0, is the violation every probe with
    // t >= s0 would report in that task, and no probe with t < s0 finds
    // one there; tasks are coalition-size-major, so cell (k, t)'s winner
    // is the LOWEST task with coalition size <= k and s0 <= t. The sweep
    // keeps one lowest winner per t-column and runs each task only up to
    // its CAP, the highest column it could still win. Per-cell verdicts
    // and witnesses are those of independent find_robustness_violation
    // probes.
    //
    // Resumable and streaming: a retry chain's grid assembled with
    // merge_frontier equals one unbudgeted run's, witnesses included,
    // because caps, winners and enumeration order at every task rank are
    // resume-invariant. Columns resolved by earlier runs stay kUnknown in
    // a resumed run's own grid. `on_column` (nullable) streams column
    // verdicts as they become final (see FrontierColumnSink).
    [[nodiscard]] FrontierVerdict batch_robustness_frontier(
        std::size_t max_k, std::size_t max_t,
        GainCriterion criterion = GainCriterion::kAnyMemberGains,
        game::SweepMode mode = game::SweepMode::kAuto, const SweepCheckpoint* resume = nullptr,
        SweepCheckpoint* checkpoint = nullptr, const FrontierColumnSink& on_column = nullptr) const;

    // The maximal robust set within (max_k, max_t) WITHOUT filling the
    // grid: walks the (k, t) boundary. Column 0 resolves kmax(0) with an
    // empty-faulty sweep; column t > 0 rescans nothing below the frontier
    // — coalitions of size <= kmax(t-1) are already clean for faulty
    // sizes < t, so the step scans them against faulty size EXACTLY t and
    // the first violating task (coalition size s) pins kmax(t) = s - 1.
    // Columns beyond the batch_immunity boundary hold no robust cells.
    // Agrees cell for cell with batch_robustness_frontier; only the
    // boundary-adjacent cells are RESOLVED (cells_resolved). Resumable:
    // the checkpoint carries the k_of_t prefix and the in-column task
    // rank, so the completing retry returns the unbudgeted result.
    [[nodiscard]] MaxKtResult max_kt(std::size_t max_k, std::size_t max_t,
                                     GainCriterion criterion = GainCriterion::kAnyMemberGains,
                                     game::SweepMode mode = game::SweepMode::kAuto,
                                     const SweepCheckpoint* resume = nullptr,
                                     SweepCheckpoint* checkpoint = nullptr) const;

protected:
    SweepDriver() = default;
    SweepDriver(const SweepDriver&) = default;
    SweepDriver(SweepDriver&&) = default;
    SweepDriver& operator=(const SweepDriver&) = default;
    SweepDriver& operator=(SweepDriver&&) = default;

    // Phase (a): tasks covering faulty sizes 1..max_t (max_t >= 1).
    [[nodiscard]] virtual std::unique_ptr<SweepTasks> immunity_tasks(
        std::size_t max_t, game::SweepMode mode) const = 0;
    // Phase (b): tasks covering coalition sizes 1..max_k (max_k >= 1),
    // each able to scan faulty sizes 0..max_t.
    [[nodiscard]] virtual std::unique_ptr<SweepTasks> resilience_tasks(
        std::size_t max_k, std::size_t max_t, GainCriterion criterion,
        game::SweepMode mode) const = 0;

private:
    struct ImmunityPhase;
    [[nodiscard]] ImmunityPhase immunity_phase(std::size_t max_t, game::SweepMode mode,
                                               std::uint64_t start) const;
};

}  // namespace bnash::core
