// The one sweep driver behind every (k,t)-robustness question, shared by
// the dense CoalitionSweep and the symmetry-quotient OrbitSweep engines.
//
// An ENGINE is a task space plus scan kernels. It enumerates two phases
// of tasks in a fixed order — phase (a) immunity tasks (faulty sets, or
// faulty sizes) and phase (b) resilience tasks (coalitions, or
// (coalition size, faulty size) pairs) — and scans one task on demand.
// Everything that follows from that order alone lives here, once:
//
//   - run_tasks_from: the lowest-index winner over the task list through
//     util::first_hit, one task per block: task 0 inline, the rest on
//     util::global_pool() in kAuto mode only when task 0 did not violate.
//     Each task polls a TaskBound and stops once a lower task has won.
//     A task that finishes after its util::ExecutionGrant expired vouches
//     for nothing, and errors surface as the serial loop would raise them;
//   - the resumable immunity phase and the two-phase robustness check;
//   - the frontier as a loop of run_tasks_from searches under a
//     descending cap (the highest open column), each hit closing a
//     suffix of the open columns; on_column streaming, checkpoint
//     capture and per-cell `states` assembly;
//   - the max_kt boundary walk;
//   - release-build validation of every resume checkpoint field;
//   - the scan protocol both engines' kernels follow: a ScanTally charges
//     one scan's cells and digit moves at its grant polls and flushes,
//     and run_scan runs one scan inline or as ranged blocks (split_scan,
//     run_ranked_blocks). The engines' .cpp files never charge or split
//     a scan themselves.
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
#include <utility>

#include "core/robust/robustness.h"
#include "game/payoff_engine.h"
#include "util/execution_grant.h"
#include "util/work_counters.h"

namespace bnash::core {

// What a running task polls to learn that it can no longer win: `best`
// is first_hit's lowest hit or error rank so far and `rank` the task's own
// rank in that search. Once best <= rank, a lower task has won, so the
// driver discards whatever this task returns. A default bound (a serial
// caller) is never beaten.
struct TaskBound final {
    const std::atomic<std::uint64_t>* best = nullptr;
    std::uint64_t rank = 0;

    [[nodiscard]] bool beaten() const noexcept {
        return best != nullptr && best->load(std::memory_order_acquire) <= rank;
    }
};

// One phase's tasks, in the engine's fixed enumeration order.
class SweepTasks {
public:
    // `mode` is how the driver dispatches the TASKS: kAuto claims them on
    // the pool, kSerial runs them in order. In kAuto a kernel also splits
    // one task's large scan into ranged blocks (see split_scan).
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
    // the range. Kernels may stop early once the active grant expires or
    // `bound` is beaten (a lower task won) — the driver then discards
    // whatever they return. A resilience task polls the bound between its
    // scans (faulty sets, or composition scans), never inside one.
    [[nodiscard]] virtual std::optional<RobustnessViolation> run(std::size_t task,
                                                                 std::size_t min_t,
                                                                 std::size_t max_t,
                                                                 const TaskBound& bound) const = 0;
    // In kAuto mode, how many tasks from `first` a search over faulty
    // sizes [min_t, max_t] runs in order on the calling thread before it
    // pools the rest: a prefix too small to pay for a dispatch, all of the
    // tasks when their whole work is. 0 (the default) pools from `first`.
    [[nodiscard]] virtual std::size_t inline_prefix(std::size_t /*first*/,
                                                    std::size_t /*min_t*/,
                                                    std::size_t /*max_t*/) const {
        return 0;
    }

private:
    game::SweepMode mode_;
};

// A violation found at a global scan rank of one ranged-block scan.
struct RankHit final {
    std::uint64_t rank = 0;
    RobustnessViolation violation;
};

// Cells per ranged block of one task's scan. Fixed, not derived from the
// worker count, so the block decomposition — and with it the lowest-rank
// winner — is machine-independent.
inline constexpr std::uint64_t kIntraBlock = std::uint64_t{1} << 11;

// About the work one pooled dispatch costs, in cells: first_hit's wake-up
// and completion wait take 2-6 us on a 4-executor pool, as long as a few
// hundred orbit cells take inline. An engine runs a task prefix below it
// inline (SweepTasks::inline_prefix), so an early hit there dispatches
// nothing and a later dispatch costs at most about what the prefix did.
inline constexpr std::uint64_t kDispatchCells = kIntraBlock / 8;

// How every engine runs one task's scan of `total` cells through its
// range kernel: split into ranged blocks (run_ranked_blocks) in kAuto
// mode when the scan spans at least two blocks; otherwise one inline
// kernel call over [0, total).
[[nodiscard]] constexpr bool split_scan(game::SweepMode mode, std::uint64_t total) noexcept {
    return mode == game::SweepMode::kAuto && total >= 2 * kIntraBlock;
}

// Scans ranks [0, total) as kIntraBlock blocks through util::first_hit
// (block 0 inline, the rest on util::global_pool()) and returns the
// LOWEST-rank hit — the violation the in-order scan reports.
// `scan_block(lo, hi, best)` scans [lo, hi) in order and returns its
// first hit; it may give up early once `best` (the lowest hit or error
// rank so far) drops to or below its current rank. Blocks grow so that no
// scan has more than 4096 of them. Errors and grant expiry behave as in
// first_hit.
using BlockScan = std::function<std::optional<RankHit>(
    std::uint64_t lo, std::uint64_t hi, const std::atomic<std::uint64_t>& best)>;
[[nodiscard]] std::optional<RobustnessViolation> run_ranked_blocks(std::uint64_t total,
                                                                   const BlockScan& scan_block);

// A scan's work so far, charged to util::work_counters (and through them
// to the active grant) in chunks: at each grant poll — every
// kGrantCheckCells cells the tally has seen — and at flush(), never at a
// range's end, so where a budgeted run stops does not depend on how its
// scans were cut into ranges. The engine picks a tally's span (a task, a
// faulty set, a composition scan); a ranged block keeps its own.
class ScanTally final {
public:
    util::ExecutionGrant* const grant = util::active_grant();

    // Charges everything booked.
    void flush() { flush_at(cells_, moves_); }
    // The poll under a grant at a range's `scanned`-th cell, `moved` digit
    // moves in: on the tally's every kGrantCheckCells-th cell, charges the
    // pending chunk and reports whether the grant has expired.
    [[nodiscard]] bool expired_at(std::uint64_t scanned, std::uint64_t moved) {
        if ((cells_ + scanned) % util::kGrantCheckCells != 0) return false;
        flush_at(cells_ + scanned, moves_ + moved);
        return grant->expired();
    }
    // Books a finished range.
    void add(std::uint64_t scanned, std::uint64_t moved) {
        cells_ += scanned;
        moves_ += moved;
    }

private:
    void flush_at(std::uint64_t cells, std::uint64_t moves) {
        util::work_counters_add(cells - flushed_cells_, moves - flushed_moves_);
        flushed_cells_ = cells;
        flushed_moves_ = moves;
    }

    std::uint64_t cells_ = 0;
    std::uint64_t moves_ = 0;
    std::uint64_t flushed_cells_ = 0;
    std::uint64_t flushed_moves_ = 0;
};

// One scan of `scan.total()` cells by the rule every engine shares
// (split_scan): `scan.range(cursor, lo, hi, tally, best)` over [0, total)
// on the scan's own `cursor`, booking into `tally`; or ranged blocks that
// each scan a copy of the cursor and charge their own tally as they
// retire. `range` returns its first hit and books the cells and digit
// moves it walked; `best` (null inline) is run_ranked_blocks' winner.
template <typename Scan>
[[nodiscard]] std::optional<RobustnessViolation> run_scan(Scan& scan, game::SweepMode mode,
                                                          ScanTally& tally) {
    const std::uint64_t total = scan.total();
    if (!split_scan(mode, total)) {
        std::optional<RankHit> hit = scan.range(scan.cursor, 0, total, tally, nullptr);
        if (!hit) return std::nullopt;
        return std::move(hit->violation);
    }
    return run_ranked_blocks(total, [&](std::uint64_t lo, std::uint64_t hi,
                                        const std::atomic<std::uint64_t>& best) {
        auto cursor = scan.cursor;
        ScanTally block;
        std::optional<RankHit> hit = scan.range(cursor, lo, hi, block, &best);
        block.flush();
        return hit;
    });
}

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
