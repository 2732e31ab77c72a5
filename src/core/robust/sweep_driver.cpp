#include "core/robust/sweep_driver.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "util/thread_pool.h"

namespace bnash::core {
namespace {

// Outcome of a task sweep under an (optional) util::ExecutionGrant.
struct TaskRun final {
    // The serial-equivalent first violation; absent when no task violated
    // OR the grant expired before the first violation was pinned.
    std::optional<RobustnessViolation> hit;
    // Tasks [0, verified) completed untruncated without violating; with a
    // hit, `verified` is its task rank (the batch probes map it back to a
    // set size). Without one, verified < num_tasks means the grant
    // expired and everything from `verified` on is UNRESOLVED, not clean.
    std::size_t verified = 0;
};

// Resume positions are untrusted input (they travel in client tokens): a
// position beyond the task space it seeks into means the checkpoint was
// recorded against a different game or sweep parameterization, and must
// never read as "every task verified".
void check_resume_position(std::uint64_t position, std::uint64_t end) {
    if (position > end) {
        throw InvalidCheckpoint(
            "resume checkpoint position lies beyond the task space (stale or forged "
            "checkpoint)");
    }
}

// The tasks over the GLOBAL index range [start, size), each scanning
// faulty sizes [min_t, max_t]: the prefix [0, start) was verified clean
// by an earlier budgeted run, so skipping it preserves the first-hit-wins
// verdict — any hit found here is the global-first hit. Runs them through
// util::first_hit, one task per block: in order, or in kAuto mode with
// the first task inline and the rest on the global pool only when it did
// not violate. Both modes report the task the serial loop stops at, in a
// global task rank, and a task that finishes after the active grant
// expired vouches for nothing.
TaskRun run_tasks_from(const SweepTasks& tasks, std::uint64_t start, std::size_t min_t,
                       std::size_t max_t) {
    check_resume_position(start, tasks.size());
    const auto first = static_cast<std::size_t>(start);
    std::vector<std::optional<RobustnessViolation>> found(tasks.size() - first);
    // lint: grant-ok(the engines' task kernels charge the active grant
    // through their ScanTally)
    const util::FirstHit run = util::first_hit(
        found.size(), 1, tasks.mode() == game::SweepMode::kAuto,
        [&](std::size_t index, const std::atomic<std::uint64_t>&) -> std::optional<std::uint64_t> {
            found[index] = tasks.run(first + index, min_t, max_t);
            if (!found[index]) return std::nullopt;
            return index;
        });
    if (!run.rank) return {std::nullopt, first + run.verified};
    return {std::move(found[run.verified]), first + run.verified};
}

enum class Entry { kCell, kFrontier, kWalk };

[[noreturn]] void reject(const char* what) {
    throw InvalidCheckpoint(std::string("resume checkpoint rejected: ") + what);
}

// Release-build validation of a resume checkpoint against the entry point
// and budget it is presented to: every field must lie in the range this
// entry point could have written. next_task is range-checked where it
// seeks (check_resume_position). Returns nullptr for an empty checkpoint
// (no progress recorded), which is a fresh run. In-range values are still
// taken on trust: only an authenticated token proves the earlier runs
// really verified the prefix a checkpoint claims.
const SweepCheckpoint* validated(const SweepCheckpoint* resume, Entry entry, std::size_t max_k,
                                 std::size_t max_t) {
    if (resume == nullptr) return nullptr;
    const SweepCheckpoint& r = *resume;
    if (r.immunity_ok > max_t) reject("immunity boundary beyond the probed t");
    if (entry != Entry::kFrontier && r.open_columns != 0) reject("stray open_columns");
    if (entry != Entry::kWalk && !r.walk_k_of_t.empty()) reject("stray boundary-walk state");
    if (!r.immunity_done) {
        if (r.open_columns != 0 || !r.walk_k_of_t.empty()) {
            reject("resilience-phase state before the immunity phase finished");
        }
        return r.next_task == 0 ? nullptr : resume;
    }
    // A frontier run that stopped early still had column 0 open.
    if (entry == Entry::kFrontier &&
        (r.open_columns == 0 || r.open_columns > std::min(max_t, r.immunity_ok) + 1)) {
        reject("open_columns outside the grid");
    }
    if (entry == Entry::kWalk) {
        // A walk only ever stops inside an immune column it still has
        // coalitions to scan in, and kmax never grows with t.
        std::size_t k_prev = max_k;
        for (const std::size_t k : r.walk_k_of_t) {
            if (k > k_prev) reject("walk_k_of_t increases or exceeds max_k");
            k_prev = k;
        }
        if (r.walk_k_of_t.size() > r.immunity_ok || k_prev == 0) {
            reject("walk column out of range");
        }
    }
    return resume;
}

// The cells a boundary walk resolved and its Pareto-maximal cells, from
// its boundary and k_of_t alone, so fresh, truncated and resumed runs
// count alike: (0, immunity_ok); (0, immunity_ok + 1) when the boundary
// is exact and interior; and per resolved column t with coalitions left
// to scan, the confirmed (kmax(t), t) plus the broken (kmax(t) + 1, t)
// when kmax dropped there.
void tally_walk(MaxKtResult& out) {
    out.cells_resolved = 1 + (out.immunity_exact && out.immunity_ok < out.max_t ? 1 : 0);
    std::size_t k_prev = out.max_k;
    for (std::size_t t = 0; t < out.k_of_t.size(); ++t) {
        const std::size_t kt = out.k_of_t[t];
        out.cells_resolved += (k_prev > 0 ? 1 : 0) + (kt < k_prev ? 1 : 0);
        k_prev = kt;
        if (t + 1 == out.k_of_t.size() || out.k_of_t[t + 1] < kt) out.maximal.emplace_back(kt, t);
    }
}

}  // namespace

std::optional<RobustnessViolation> run_ranked_blocks(std::uint64_t total,
                                                     const BlockScan& scan_block) {
    constexpr std::uint64_t kMaxBlocks = 4096;
    const std::uint64_t block = std::max(kIntraBlock, (total + kMaxBlocks - 1) / kMaxBlocks);
    const auto num_blocks = static_cast<std::size_t>((total + block - 1) / block);
    std::vector<std::optional<RobustnessViolation>> found(num_blocks);
    // lint: grant-ok(every scan_block charges its cells through its own
    // ScanTally as the block retires)
    const util::FirstHit run = util::first_hit(
        num_blocks, block, true,
        [&](std::size_t index,
            const std::atomic<std::uint64_t>& best) -> std::optional<std::uint64_t> {
            const std::uint64_t lo = index * block;
            std::optional<RankHit> hit = scan_block(lo, std::min(total, lo + block), best);
            if (!hit) return std::nullopt;
            found[index] = std::move(hit->violation);
            return hit->rank;
        });
    if (!run.rank) return std::nullopt;
    return std::move(found[run.verified]);
}

// Phase (a) with a resume offset: tasks [0, start) are taken as verified
// by an earlier run. `done` means the phase finished (hit found or every
// task verified) — the verdict's max_ok is then exact; otherwise
// next_task is the first unverified rank for the checkpoint.
struct SweepDriver::ImmunityPhase final {
    BatchVerdict verdict;
    std::uint64_t next_task = 0;
    bool done = false;
};

SweepDriver::ImmunityPhase SweepDriver::immunity_phase(std::size_t max_t, game::SweepMode mode,
                                                       std::uint64_t start) const {
    ImmunityPhase phase;
    BatchVerdict& out = phase.verdict;
    out.violations.assign(max_t, std::nullopt);
    if (max_t == 0) {
        check_resume_position(start, 0);
        phase.done = true;
        return phase;
    }
    const auto tasks = immunity_tasks(max_t, mode);
    const TaskRun run = run_tasks_from(*tasks, start, 0, max_t);
    phase.next_task = tasks->size();
    if (run.hit) {
        // Tasks below `start` were verified clean by the earlier runs, so
        // this hit is the global-first one — the witness an unbudgeted
        // sweep reports.
        const std::size_t breaking = tasks->set_size(run.verified);
        out.max_ok = breaking - 1;
        for (std::size_t t = breaking; t <= max_t; ++t) out.violations[t - 1] = *run.hit;
        phase.done = true;
    } else if (run.verified == tasks->size()) {
        out.max_ok = max_t;
        phase.done = true;
    } else {
        // Grant truncation: sizes beyond the verified prefix are unknown.
        out.max_ok = run.verified == 0 ? 0 : tasks->set_size(run.verified) - 1;
        out.complete = false;
        phase.next_task = run.verified;
    }
    return phase;
}

std::optional<RobustnessViolation> SweepDriver::immunity_violation(std::size_t t,
                                                                   game::SweepMode mode) const {
    if (t == 0) return std::nullopt;
    return std::move(immunity_phase(t, mode, 0).verdict.violations[t - 1]);
}

std::optional<RobustnessViolation> SweepDriver::resilience_violation(std::size_t k, std::size_t t,
                                                                     GainCriterion criterion,
                                                                     game::SweepMode mode) const {
    if (k == 0) return std::nullopt;
    return run_tasks_from(*resilience_tasks(k, t, criterion, mode), 0, 0, t).hit;
}

std::optional<RobustnessViolation> SweepDriver::robustness_violation(
    std::size_t k, std::size_t t, const RobustnessOptions& options,
    const SweepCheckpoint* resume, SweepCheckpoint* checkpoint) const {
    resume = validated(resume, Entry::kCell, k, t);
    const bool resumed_b = resume != nullptr && resume->immunity_done;
    if (checkpoint != nullptr) *checkpoint = SweepCheckpoint{};
    // Part (a): non-deviators are not hurt by up to t arbitrary players.
    // Tasks below the recorded rank were verified clean by the earlier
    // runs, so any hit found here is the global-first witness.
    if (!resumed_b) {
        ImmunityPhase phase =
            immunity_phase(t, options.mode, resume != nullptr ? resume->next_task : 0);
        if (!phase.done) {
            // Truncated: the caller observes the expired grant and treats
            // the nullopt as kUnknown; the checkpoint seeks the retry.
            if (checkpoint != nullptr) checkpoint->next_task = phase.next_task;
            return std::nullopt;
        }
        if (phase.verdict.max_ok < t) {
            if (checkpoint != nullptr) checkpoint->finished = true;
            return std::move(phase.verdict.violations[t - 1]);
        }
    }
    if (checkpoint != nullptr) checkpoint->immunity_done = true;
    // Part (b): no coalition gains against any disjoint faulty set.
    const std::uint64_t start = resumed_b ? resume->next_task : 0;
    if (k == 0) {
        check_resume_position(start, 0);
        if (checkpoint != nullptr) checkpoint->finished = true;
        return std::nullopt;
    }
    const auto tasks = resilience_tasks(k, t, options.criterion, options.mode);
    TaskRun run = run_tasks_from(*tasks, start, 0, t);
    if (run.hit) {
        if (checkpoint != nullptr) checkpoint->finished = true;
        return std::move(run.hit);
    }
    if (checkpoint != nullptr) {
        if (run.verified == tasks->size()) {
            checkpoint->finished = true;
        } else {
            checkpoint->next_task = run.verified;
        }
    }
    return std::nullopt;
}

BatchVerdict SweepDriver::batch_resilience(std::size_t max_k, GainCriterion criterion,
                                           game::SweepMode mode) const {
    BatchVerdict out;
    out.violations.assign(max_k, std::nullopt);
    if (max_k == 0) return out;
    const auto tasks = resilience_tasks(max_k, 0, criterion, mode);
    const TaskRun run = run_tasks_from(*tasks, 0, 0, 0);
    if (run.hit) {
        // Every probe with k >= |winning coalition| enumerates the same
        // prefix and stops at the same task; smaller k never reaches it.
        const std::size_t breaking = tasks->set_size(run.verified);
        out.max_ok = breaking - 1;
        for (std::size_t k = breaking; k <= max_k; ++k) out.violations[k - 1] = *run.hit;
        return out;
    }
    if (run.verified == tasks->size()) {
        out.max_ok = max_k;
        return out;
    }
    // Grant truncation: the verified prefix covers every coalition
    // strictly smaller than the first unverified task's (size-major
    // order); larger sizes are unknown, not clean.
    out.max_ok = tasks->set_size(run.verified) - 1;
    out.complete = false;
    return out;
}

BatchVerdict SweepDriver::batch_immunity(std::size_t max_t, game::SweepMode mode) const {
    return immunity_phase(max_t, mode, 0).verdict;
}

FrontierVerdict SweepDriver::batch_robustness_frontier(std::size_t max_k, std::size_t max_t,
                                                       GainCriterion criterion,
                                                       game::SweepMode mode,
                                                       const SweepCheckpoint* resume,
                                                       SweepCheckpoint* checkpoint,
                                                       const FrontierColumnSink& on_column) const {
    resume = validated(resume, Entry::kFrontier, max_k, max_t);
    const bool resumed_b = resume != nullptr && resume->immunity_done;
    FrontierVerdict out;
    out.max_k = max_k;
    out.max_t = max_t;
    out.cells.assign((max_k + 1) * (max_t + 1), std::nullopt);
    const std::size_t stride = max_t + 1;

    // Part (a): one shared immunity sweep gives every t-column's immunity
    // verdict (the independent probes check immunity FIRST, so a broken
    // column takes the immunity witness for every k). A truncated
    // immunity sweep leaves the columns beyond its verified boundary
    // UNRESOLVED rather than broken. A resumed run whose checkpoint
    // already finished the phase reuses the recorded boundary: the broken
    // columns' witnesses were delivered by the run that finished it, so
    // THIS grid leaves them kUnknown.
    bool immunity_done = false;
    bool immunity_exact_now = false;  // phase finished THIS run: witnesses in hand
    std::size_t immunity_ok = 0;
    std::uint64_t immunity_next = 0;  // first unverified immunity task, for the checkpoint
    if (resumed_b) {
        immunity_done = true;
        immunity_ok = resume->immunity_ok;
    } else {
        const ImmunityPhase phase =
            immunity_phase(max_t, mode, resume != nullptr ? resume->next_task : 0);
        immunity_done = phase.done;
        immunity_next = phase.next_task;
        immunity_ok = phase.verdict.max_ok;
        if (immunity_done) {
            immunity_exact_now = true;
            for (std::size_t t = immunity_ok + 1; t <= max_t; ++t) {
                const auto& violation = phase.verdict.violations[t - 1];
                for (std::size_t k = 0; k <= max_k; ++k) out.cells[k * stride + t] = violation;
                if (on_column) on_column(t, 0, violation ? &*violation : nullptr);
            }
        }
    }

    // Part (b): the size-major task sweep resolves the surviving columns.
    // The open columns always form a t-prefix [0, open): every hit closes
    // a suffix, and columns closed by EARLIER resumed runs were a suffix
    // then, so a checkpoint records only their count. Columns [live,
    // t_res] had their verdicts and witnesses delivered by an earlier run:
    // out of play here, and kUnknown in this grid. Resume soundness: a
    // column still open now was open during every earlier run too, so
    // every task in [0, start_b) ran with a cap covering it — the seek
    // changes no cap, winner, or scan.
    const std::size_t t_res = std::min(max_t, immunity_ok);
    const std::size_t live = resumed_b ? resume->open_columns : t_res + 1;
    // The columns [open, live) were won by a task this run. The columns
    // [0, open) no task won are clean, or — when the grant expired —
    // clean only for k <= verified_k, unknown above.
    std::size_t open = live;
    bool truncated = false;
    std::size_t verified_k = max_k;
    std::uint64_t next_task = 0;  // first unverified resilience task, for the checkpoint
    const std::uint64_t start_b = resumed_b ? resume->next_task : 0;
    if (max_k == 0) {  // k = 0 row: resilience is vacuous
        check_resume_position(start_b, 0);
    } else {
        const auto tasks = resilience_tasks(max_k, t_res, criterion, mode);
        check_resume_position(start_b, tasks->size());
        // The serial in-order loop, cut at each hit: every task runs with
        // its cap, the highest open column, and the lowest task breaking
        // at faulty size s0 wins every open column t >= s0. The next
        // search resumes past it with the cap below s0.
        for (std::uint64_t start = start_b; open > 0;) {
            const TaskRun run = run_tasks_from(*tasks, start, 0, open - 1);
            if (!run.hit) {
                truncated = run.verified < tasks->size();
                if (truncated) {
                    verified_k = tasks->set_size(run.verified) - 1;
                    next_task = run.verified;
                }
                break;
            }
            // Cell (k, t) takes the winner iff its coalition fits in k.
            const std::size_t breaking = tasks->set_size(run.verified);
            const std::size_t s0 = run.hit->faulty.size();
            for (std::size_t t = s0; t < open; ++t) {
                for (std::size_t k = breaking; k <= max_k; ++k) out.cells[k * stride + t] = run.hit;
                if (on_column) on_column(t, breaking, &*run.hit);
            }
            open = s0;
            start = run.verified + 1;
        }
    }
    if (on_column && !truncated) {
        // Clean columns become final only when the sweep finishes.
        for (std::size_t t = 0; t < open; ++t) on_column(t, max_k + 1, nullptr);
    }

    // Checkpoint capture: enough to seek a later run past every verified
    // task and every column whose verdict has already been delivered.
    if (checkpoint != nullptr) {
        *checkpoint = {.finished = immunity_done && !truncated,
                       .immunity_done = immunity_done,
                       .immunity_ok = immunity_done ? immunity_ok : 0,
                       .next_task = immunity_done ? next_task : immunity_next,
                       .open_columns = immunity_done && truncated ? open : 0,
                       .walk_k_of_t = {}};
    }

    // Resolution bookkeeping: a fresh untruncated run resolves every cell
    // and keeps `states` in its empty "all resolved" form. A resumed run
    // never does — the columns earlier runs resolved stay kUnknown here
    // (merge_frontier reassembles the full grid).
    if (resume == nullptr && immunity_exact_now && !truncated) {
        out.cells_resolved = out.cells.size();
        return out;
    }
    out.states.assign(out.cells.size(), CellVerdict::kUnknown);
    for (std::size_t t = 0; t <= max_t; ++t) {
        if (t > t_res) {
            // Beyond the immunity boundary: broken everywhere when the
            // boundary became exact THIS run; unknown when it is still
            // truncated or when an earlier resumed run already delivered
            // those columns.
            if (immunity_exact_now) {
                for (std::size_t k = 0; k <= max_k; ++k) {
                    out.states[k * stride + t] = CellVerdict::kBroken;
                }
            }
            continue;
        }
        if (t >= live) continue;  // delivered by an earlier run
        const bool unresolved = truncated && t < open;
        for (std::size_t k = 0; k <= max_k; ++k) {
            const std::size_t cell = k * stride + t;
            if (!unresolved) {
                out.states[cell] = out.cells[cell] ? CellVerdict::kBroken : CellVerdict::kRobust;
            } else if (k <= verified_k) {
                out.states[cell] = CellVerdict::kRobust;
            }
        }
    }
    for (const CellVerdict s : out.states) {
        if (s != CellVerdict::kUnknown) ++out.cells_resolved;
    }
    return out;
}

MaxKtResult SweepDriver::max_kt(std::size_t max_k, std::size_t max_t, GainCriterion criterion,
                                game::SweepMode mode, const SweepCheckpoint* resume,
                                SweepCheckpoint* checkpoint) const {
    resume = validated(resume, Entry::kWalk, max_k, max_t);
    MaxKtResult out;
    out.max_k = max_k;
    out.max_t = max_t;
    // t-axis: the shared immunity sweep pins the last column holding any
    // robust cell. Resolves (0, immunity_ok) robust, and — when the
    // boundary is interior and the sweep untruncated — (0, immunity_ok+1)
    // broken. A resumed run restores the recorded boundary and walk
    // prefix, so the run that finally completes returns a result
    // bit-identical to one unbudgeted run.
    std::uint64_t col_start = 0;
    if (resume != nullptr && resume->immunity_done) {
        out.immunity_ok = resume->immunity_ok;
        out.k_of_t = resume->walk_k_of_t;
        col_start = resume->next_task;
    } else {
        const ImmunityPhase phase =
            immunity_phase(max_t, mode, resume != nullptr ? resume->next_task : 0);
        out.immunity_ok = phase.verdict.max_ok;
        out.immunity_exact = phase.done;
        out.complete = phase.done;
        if (!phase.done && checkpoint != nullptr) {
            // A resumable run truncated mid-immunity reports no columns:
            // the retry re-derives the walk from the exact boundary more
            // cheaply than re-walking a provisional one.
            *checkpoint = SweepCheckpoint{};
            checkpoint->next_task = phase.next_task;
            tally_walk(out);
            return out;
        }
    }
    out.k_of_t.reserve(out.immunity_ok + 1);

    std::size_t k_prev = out.k_of_t.empty() ? max_k : out.k_of_t.back();
    for (std::size_t t = out.k_of_t.size(); t <= out.immunity_ok; ++t) {
        // Every coalition of size <= k_prev is clean for faulty sizes
        // < t (that is what k_of_t[t-1] = k_prev certifies), so this
        // step scans ONLY faulty size exactly t — nothing below the
        // current frontier is rescanned. Size-major order makes the first
        // violating task's coalition size s pin kmax(t) = s - 1.
        if (k_prev == 0) {
            out.k_of_t.push_back(0);  // column survives on immunity alone
            continue;
        }
        const auto tasks = resilience_tasks(k_prev, t, criterion, mode);
        const TaskRun run = run_tasks_from(*tasks, col_start, t, t);
        col_start = 0;  // the seek applies only to the resumed column
        if (!run.hit && run.verified < tasks->size()) {
            // Grant expired mid-step: this column's kmax is unresolved,
            // and nothing beyond it can be certified — the walk stops at
            // the last fully resolved column.
            out.complete = false;
            col_start = run.verified;
            break;
        }
        k_prev = run.hit ? tasks->set_size(run.verified) - 1 : k_prev;
        out.k_of_t.push_back(k_prev);
    }
    if (checkpoint != nullptr) {
        *checkpoint = {.finished = out.complete,
                       .immunity_done = true,
                       .immunity_ok = out.immunity_ok,
                       .next_task = col_start,  // 0 once the walk completed
                       .walk_k_of_t = out.complete ? std::vector<std::size_t>{} : out.k_of_t};
    }
    tally_walk(out);
    return out;
}

}  // namespace bnash::core
