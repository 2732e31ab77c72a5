#include "core/robust/sweep_driver.h"

#include <algorithm>
#include <exception>
#include <utility>
#include <vector>

#include "util/execution_grant.h"
#include "util/thread_pool.h"

namespace bnash::core {
namespace {

// A found violation together with the index of the task that found it
// (the batch probes map the winning index back to a set size).
using TaskHit = std::pair<std::size_t, RobustnessViolation>;

// Outcome of a task sweep under an (optional) util::ExecutionGrant.
struct TaskRun final {
    // The serial-equivalent first violation; absent when no task violated
    // OR the grant expired before the first violation was pinned.
    std::optional<TaskHit> hit;
    // Tasks [0, verified) completed untruncated without violating; with a
    // hit, verified == hit->first. Without one, verified < num_tasks
    // means the grant expired and everything from `verified` on is
    // UNRESOLVED, not clean.
    std::size_t verified = 0;
};

// Runs fn(0..num_tasks) with first-hit-wins semantics on the LOWEST task
// index, serially or on the global pool. Parallel runs skip tasks above
// the current best index (early exit) but never below it, so both modes
// return the violation of the same task — the one the serial loop would
// have stopped at. Under an active ExecutionGrant, a task observed
// truncated (grant expired after fn returned) cannot vouch for its
// verdict — a skipped stretch may hide an earlier violation — so its
// result is discarded, and a hit is reported only when every lower-index
// task completed untruncated, which keeps reported hits bit-identical to
// the unbudgeted winner.
template <typename TaskFn>
TaskRun run_tasks(std::size_t num_tasks, game::SweepMode mode, const TaskFn& fn) {
    if (num_tasks == 0) return {std::nullopt, 0};
    util::ExecutionGrant* const grant = util::active_grant();
    auto& pool = util::global_pool();
    if (mode == game::SweepMode::kSerial || pool.size() <= 1 || num_tasks == 1) {
        for (std::size_t index = 0; index < num_tasks; ++index) {
            if (grant != nullptr && grant->expired()) return {std::nullopt, index};
            auto violation = fn(index);
            if (grant != nullptr && grant->expired()) return {std::nullopt, index};
            if (violation) return {TaskHit{index, *std::move(violation)}, index};
        }
        return {std::nullopt, num_tasks};
    }
    std::atomic<std::size_t> best{num_tasks};
    std::vector<std::optional<RobustnessViolation>> found(num_tasks);
    std::vector<std::exception_ptr> errors(num_tasks);
    // Per-task outcome under a grant: 0 = never ran or truncated, 1 =
    // completed untruncated (errors count — they surface below), 2 =
    // early-exit skip (only possible at indices >= the final winner).
    // Each slot is written by the one thread that claimed the task and
    // read only after the pool's completion barrier.
    std::vector<unsigned char> state(grant != nullptr ? num_tasks : 0, 0);
    pool.run_blocks(num_tasks, [&](std::size_t index) {
        if (index >= best.load(std::memory_order_acquire)) {  // early exit
            if (grant != nullptr) state[index] = 2;
            return;
        }
        try {
            auto violation = fn(index);
            if (grant != nullptr) {
                if (grant->expired()) return;  // truncated: verdict untrusted
                state[index] = 1;
            }
            if (violation) {
                found[index] = std::move(violation);
                std::size_t current = best.load(std::memory_order_acquire);
                while (index < current &&
                       !best.compare_exchange_weak(current, index,
                                                   std::memory_order_acq_rel)) {
                }
            }
        } catch (...) {
            errors[index] = std::current_exception();
            if (grant != nullptr) state[index] = 1;
        }
    });
    const std::size_t winner = best.load(std::memory_order_acquire);
    // Completed prefix: early-exit skips only happen at indices >= the
    // final winner, so the leading run of nonzero states is exactly the
    // untruncated prefix.
    std::size_t verified = num_tasks;
    if (grant != nullptr) {
        verified = 0;
        while (verified < num_tasks && state[verified] != 0) ++verified;
    }
    // Replicate the serial loop's observable behavior exactly: serial
    // execution stops at the first violating task (or at grant expiry),
    // so an error in a task it would never have reached is swallowed; an
    // error below that point is rethrown, lowest index first, just as the
    // in-order loop would have thrown.
    for (std::size_t index = 0; index < std::min(winner, verified); ++index) {
        if (errors[index]) std::rethrow_exception(errors[index]);
    }
    if (winner < num_tasks && winner <= verified) {
        return {TaskHit{winner, *std::move(found[winner])}, winner};
    }
    return {std::nullopt, verified};
}

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
// verdict — any hit found here is the global-first hit. Hit index and
// verified count are reported in global task ranks.
TaskRun run_tasks_from(const SweepTasks& tasks, std::uint64_t start, std::size_t min_t,
                       std::size_t max_t) {
    const std::size_t num_tasks = tasks.size();
    check_resume_position(start, num_tasks);
    const auto first = static_cast<std::size_t>(start);
    if (first == num_tasks) return {std::nullopt, num_tasks};
    TaskRun run = run_tasks(num_tasks - first, tasks.mode(), [&](std::size_t index) {
        return tasks.run(first + index, min_t, max_t);
    });
    if (run.hit) run.hit->first += first;
    run.verified += first;
    return run;
}

enum class Entry { kCell, kFrontier, kWalk };

[[noreturn]] void reject(const char* what) {
    throw InvalidCheckpoint(std::string("resume checkpoint rejected: ") + what);
}

// Release-build validation of a resume checkpoint against the entry point
// and budget it is presented to: every field must be one this entry point
// could have written itself. Positions are range-checked where they seek
// (check_resume_position). Returns nullptr for an empty checkpoint (no
// progress recorded), which is a fresh run. In-range values are still
// taken on trust: only an authenticated token proves the earlier runs
// really verified the prefix a checkpoint claims.
const SweepCheckpoint* validated(const SweepCheckpoint* resume, Entry entry, std::size_t max_k,
                                 std::size_t max_t) {
    if (resume == nullptr) return nullptr;
    const SweepCheckpoint& r = *resume;
    const bool walk_state = r.walk_t != 0 || r.walk_k_prev != 0 || !r.walk_k_of_t.empty() ||
                            r.walk_cells_resolved != 0;
    if (r.immunity_ok > max_t) reject("immunity boundary beyond the probed t");
    if (!r.immunity_done) {
        if (r.next_task != 0 || !r.column_done.empty() || walk_state) {
            reject("resilience-phase state before the immunity phase finished");
        }
        return r.immunity_next == 0 ? nullptr : resume;
    }
    if (entry != Entry::kFrontier && !r.column_done.empty()) reject("stray column_done");
    if (entry != Entry::kWalk && walk_state) reject("stray boundary-walk state");
    if (entry == Entry::kFrontier) {
        const std::size_t columns = r.finished ? 0 : std::min(max_t, r.immunity_ok) + 1;
        if (r.column_done.size() != columns) reject("column_done does not match the grid");
    }
    if (entry == Entry::kWalk) {
        const std::vector<std::size_t>& k_of_t = r.walk_k_of_t;
        if (k_of_t.size() != r.walk_t) reject("walk_k_of_t length differs from walk_t");
        for (std::size_t t = 0; t < k_of_t.size(); ++t) {
            if (k_of_t[t] > (t == 0 ? max_k : k_of_t[t - 1])) {
                reject("walk_k_of_t increases or exceeds max_k");
            }
        }
        if (r.walk_k_prev != (k_of_t.empty() ? max_k : k_of_t.back())) {
            reject("walk_k_prev differs from the last resolved column");
        }
        // A walk only ever stops inside an immune column it still has
        // coalitions to scan in.
        if (r.walk_t > r.immunity_ok || r.walk_k_prev == 0) reject("walk column out of range");
        if (r.walk_cells_resolved > (max_k + 1) * (max_t + 1)) {
            reject("walk_cells_resolved exceeds the grid");
        }
    }
    return resume;
}

}  // namespace

std::optional<RobustnessViolation> run_ranked_blocks(std::uint64_t total,
                                                     std::uint64_t block_cells,
                                                     const BlockScan& scan_block) {
    constexpr std::uint64_t kMaxBlocks = 4096;
    const std::uint64_t block =
        std::max({block_cells, std::uint64_t{1}, (total + kMaxBlocks - 1) / kMaxBlocks});
    const std::uint64_t num_blocks = (total + block - 1) / block;
    util::ExecutionGrant* const grant = util::active_grant();
    std::atomic<std::uint64_t> best{total};
    std::vector<std::optional<RobustnessViolation>> found(num_blocks);
    std::vector<std::exception_ptr> errors(num_blocks);
    util::global_pool().run_blocks(static_cast<std::size_t>(num_blocks), [&](std::size_t index) {
        const std::uint64_t lo = index * block;
        if (lo >= best.load(std::memory_order_acquire)) return;  // early exit
        try {
            std::optional<RankHit> hit = scan_block(lo, std::min(total, lo + block), best);
            if (!hit) return;
            found[index] = std::move(hit->violation);
            std::uint64_t current = best.load(std::memory_order_acquire);
            while (hit->rank < current &&
                   !best.compare_exchange_weak(current, hit->rank, std::memory_order_acq_rel)) {
            }
        } catch (...) {
            errors[index] = std::current_exception();
        }
    });
    const std::uint64_t winner = best.load(std::memory_order_acquire);
    // Serial-equivalent errors: a block that threw found no hit of its
    // own, so an error in a block starting below the winner is one the
    // in-order scan would have hit first.
    for (std::uint64_t index = 0; index < num_blocks && index * block < winner; ++index) {
        if (errors[index]) std::rethrow_exception(errors[index]);
    }
    // An expired grant skips blocks, which may hide a lower hit.
    if (winner == total || (grant != nullptr && grant->expired())) return std::nullopt;
    return std::move(found[static_cast<std::size_t>(winner / block)]);
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
        const std::size_t breaking = tasks->set_size(run.hit->first);
        out.max_ok = breaking - 1;
        for (std::size_t t = breaking; t <= max_t; ++t) out.violations[t - 1] = run.hit->second;
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
    TaskRun run = run_tasks_from(*resilience_tasks(k, t, criterion, mode), 0, 0, t);
    if (!run.hit) return std::nullopt;
    return std::move(run.hit->second);
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
            immunity_phase(t, options.mode, resume != nullptr ? resume->immunity_next : 0);
        if (!phase.done) {
            // Truncated: the caller observes the expired grant and treats
            // the nullopt as kUnknown; the checkpoint seeks the retry.
            if (checkpoint != nullptr) checkpoint->immunity_next = phase.next_task;
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
        return std::move(run.hit->second);
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
        const std::size_t breaking = tasks->set_size(run.hit->first);
        out.max_ok = breaking - 1;
        for (std::size_t k = breaking; k <= max_k; ++k) out.violations[k - 1] = run.hit->second;
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
    util::ExecutionGrant* const grant = util::active_grant();
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
    std::uint64_t immunity_next = 0;
    if (resumed_b) {
        immunity_done = true;
        immunity_ok = resume->immunity_ok;
    } else {
        const ImmunityPhase phase =
            immunity_phase(max_t, mode, resume != nullptr ? resume->immunity_next : 0);
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
    // A task's cap is the highest still-unresolved column (the unresolved
    // set is always a t-prefix: every hit resolves a suffix, and columns
    // resolved by EARLIER resumed runs were suffixes then), and a hit at
    // faulty size s0 claims every column t >= s0 the task is still the
    // lowest index for. Resume soundness: a column still open now was
    // open during every earlier run too, so its cap covered it in all
    // tasks [0, start_b) — the seek changes no cap, winner, or scan.
    const std::size_t t_res = std::min(max_t, immunity_ok);
    // Per-column outcome. A resolved column either has a valid winning
    // task (breaking_k[t] = that task's coalition size) or verified the
    // whole sweep clean (breaking_k[t] = max_k + 1); a column truncated
    // by the grant is clean only for k <= verified_k[t] and unknown above.
    std::vector<char> resolved(t_res + 1, 1);
    std::vector<std::size_t> verified_k(t_res + 1, max_k);
    std::vector<std::size_t> breaking_k(t_res + 1, max_k + 1);
    // Columns whose verdict (and witness) an earlier run already
    // delivered: out of play for caps and winners, kUnknown in this grid.
    std::vector<char> done_before(t_res + 1, 0);
    if (resumed_b && !resume->column_done.empty()) {
        for (std::size_t t = 0; t <= t_res; ++t) done_before[t] = resume->column_done[t] != 0;
    }
    const std::uint64_t start_b = resumed_b ? resume->next_task : 0;
    std::size_t next_task_out = 0;  // first unverified task rank, for the checkpoint
    if (max_k > 0) {  // k = 0 row: resilience is vacuous
        const auto tasks = resilience_tasks(max_k, t_res, criterion, mode);
        const std::size_t num_tasks = tasks->size();
        check_resume_position(start_b, num_tasks);
        const auto first = static_cast<std::size_t>(start_b);
        std::vector<std::optional<RobustnessViolation>> found(num_tasks);
        std::vector<std::size_t> winner(t_res + 1, num_tasks);
        auto& pool = util::global_pool();
        const std::size_t live_tasks = num_tasks - first;
        if (tasks->mode() == game::SweepMode::kSerial || pool.size() <= 1 || live_tasks <= 1) {
            std::size_t reached = num_tasks;  // tasks [0, reached) ran untruncated
            for (std::size_t index = first; index < num_tasks; ++index) {
                std::size_t cap = 0;
                bool unresolved = false;
                for (std::size_t t = t_res + 1; t-- > 0;) {
                    if (!done_before[t] && winner[t] == num_tasks) {
                        cap = t;
                        unresolved = true;
                        break;
                    }
                }
                if (!unresolved) break;
                if (grant != nullptr && grant->expired()) {
                    reached = index;
                    break;
                }
                auto violation = tasks->run(index, 0, cap);
                // A truncated task cannot vouch for its verdict (see
                // run_tasks); its hit is discarded too.
                if (grant != nullptr && grant->expired()) {
                    reached = index;
                    break;
                }
                if (violation) {
                    const std::size_t s0 = violation->faulty.size();
                    found[index] = std::move(violation);
                    for (std::size_t t = s0; t <= t_res; ++t) {
                        if (!done_before[t] && winner[t] == num_tasks) {
                            winner[t] = index;
                            // Serial in-order execution: the winner is
                            // final the moment it is pinned — stream it.
                            if (on_column) on_column(t, tasks->set_size(index), &*found[index]);
                        }
                    }
                }
            }
            next_task_out = reached;
            if (reached < num_tasks) {
                // In-order execution: winners found before the cutoff are
                // valid; every still-open column was live the whole time
                // (its cap covered it in every executed task), so its
                // clean prefix is exactly [0, reached).
                for (std::size_t t = 0; t <= t_res; ++t) {
                    if (!done_before[t] && winner[t] == num_tasks) {
                        resolved[t] = 0;
                        verified_k[t] = tasks->set_size(reached) - 1;
                    }
                }
            } else if (on_column) {
                // Clean columns become final only when the sweep finishes.
                for (std::size_t t = 0; t <= t_res; ++t) {
                    if (!done_before[t] && winner[t] == num_tasks) {
                        on_column(t, max_k + 1, nullptr);
                    }
                }
            }
        } else {
            std::vector<std::atomic<std::size_t>> best(t_res + 1);
            for (std::size_t t = 0; t <= t_res; ++t) {
                // A column resolved by an earlier resumed run is out of
                // play: no task can win it and no cap covers it.
                best[t].store(done_before[t] ? 0 : num_tasks, std::memory_order_relaxed);
            }
            std::vector<std::exception_ptr> errors(num_tasks);
            // Under a grant: per-task outcome (see run_tasks) plus the cap
            // the task completed with — a clean task vouches only for the
            // columns its cap covered.
            std::vector<unsigned char> state(grant != nullptr ? num_tasks : 0, 0);
            std::vector<std::size_t> cap_done(grant != nullptr ? num_tasks : 0, 0);
            pool.run_blocks(live_tasks, [&](std::size_t offset) {
                const std::size_t index = first + offset;
                // Columns this task could still win form a prefix; its cap
                // is the highest of them. None -> early exit.
                std::size_t cap = 0;
                bool live = false;
                for (std::size_t t = t_res + 1; t-- > 0;) {
                    if (index < best[t].load(std::memory_order_acquire)) {
                        cap = t;
                        live = true;
                        break;
                    }
                }
                if (!live) {
                    if (grant != nullptr) state[index] = 2;
                    return;
                }
                try {
                    auto violation = tasks->run(index, 0, cap);
                    if (grant != nullptr) {
                        if (grant->expired()) return;  // truncated: verdict untrusted
                        state[index] = 1;
                        cap_done[index] = cap;
                    }
                    if (violation) {
                        const std::size_t s0 = violation->faulty.size();
                        found[index] = std::move(violation);
                        for (std::size_t t = s0; t <= t_res; ++t) {
                            std::size_t current = best[t].load(std::memory_order_acquire);
                            while (index < current &&
                                   !best[t].compare_exchange_weak(
                                       current, index, std::memory_order_acq_rel)) {
                            }
                        }
                    }
                } catch (...) {
                    errors[index] = std::current_exception();
                    if (grant != nullptr) {
                        state[index] = 1;
                        cap_done[index] = cap;
                    }
                }
            });
            std::size_t reach = first;
            for (std::size_t t = 0; t <= t_res; ++t) {
                winner[t] = done_before[t] ? num_tasks : best[t].load(std::memory_order_acquire);
                if (!done_before[t]) reach = std::max(reach, winner[t]);
            }
            next_task_out = num_tasks;
            std::size_t replay_end = std::min(reach, num_tasks);
            if (grant != nullptr && grant->expired()) {
                // Column-by-column completed-prefix resolution: task i
                // vouches for column t iff it completed untruncated with a
                // cap covering t and its first violation (if any) sits at
                // a faulty size beyond t. A winner stands iff every lower
                // live task vouches for its column (tasks below start_b
                // were vouched for by the earlier runs).
                for (std::size_t t = 0; t <= t_res; ++t) {
                    if (done_before[t]) continue;
                    std::size_t i = first;
                    for (; i < num_tasks; ++i) {
                        if (i == winner[t]) break;
                        const bool vouches = state[i] == 1 && cap_done[i] >= t &&
                                             (!found[i] || found[i]->faulty.size() > t);
                        if (!vouches) break;
                    }
                    if (i == num_tasks) continue;                           // clean, resolved
                    if (i == winner[t] && winner[t] < num_tasks) continue;  // broken, resolved
                    resolved[t] = 0;
                    winner[t] = num_tasks;  // an unvouched winner is discarded
                    verified_k[t] = tasks->set_size(i) - 1;
                    next_task_out = std::min(next_task_out, i);
                }
                // Errors surface only at tasks the budgeted serial loop
                // would have reached: below both the winner and the
                // truncation point.
                std::size_t untruncated = first;
                while (untruncated < num_tasks && state[untruncated] != 0) ++untruncated;
                replay_end = std::min(replay_end, untruncated);
            }
            // Serial-equivalent error behavior: an error at a task the
            // serial loop would still have reached (below the last
            // column's winner, or anywhere when some column never
            // resolved) is rethrown, lowest index first; errors past
            // every winner are swallowed.
            for (std::size_t index = first; index < replay_end; ++index) {
                if (errors[index]) std::rethrow_exception(errors[index]);
            }
            if (on_column) {
                // Parallel execution pins winners out of order; columns
                // become final only once the vouch pass settles, so emit
                // them here in t order.
                for (std::size_t t = 0; t <= t_res; ++t) {
                    if (done_before[t] || resolved[t] == 0) continue;
                    if (winner[t] == num_tasks) {
                        on_column(t, max_k + 1, nullptr);
                    } else {
                        on_column(t, tasks->set_size(winner[t]), &*found[winner[t]]);
                    }
                }
            }
        }
        // Cell (k, t): the lowest winning task fits iff its coalition fits
        // in k (tasks are size-major, so "index < first size-(k+1) task"
        // and "size <= k" coincide).
        for (std::size_t t = 0; t <= t_res; ++t) {
            if (winner[t] == num_tasks) continue;
            breaking_k[t] = tasks->set_size(winner[t]);
            for (std::size_t k = breaking_k[t]; k <= max_k; ++k) {
                out.cells[k * stride + t] = found[winner[t]];
            }
        }
    } else {
        check_resume_position(start_b, 0);
        if (on_column) {
            // max_k == 0: resilience is vacuous, so every immune column is
            // final the moment the immunity phase covers it.
            for (std::size_t t = 0; t <= t_res; ++t) {
                if (!done_before[t]) on_column(t, max_k + 1, nullptr);
            }
        }
    }

    // Checkpoint capture: enough to seek a later run past every verified
    // task and every column whose verdict has already been delivered.
    bool sweep_finished = immunity_done;
    for (std::size_t t = 0; t <= t_res && sweep_finished; ++t) {
        sweep_finished = done_before[t] != 0 || resolved[t] != 0;
    }
    if (checkpoint != nullptr) {
        *checkpoint = SweepCheckpoint{};
        checkpoint->finished = sweep_finished;
        checkpoint->immunity_done = immunity_done;
        checkpoint->immunity_next = immunity_next;
        checkpoint->immunity_ok = immunity_ok;
        if (immunity_done && !sweep_finished) {
            checkpoint->next_task = next_task_out;
            checkpoint->column_done.assign(t_res + 1, 0);
            for (std::size_t t = 0; t <= t_res; ++t) {
                checkpoint->column_done[t] = (done_before[t] != 0 || resolved[t] != 0) ? 1 : 0;
            }
        }
    }

    // Resolution bookkeeping: a fresh untruncated run resolves every cell
    // and keeps `states` in its empty "all resolved" form. A resumed run
    // never does — the columns earlier runs resolved stay kUnknown here
    // (merge_frontier reassembles the full grid).
    bool all_resolved = resume == nullptr && immunity_exact_now;
    for (std::size_t t = 0; t <= t_res && all_resolved; ++t) all_resolved = resolved[t] != 0;
    if (all_resolved) {
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
        if (done_before[t]) continue;  // delivered by an earlier run
        for (std::size_t k = 0; k <= max_k; ++k) {
            if (resolved[t] != 0) {
                out.states[k * stride + t] =
                    k < breaking_k[t] ? CellVerdict::kRobust : CellVerdict::kBroken;
            } else if (k <= verified_k[t]) {
                out.states[k * stride + t] = CellVerdict::kRobust;
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
    // bit-identical to one unbudgeted run (cells_resolved included: the
    // checkpoint carries the cumulative count).
    std::size_t t0 = 0;
    std::size_t k_prev = max_k;
    std::uint64_t col_start = 0;
    if (resume != nullptr && resume->immunity_done) {
        out.immunity_ok = resume->immunity_ok;
        out.immunity_exact = true;
        out.complete = true;
        out.cells_resolved = resume->walk_cells_resolved;
        out.k_of_t = resume->walk_k_of_t;
        t0 = resume->walk_t;
        k_prev = resume->walk_k_prev;
        col_start = resume->next_task;
    } else {
        const ImmunityPhase phase =
            immunity_phase(max_t, mode, resume != nullptr ? resume->immunity_next : 0);
        out.immunity_ok = phase.verdict.max_ok;
        out.immunity_exact = phase.done;
        out.complete = phase.done;
        out.cells_resolved = 1 + (out.immunity_ok < max_t && phase.done ? 1 : 0);
        if (!phase.done && checkpoint != nullptr) {
            // A resumable run truncated mid-immunity reports no columns:
            // the retry re-derives the walk from the exact boundary more
            // cheaply than re-walking a provisional one.
            *checkpoint = SweepCheckpoint{};
            checkpoint->immunity_next = phase.next_task;
            return out;
        }
    }
    out.k_of_t.reserve(out.immunity_ok + 1);

    bool truncated_walk = false;
    std::uint64_t walk_next = 0;
    for (std::size_t t = t0; t <= out.immunity_ok; ++t) {
        // Every coalition of size <= k_prev is clean for faulty sizes
        // < t (that is what k_of_t[t-1] = k_prev certifies), so this
        // step scans ONLY faulty size exactly t — nothing below the
        // current frontier is rescanned. Size-major order makes the first
        // violating task's coalition size s pin kmax(t) = s - 1.
        if (k_prev == 0) {
            out.k_of_t.push_back(0);  // column survives on immunity alone
            col_start = 0;
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
            truncated_walk = true;
            walk_next = run.verified;
            break;
        }
        const std::size_t kt = run.hit ? tasks->set_size(run.hit->first) - 1 : k_prev;
        out.k_of_t.push_back(kt);
        out.cells_resolved += 1 + (run.hit ? 1 : 0);
        k_prev = kt;
    }
    if (checkpoint != nullptr) {
        *checkpoint = SweepCheckpoint{};
        checkpoint->immunity_done = true;
        checkpoint->immunity_ok = out.immunity_ok;
        checkpoint->finished = !truncated_walk;
        if (truncated_walk) {
            checkpoint->walk_t = out.k_of_t.size();
            checkpoint->walk_k_prev = k_prev;
            checkpoint->walk_k_of_t = out.k_of_t;
            checkpoint->walk_cells_resolved = out.cells_resolved;
            checkpoint->next_task = walk_next;
        }
    }
    for (std::size_t t = 0; t < out.k_of_t.size(); ++t) {
        if (t + 1 == out.k_of_t.size() || out.k_of_t[t + 1] < out.k_of_t[t]) {
            out.maximal.emplace_back(out.k_of_t[t], t);
        }
    }
    return out;
}

}  // namespace bnash::core
