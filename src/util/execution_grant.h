// Cooperative execution grants: deadline + work budget + cancel flag.
//
// The sweep kernels are batch-shaped — once a CoalitionSweep or a payoff
// sweep starts, it runs to completion. A grant bounds that: the serving
// layer (or any caller) activates a grant around a query, and every
// kernel consults it at BLOCK granularity — pool blocks, intra-split
// ranged blocks, and fixed-size checkpoints inside long serial scans —
// so a cancelled or exhausted sweep returns within one block of work and
// never costs per-cell checks. Budgets are charged in bulk at the
// existing util::work_counters bulk-add points (work_counters_add charges
// the active grant), so budget accounting rides the counters CI already
// gates and adds no new per-cell work.
//
// Expiry is MONOTONE: cancel() latches, a passed deadline stays passed,
// and charges only accumulate. Kernels exploit this for soundness: a
// result computed by a call that returns with the grant unexpired was
// provably never truncated, while any truncation leaves expired() true
// for the caller to observe. Partial-result consumers (the robustness
// frontier, max_kt, the serve layer) therefore mark exactly the work
// finished before expiry as resolved and everything else as unknown.
//
// Activation is scoped and thread-local: GrantScope installs a grant for
// the current thread, and ThreadPool::run_blocks propagates the
// submitter's active grant to the workers draining its blocks — so one
// request's budget is charged from every thread sweeping for it, while
// concurrent requests with their own grants never cross-charge.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>

namespace bnash::util {

enum class GrantState : std::uint8_t {
    kLive = 0,
    kCancelled,
    kDeadlineExpired,
    kBudgetExhausted,
};

// Long serial scans poll their grant every this many cells, flushing
// their pending counter chunk first so the budget sees the work already
// done. Overshoot past a budget, deadline or cancel is therefore bounded
// by one chunk per executing scan, matching the pool's one-block bound.
inline constexpr std::uint64_t kGrantCheckCells = 2048;

class ExecutionGrant final {
public:
    using Clock = std::chrono::steady_clock;
    static constexpr std::uint64_t kUnlimited = ~std::uint64_t{0};

    // Unlimited by default: no budget, no deadline, expires only via
    // cancel(). Both limits are optional and independent.
    ExecutionGrant() = default;
    explicit ExecutionGrant(std::uint64_t budget_cells,
                            std::optional<Clock::time_point> deadline = std::nullopt)
        : budget_(budget_cells), deadline_(deadline) {}

    [[nodiscard]] static ExecutionGrant with_budget(std::uint64_t cells) {
        return ExecutionGrant(cells);
    }
    [[nodiscard]] static ExecutionGrant with_deadline(std::chrono::nanoseconds from_now) {
        return ExecutionGrant(kUnlimited, Clock::now() + from_now);
    }

    // Cooperative cancellation; safe from any thread, monotone.
    void cancel() noexcept { cancelled_.store(true, std::memory_order_release); }

    // Bulk work charge (relaxed add; called at block/task granularity by
    // work_counters_add — kernels do not call this per cell).
    void charge(std::uint64_t cells) noexcept {
        charged_.fetch_add(cells, std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t charged() const noexcept {
        return charged_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t budget() const noexcept {
        return budget_.load(std::memory_order_relaxed);
    }

    // Monotone budget tightening (CAS-min; a looser value never replaces
    // a tighter one). The fault-injection harness uses this to force a
    // grant into exhaustion at a chosen point; safe from any thread.
    void restrict_budget(std::uint64_t cells) noexcept {
        std::uint64_t current = budget_.load(std::memory_order_relaxed);
        while (cells < current &&
               !budget_.compare_exchange_weak(current, cells, std::memory_order_relaxed)) {
        }
    }

    // The deadline this grant carries, if any. The VerdictCache promotion
    // path compares follower deadlines through this accessor.
    [[nodiscard]] std::optional<Clock::time_point> deadline() const noexcept {
        return deadline_;
    }

    // First expiry reason wins and is latched, so the reported state is
    // stable even when e.g. the deadline also passes after a cancel. The
    // deadline comparison runs only when a deadline was set.
    [[nodiscard]] GrantState state() const noexcept {
        const auto latched = static_cast<GrantState>(latched_.load(std::memory_order_acquire));
        if (latched != GrantState::kLive) return latched;
        if (cancelled_.load(std::memory_order_acquire)) return latch(GrantState::kCancelled);
        if (charged_.load(std::memory_order_relaxed) >= budget_.load(std::memory_order_relaxed)) {
            return latch(GrantState::kBudgetExhausted);
        }
        if (deadline_ && Clock::now() >= *deadline_) {
            return latch(GrantState::kDeadlineExpired);
        }
        return GrantState::kLive;
    }
    [[nodiscard]] bool expired() const noexcept { return state() != GrantState::kLive; }

    ExecutionGrant(const ExecutionGrant&) = delete;
    ExecutionGrant& operator=(const ExecutionGrant&) = delete;

private:
    GrantState latch(GrantState reason) const noexcept {
        std::uint8_t expected = 0;
        latched_.compare_exchange_strong(expected, static_cast<std::uint8_t>(reason),
                                         std::memory_order_acq_rel);
        return static_cast<GrantState>(latched_.load(std::memory_order_acquire));
    }

    std::atomic<std::uint64_t> budget_{kUnlimited};
    std::optional<Clock::time_point> deadline_;
    std::atomic<std::uint64_t> charged_{0};
    std::atomic<bool> cancelled_{false};
    mutable std::atomic<std::uint8_t> latched_{0};
};

// The grant charged and checked by the sweep kernels on THIS thread
// (nullptr when none is active — the default, zero-overhead path).
[[nodiscard]] ExecutionGrant* active_grant() noexcept;

// RAII activation for the current thread. Nests: the previous grant is
// restored on destruction. ThreadPool::run_blocks wraps worker block
// bodies in a scope carrying the submitter's grant.
class GrantScope final {
public:
    explicit GrantScope(ExecutionGrant* grant) noexcept;
    ~GrantScope();
    GrantScope(const GrantScope&) = delete;
    GrantScope& operator=(const GrantScope&) = delete;

private:
    ExecutionGrant* previous_;
};

[[nodiscard]] const char* to_string(GrantState state) noexcept;

}  // namespace bnash::util
