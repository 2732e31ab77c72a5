// Small reusable worker pool for data-parallel sweeps, and the two block
// runners every pooled search and reduction in the library goes through.
//
// The payoff engine (and any future sharded workload) splits large tensor
// sweeps into contiguous blocks and dispatches them here. The pool is
// work-stealing-free by design: blocks are claimed off a single atomic
// counter, which is contention-cheap because blocks are coarse (tens of
// thousands of profiles each). The submitting thread participates in the
// work, so a pool on a single-core machine degrades to a plain loop.
//
// Callers outside src/util do not call run_blocks directly (the project
// linter's pool-loop rule): a first-violation search goes through
// first_hit, an ordered reduction through for_blocks. Both take the
// caller's `pooled` flag (SweepMode::kAuto) and run inline in block
// order when it is false or the pool has a single executor.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

namespace bnash::util {

class ThreadPool final {
public:
    // `num_threads` counts WORKER threads; the caller of run_blocks always
    // participates too, so total parallelism is num_threads + 1.
    explicit ThreadPool(std::size_t num_threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    // Total concurrent executors (workers + the submitting thread).
    [[nodiscard]] std::size_t size() const noexcept { return num_workers_ + 1; }

    // Invokes fn(block) for every block in [0, num_blocks), distributed
    // over the workers and the calling thread; returns when all blocks
    // have completed. fn must not throw across this boundary — wrap block
    // bodies and stash std::exception_ptr if needed. Safe to call from
    // multiple threads AND reentrantly from inside a block body: one job
    // owns the workers at a time; concurrent submitters and nested
    // submissions from the owning thread fall back to running their
    // blocks inline.
    //
    // EXECUTION GRANTS: the submitting thread's util::active_grant() is
    // propagated to every executing thread for the duration of each block
    // (so budget charges land on the right grant), and once the grant
    // expires the remaining blocks are claimed but SKIPPED — the call
    // still returns only after every block completed or was skipped, so
    // no worker is ever leaked and overshoot is bounded by the blocks
    // already in flight (one per executor). Callers observing
    // grant->expired() after the call must treat the job's output as
    // truncated.
    void run_blocks(std::size_t num_blocks, const std::function<void(std::size_t)>& fn);

private:
    void run_blocks_impl(std::size_t num_blocks, const std::function<void(std::size_t)>& fn);

    struct Impl;
    Impl* impl_;
    std::size_t num_workers_;
};

// Process-wide pool sized to the hardware (hardware_concurrency - 1
// workers, capped at 15), overridable with the BNASH_THREADS env var
// (total executors incl. the submitter, clamped to [1, 64]) for container
// deployments. Lazily constructed on first use — BNASH_THREADS is read
// once, at first use.
[[nodiscard]] ThreadPool& global_pool();

// Worker count the global pool would use for the given hardware
// concurrency and BNASH_THREADS value (nullptr/garbage = default policy).
// Exposed for tests; global_pool() feeds it the live env var.
[[nodiscard]] std::size_t pool_workers_for(unsigned hardware_concurrency,
                                           const char* env_threads) noexcept;

// Outcome of a first_hit search.
struct FirstHit final {
    // The lowest hit rank: the one the in-order scan stops at. Absent when
    // no block hit, or when the grant expired before the winner was pinned.
    std::optional<std::uint64_t> rank;
    // Blocks [0, verified) completed untruncated without a hit. With a
    // hit, `verified` is the winning block. Without one, verified <
    // num_blocks means the active grant expired: the blocks from
    // `verified` on are unresolved, not clean.
    std::size_t verified = 0;
};

// scan(block, best) scans one block in rank order and returns the rank of
// its first hit, or nullopt. Block b covers ranks [b * block_ranks,
// (b + 1) * block_ranks) and a hit must lie in its own block. `best` is
// the lowest hit or error rank so far, so a long block may stop once its
// current rank reaches it.
using HitScan = std::function<std::optional<std::uint64_t>(
    std::size_t block, const std::atomic<std::uint64_t>& best)>;

// Lowest-hit search over blocks [0, num_blocks), with the behaviour of
// the in-order loop that stops at the first hit:
//   - block 0 runs inline; when it hits, throws or sees the grant expire,
//     nothing is dispatched. The remaining blocks go to global_pool() when
//     `pooled` and the pool has more than one executor, else run inline;
//   - a block that starts at or above `best` is skipped;
//   - a throwing block lowers `best` to its first rank; when the lowest
//     winner is an error it is rethrown, and errors above it are
//     swallowed, as the serial loop never reaches them;
//   - under an active util::ExecutionGrant a block that finishes after
//     expiry vouches for nothing, and a hit is reported only when every
//     block below it completed untruncated.
// Callers keep per-block result slots indexed by the winning block.
[[nodiscard]] FirstHit first_hit(std::size_t num_blocks, std::uint64_t block_ranks,
                                 bool pooled, const HitScan& scan);

// Runs body(block) for every block in [0, num_blocks): on global_pool()
// when `pooled` and the pool has more than one executor, else inline in
// order. Either way blocks of an expired grant are skipped, and the
// lowest-index exception is rethrown after the call. Meant for ordered
// reductions into per-block slots, which have no early exit: block 0 is
// not run first.
void for_blocks(std::size_t num_blocks, bool pooled,
                const std::function<void(std::size_t)>& body);

}  // namespace bnash::util
