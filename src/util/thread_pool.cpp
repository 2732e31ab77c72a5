#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>

#include "util/execution_grant.h"

namespace bnash::util {

struct ThreadPool::Impl {
    std::mutex submit_mutex;  // held by the job that owns the workers
    // Thread currently holding submit_mutex. Checked BEFORE try_lock in
    // run_blocks: try_lock on a non-recursive mutex the caller already
    // owns is undefined behavior, and a block body may legitimately
    // re-enter run_blocks (e.g. a coalition task evaluating an exact
    // expected payoff whose sweep is itself blocked).
    std::atomic<std::thread::id> submit_owner{};
    std::mutex mutex;
    std::condition_variable work_ready;
    std::condition_variable work_done;
    // Job state, published under `mutex` before claim_word advances to the
    // new generation.
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t num_blocks = 0;
    std::atomic<std::size_t> completed{0};
    std::uint64_t generation = 0;
    bool stopping = false;
    // (generation << 32) | next_block. Claims go through a CAS that checks
    // the generation first, so a straggler from a finished job can never
    // consume or corrupt a block of the next one.
    std::atomic<std::uint64_t> claim_word{0};
    std::vector<std::jthread> workers;

    static constexpr std::uint64_t kGenShift = 32;
    static constexpr std::uint64_t kBlockMask = (std::uint64_t{1} << kGenShift) - 1;

    // Claims and runs blocks of job `my_gen`. The job's fn/num_blocks are
    // taken as arguments (captured while synchronized with the publisher)
    // so this never reads shared job state that a later job may overwrite.
    void drain(std::uint64_t my_gen, const std::function<void(std::size_t)>& job_fn,
               std::size_t job_blocks) {
        // claim_word carries the generation truncated to 32 bits; compare
        // in the truncated domain so the protocol survives wrap-around.
        const std::uint64_t my_tag = my_gen & kBlockMask;
        while (true) {
            std::uint64_t word = claim_word.load(std::memory_order_acquire);
            std::size_t block;
            while (true) {
                if ((word >> kGenShift) != my_tag) return;  // job superseded
                block = static_cast<std::size_t>(word & kBlockMask);
                if (block >= job_blocks) return;  // job exhausted
                if (claim_word.compare_exchange_weak(word, word + 1,
                                                     std::memory_order_acq_rel,
                                                     std::memory_order_acquire)) {
                    break;
                }
            }
            job_fn(block);
            if (completed.fetch_add(1, std::memory_order_acq_rel) + 1 == job_blocks) {
                std::lock_guard<std::mutex> lock(mutex);
                work_done.notify_all();
            }
        }
    }

    void worker_loop() {
        std::uint64_t seen = 0;
        while (true) {
            const std::function<void(std::size_t)>* job_fn = nullptr;
            std::size_t job_blocks = 0;
            {
                std::unique_lock<std::mutex> lock(mutex);
                work_ready.wait(lock, [&] { return stopping || generation != seen; });
                if (stopping) return;
                seen = generation;
                job_fn = fn;
                job_blocks = num_blocks;
            }
            if (job_fn != nullptr) drain(seen, *job_fn, job_blocks);
        }
    }
};

ThreadPool::ThreadPool(std::size_t num_threads)
    : impl_(new Impl), num_workers_(num_threads) {
    impl_->workers.reserve(num_threads);
    for (std::size_t i = 0; i < num_threads; ++i) {
        impl_->workers.emplace_back([this] { impl_->worker_loop(); });
    }
}

ThreadPool::~ThreadPool() {
    {
        std::lock_guard<std::mutex> lock(impl_->mutex);
        impl_->stopping = true;
    }
    impl_->work_ready.notify_all();
    impl_->workers.clear();  // jthread joins on destruction
    delete impl_;
}

void ThreadPool::run_blocks(std::size_t num_blocks,
                            const std::function<void(std::size_t)>& fn) {
    ExecutionGrant* const grant = active_grant();
    if (grant == nullptr) {
        run_blocks_impl(num_blocks, fn);
        return;
    }
    // Grant-gated job: blocks of an expired grant are claimed (so the
    // completion protocol is untouched) but skipped, and every executing
    // thread — worker or inline fallback — charges the submitter's grant
    // through its own GrantScope.
    const std::function<void(std::size_t)> gated = [grant, &fn](std::size_t block) {
        if (grant->expired()) return;
        GrantScope scope(grant);
        fn(block);
    };
    run_blocks_impl(num_blocks, gated);
}

void ThreadPool::run_blocks_impl(std::size_t num_blocks,
                                 const std::function<void(std::size_t)>& fn) {
    if (num_blocks == 0) return;
    if (num_workers_ == 0 || num_blocks == 1) {
        for (std::size_t block = 0; block < num_blocks; ++block) fn(block);
        return;
    }
    // One job owns the pool at a time. A nested submission from the
    // owning thread itself (a block body re-entering run_blocks) and a
    // second concurrent submitter both run their blocks inline instead of
    // waiting: callers reach this through const game queries and must
    // never observe lost blocks, deadlock on their own job, or block on
    // an unrelated sweep. Inline execution uses the same decomposition,
    // so results are identical.
    if (impl_->submit_owner.load(std::memory_order_relaxed) ==
        std::this_thread::get_id()) {
        for (std::size_t block = 0; block < num_blocks; ++block) fn(block);
        return;
    }
    std::unique_lock<std::mutex> submission(impl_->submit_mutex, std::try_to_lock);
    if (!submission.owns_lock()) {
        for (std::size_t block = 0; block < num_blocks; ++block) fn(block);
        return;
    }
    impl_->submit_owner.store(std::this_thread::get_id(), std::memory_order_relaxed);
    std::uint64_t my_gen;
    {
        std::lock_guard<std::mutex> lock(impl_->mutex);
        impl_->fn = &fn;
        impl_->num_blocks = num_blocks;
        impl_->completed.store(0, std::memory_order_relaxed);
        impl_->generation += 1;
        my_gen = impl_->generation;
        impl_->claim_word.store((my_gen & Impl::kBlockMask) << Impl::kGenShift,
                                std::memory_order_release);
    }
    impl_->work_ready.notify_all();
    impl_->drain(my_gen, fn, num_blocks);  // the submitter works too
    std::unique_lock<std::mutex> lock(impl_->mutex);
    impl_->work_done.wait(lock, [&] {
        return impl_->completed.load(std::memory_order_acquire) == num_blocks;
    });
    impl_->fn = nullptr;
    impl_->submit_owner.store(std::thread::id{}, std::memory_order_relaxed);
}

std::size_t pool_workers_for(unsigned hardware_concurrency,
                             const char* env_threads) noexcept {
    if (env_threads != nullptr && *env_threads != '\0') {
        char* end = nullptr;
        const long long requested = std::strtoll(env_threads, &end, 10);
        // Whole-string numeric values only; anything else falls through
        // to the hardware default rather than silently misconfiguring.
        if (end != nullptr && *end == '\0' && requested > 0) {
            const long long executors = std::min<long long>(requested, 64);
            return static_cast<std::size_t>(executors - 1);  // submitter participates
        }
    }
    const std::size_t cores = hardware_concurrency == 0 ? 1 : hardware_concurrency;
    return std::min<std::size_t>(cores - 1, 15);
}

ThreadPool& global_pool() {
    static ThreadPool pool(pool_workers_for(std::thread::hardware_concurrency(),
                                            std::getenv("BNASH_THREADS")));
    return pool;
}

FirstHit first_hit(std::size_t num_blocks, std::uint64_t block_ranks, bool pooled,
                   const HitScan& scan) {
    constexpr std::uint64_t kNone = std::numeric_limits<std::uint64_t>::max();
    ExecutionGrant* const grant = active_grant();
    std::atomic<std::uint64_t> best{kNone};
    // In order: block 0 always, every block when not dispatching.
    const std::size_t inline_blocks =
        pooled && global_pool().size() > 1 ? std::min<std::size_t>(num_blocks, 1) : num_blocks;
    for (std::size_t block = 0; block < inline_blocks; ++block) {
        if (grant != nullptr && grant->expired()) return {std::nullopt, block};
        std::optional<std::uint64_t> hit = scan(block, best);
        if (grant != nullptr && grant->expired()) return {std::nullopt, block};
        if (hit) return {hit, block};
    }
    if (inline_blocks == num_blocks) return {std::nullopt, num_blocks};
    const auto lower_best = [&](std::uint64_t rank) {
        std::uint64_t current = best.load(std::memory_order_acquire);
        while (rank < current &&
               !best.compare_exchange_weak(current, rank, std::memory_order_acq_rel)) {
        }
    };
    // Per block: 0 = never ran or finished after the grant expired, 1 =
    // completed (an error counts: it surfaces below), 2 = skipped above
    // the winner. Each slot is written by the one thread that claimed the
    // block and read after the pool's completion barrier.
    std::vector<unsigned char> state(num_blocks, 0);
    std::vector<std::exception_ptr> errors(num_blocks);
    state[0] = 1;
    global_pool().run_blocks(num_blocks - 1, [&](std::size_t offset) {
        const std::size_t block = offset + 1;
        const std::uint64_t first = block * block_ranks;
        if (first >= best.load(std::memory_order_acquire)) {
            state[block] = 2;
            return;
        }
        try {
            const std::optional<std::uint64_t> hit = scan(block, best);
            if (grant != nullptr && grant->expired()) return;  // truncated: untrusted
            state[block] = 1;
            if (hit) lower_best(*hit);
        } catch (...) {
            errors[block] = std::current_exception();
            state[block] = 1;
            lower_best(first);
        }
    });
    // Skips only happen above the final winner, so the leading run of
    // nonzero states is exactly the untruncated prefix.
    std::size_t verified = 0;
    while (verified < num_blocks && state[verified] != 0) ++verified;
    const std::uint64_t winner = best.load(std::memory_order_acquire);
    if (winner == kNone) return {std::nullopt, verified};
    const auto block = static_cast<std::size_t>(winner / block_ranks);
    // A truncated block below the winner may hide a lower one.
    if (verified < block) return {std::nullopt, verified};
    if (errors[block]) std::rethrow_exception(errors[block]);
    return {winner, block};
}

void for_blocks(std::size_t num_blocks, bool pooled,
                const std::function<void(std::size_t)>& body) {
    if (pooled && global_pool().size() > 1 && num_blocks > 1) {
        std::vector<std::exception_ptr> errors(num_blocks);
        global_pool().run_blocks(num_blocks, [&](std::size_t block) {
            try {
                body(block);
            } catch (...) {
                errors[block] = std::current_exception();
            }
        });
        for (const auto& error : errors) {
            if (error) std::rethrow_exception(error);
        }
        return;
    }
    // The same one-block gate the pool applies.
    ExecutionGrant* const grant = active_grant();
    for (std::size_t block = 0; block < num_blocks; ++block) {
        if (grant != nullptr && grant->expired()) return;
        body(block);
    }
}

}  // namespace bnash::util
