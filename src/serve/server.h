// The robustness-query server: admission control, per-request execution
// grants, verdict memoization, graceful degradation, and resumable
// sweeps.
//
// A query asks "is this candidate profile (k,t)-robust in this game?".
// The server answers with a CellVerdict and a status:
//
//   kResolved  — exact verdict (kRobust / kBroken), possibly from cache.
//   kDegraded  — the request's util::ExecutionGrant (work budget and/or
//                deadline, or an explicit cancel through the Submission
//                handle) expired mid-sweep. The verdict is kUnknown —
//                NEVER a guess — and the response carries a RESUME TOKEN:
//                an opaque encoding of the sweep's SweepCheckpoint. A
//                retry presenting the token seeks past every task the
//                expired run (and its predecessors) verified, so N
//                retries cost ~one full sweep total instead of N. A
//                violation FOUND before expiry still resolves kBroken:
//                the sweep kernels only report untruncated-prefix
//                violations, so found witnesses are exact. Note the
//                resume PROGRESS FLOOR (core::SweepCheckpoint): a budget
//                below one task's cost makes no progress — clients
//                should grow a budget that keeps returning the same
//                token, or cap their retries.
//   kRejected  — the bounded queue was full; the response carries a
//                retry_after_ms backoff hint and no work was done
//                (load shedding at admission, not mid-flight). Repeated
//                sheds from one `source` grow the hint exponentially
//                (reset on admit).
//   kError     — the computation threw; `error` holds the message. The
//                cache entry is dropped so a retry recomputes. A resume
//                token minted for a DIFFERENT request (or before
//                invalidate_resume_tokens()) is rejected this way — the
//                server never seeks into the wrong sweep.
//
// Requests are canonicalized (serve/canonical.h) and memoized in a
// sharded VerdictCache with single-flight stampede control: concurrent
// bursts of one (equivalence-classed) query cost one sweep. Followers
// register their OWN grants; when the leader's grant expires the cache
// promotes the longest-deadline live follower, which picks the sweep up
// from the leader's checkpoint instead of the whole burst degrading.
// Only exact verdicts are cached; degraded answers are never served
// from memory.
//
// frontier() runs the full batch grid query synchronously (uncached —
// grids are request-shaped, not cell-shaped), streaming each t-column
// through the optional ColumnSink as it resolves and degrading to a
// resume token exactly like query().
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/robust/robustness.h"
#include "game/game_view.h"
#include "game/normal_form.h"
#include "game/strategy.h"
#include "serve/verdict_cache.h"
#include "util/execution_grant.h"

namespace bnash::serve {

enum class QueryStatus : std::uint8_t {
    kResolved = 0,
    kDegraded,
    kRejected,
    kError,
};

[[nodiscard]] const char* to_string(QueryStatus status) noexcept;
[[nodiscard]] const char* to_string(core::CellVerdict verdict) noexcept;

struct QueryRequest final {
    game::NormalFormGame game{std::vector<std::size_t>{1}};
    game::ExactMixedProfile profile;
    std::size_t k = 1;
    std::size_t t = 0;
    core::GainCriterion criterion = core::GainCriterion::kAnyMemberGains;
    game::SweepMode mode = game::SweepMode::kAuto;
    // Per-request grant limits. kUnlimited budget + no deadline = the
    // request runs to completion (unless cancelled).
    std::uint64_t budget_cells = util::ExecutionGrant::kUnlimited;
    std::optional<std::chrono::nanoseconds> deadline;
    // Resume token from a previous kDegraded response for this EXACT
    // request. Tokens bind to the request bytes and the server's token
    // generation; anything else is answered kError.
    std::string resume_token;
    // Load-shedding identity: consecutive sheds from one source grow the
    // backoff hint exponentially. Empty = one shared anonymous source.
    std::string source;
};

struct QueryResponse final {
    QueryStatus status = QueryStatus::kError;
    core::CellVerdict verdict = core::CellVerdict::kUnknown;
    // True when the verdict came from the memo — either directly (hit)
    // or by waiting on the in-flight leader of a stampede.
    bool cache_hit = false;
    std::uint64_t cells_charged = 0;   // work billed to this request's grant
    std::uint64_t retry_after_ms = 0;  // kRejected backoff hint
    std::string resume_token;          // kDegraded: present on retry to continue
    std::string error;                 // kError only
};

struct FrontierRequest final {
    game::NormalFormGame game{std::vector<std::size_t>{1}};
    game::ExactMixedProfile profile;
    std::size_t max_k = 1;
    std::size_t max_t = 0;
    core::GainCriterion criterion = core::GainCriterion::kAnyMemberGains;
    game::SweepMode mode = game::SweepMode::kAuto;
    std::uint64_t budget_cells = util::ExecutionGrant::kUnlimited;
    std::optional<std::chrono::nanoseconds> deadline;
    std::string resume_token;
};

struct FrontierResponse final {
    QueryStatus status = QueryStatus::kError;
    // The grid THIS run resolved. A resumed run reports only newly
    // resolved cells (earlier-delivered ones stay kUnknown);
    // core::merge_frontier over the retries reassembles the full grid
    // bit-identically to one unbudgeted run.
    core::FrontierVerdict frontier;
    std::uint64_t cells_charged = 0;
    std::uint64_t stream_columns = 0;  // columns emitted through the sink
    std::string resume_token;          // kDegraded: present on retry to continue
    std::string error;                 // kError only
};

// Streamed column: t, the smallest breaking coalition size (0 =
// immunity-broken, max_k + 1 = clean), and the witness when broken.
using ColumnSink = core::FrontierColumnSink;

struct ServerStats final {
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t resolved = 0;
    std::uint64_t degraded = 0;
    std::uint64_t errors = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t cache_evictions = 0;
    std::uint64_t cache_promotions = 0;
    std::uint64_t stampede_waits = 0;
    // Requests whose presented resume token was refused: undecodable,
    // stale, minted for another request, or carrying a checkpoint the
    // sweep rejects (core::InvalidCheckpoint). Each also counts in errors.
    std::uint64_t tokens_rejected = 0;
};

class RobustnessServer final {
public:
    struct Options final {
        std::size_t num_workers = 1;      // queue-draining threads
        std::size_t queue_capacity = 16;  // pending requests before shedding
        std::size_t cache_shards = 16;
        // Memoized-verdict cap across all shards; 0 = unbounded. Bounding
        // trades repeat-query latency for a memory ceiling on long-lived
        // servers (VerdictCache evicts shard-local LRU).
        std::size_t cache_capacity = 0;
        std::uint64_t retry_after_ms = 50;  // base backoff hint when shedding
        // Cap on the exponential shed-backoff doubling (multiplier is
        // 2^min(consecutive_sheds - 1, cap)).
        std::uint64_t retry_backoff_cap = 6;
    };

    RobustnessServer();  // default Options
    explicit RobustnessServer(Options options);
    // Stops the workers; requests still queued are answered kRejected.
    ~RobustnessServer();

    RobustnessServer(const RobustnessServer&) = delete;
    RobustnessServer& operator=(const RobustnessServer&) = delete;

    // Synchronous in-process query: runs on the caller's thread under the
    // request's grant, bypassing the admission queue (never kRejected).
    [[nodiscard]] QueryResponse query(const QueryRequest& request);

    // Admission-controlled path. The returned grant handle is live for
    // the whole request: cancel() it to abandon a queued or mid-sweep
    // request (the response then degrades instead of blocking).
    struct Submission final {
        std::future<QueryResponse> result;
        std::shared_ptr<util::ExecutionGrant> grant;
    };
    [[nodiscard]] Submission submit(QueryRequest request);

    // Synchronous full-grid sweep with optional column streaming; see the
    // file comment. Uncached and queue-bypassing, like query().
    [[nodiscard]] FrontierResponse frontier(const FrontierRequest& request,
                                            const ColumnSink& on_column = nullptr);

    // Bumps the token generation: every resume token minted before this
    // call is rejected (kError) from now on. Pair with cache().clear()
    // when reloading the serving corpus.
    void invalidate_resume_tokens() noexcept {
        token_generation_.fetch_add(1, std::memory_order_relaxed);
    }

    [[nodiscard]] ServerStats stats() const;
    [[nodiscard]] VerdictCache& cache() noexcept { return cache_; }

    // Fault-injection hooks (tests): run on the serving thread, under the
    // request's grant, before the sweep. Exceptions they throw follow the
    // normal error path (kError + cache drop). Not thread-safe against
    // in-flight requests; install before serving. The two-argument form
    // also sees the grant (so a schedule can cancel or starve it).
    void set_fault_hook(std::function<void(const QueryRequest&)> hook);
    void set_fault_hook(std::function<void(const QueryRequest&, util::ExecutionGrant&)> hook);
    void set_frontier_fault_hook(
        std::function<void(const FrontierRequest&, util::ExecutionGrant&)> hook);

private:
    struct Item final {
        QueryRequest request;
        std::promise<QueryResponse> promise;
        std::shared_ptr<util::ExecutionGrant> grant;
    };

    [[nodiscard]] QueryResponse process(const QueryRequest& request,
                                        const std::shared_ptr<util::ExecutionGrant>& grant);
    [[nodiscard]] static std::shared_ptr<util::ExecutionGrant> make_grant(
        std::uint64_t budget_cells, const std::optional<std::chrono::nanoseconds>& deadline);
    void worker_loop();

    // Resume-token codec. Tokens are '.'-joined decimal fields:
    // kind, generation, request hash, then the SweepCheckpoint payload.
    [[nodiscard]] std::string encode_token(char kind, std::uint64_t request_hash,
                                           const core::SweepCheckpoint& checkpoint) const;
    // Strict decode for user-presented tokens: throws core::InvalidCheckpoint
    // on malformed input, wrong kind, stale generation, or a hash that
    // does not match `request_hash`.
    [[nodiscard]] core::SweepCheckpoint decode_token(const std::string& token, char kind,
                                                     std::uint64_t request_hash) const;
    // Lenient decode for cache hand-off: a token minted for a permuted-
    // equivalent request (different exact bytes, same canonical key) is
    // not safe to seek with, so mismatches fall back to a fresh sweep.
    [[nodiscard]] std::optional<core::SweepCheckpoint> try_decode_token(
        const std::string& token, char kind, std::uint64_t request_hash) const;

    [[nodiscard]] std::uint64_t shed_backoff_ms(const std::string& source, std::size_t depth);
    void reset_backoff(const std::string& source);

    Options options_;
    VerdictCache cache_;
    std::function<void(const QueryRequest&, util::ExecutionGrant&)> fault_hook_;
    std::function<void(const FrontierRequest&, util::ExecutionGrant&)> frontier_fault_hook_;

    std::mutex mutex_;
    std::condition_variable queue_ready_;
    std::deque<Item> queue_;
    bool stopping_ = false;
    std::unordered_map<std::string, std::uint64_t> shed_streaks_;
    std::vector<std::jthread> workers_;

    std::atomic<std::uint64_t> token_generation_{0};
    std::atomic<std::uint64_t> accepted_{0};
    std::atomic<std::uint64_t> rejected_{0};
    std::atomic<std::uint64_t> resolved_{0};
    std::atomic<std::uint64_t> degraded_{0};
    std::atomic<std::uint64_t> errors_{0};
    std::atomic<std::uint64_t> stampede_waits_{0};
    std::atomic<std::uint64_t> tokens_rejected_{0};
};

// Exact-request fingerprint (FNV-1a 64 over the request's defining
// bytes). Resume tokens bind to THIS — not to the canonical cache key —
// because checkpoints are task-rank based and two permuted-equivalent
// games give the same ranks different meanings. It reads every payoff, so
// the server computes it only on token paths — decoding a presented
// token, re-checking a checkpoint handed to a promoted follower, minting
// a degraded response's token — and at most once per request; a request
// that never touches a token never pays for it.
[[nodiscard]] std::uint64_t request_fingerprint(const game::NormalFormGame& game,
                                                const game::ExactMixedProfile& profile,
                                                std::size_t k_or_max_k,
                                                std::size_t t_or_max_t,
                                                core::GainCriterion criterion,
                                                game::SweepMode mode);

}  // namespace bnash::serve
