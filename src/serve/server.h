// The robustness-query server: per-request execution grants, verdict
// memoization, graceful degradation, and resumable sweeps. It owns no
// thread: every query runs on its caller's thread, and concurrent
// callers (the socket front's per-connection threads) meet in the
// verdict cache.
//
// A query asks "is this candidate profile (k,t)-robust in this game?".
// The server answers with a CellVerdict and a status:
//
//   kResolved  — exact verdict (kRobust / kBroken), possibly from cache.
//   kDegraded  — the request's util::ExecutionGrant (work budget and/or
//                deadline, or a cancel through the fault hook's grant)
//                expired mid-sweep. The verdict is kUnknown —
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
//   kError     — the computation threw; `error` holds the message. The
//                cache entry is dropped so a retry recomputes. A resume
//                token minted for a DIFFERENT request (or before
//                invalidate_resume_tokens()) is rejected this way — the
//                server never seeks into the wrong sweep.
//                So is a size above the game's player count (k or t;
//                max_k or max_t), before any key or sweep work: it
//                charges 0 cells and memoizes nothing.
//
// Requests are canonicalized (serve/canonical.h) and memoized in a
// sharded VerdictCache with single-flight stampede control: concurrent
// bursts of one (equivalence-classed) query cost one sweep. Followers
// register their OWN grants; when the leader's grant expires the cache
// promotes the longest-deadline live follower, which picks the sweep up
// from the leader's checkpoint instead of the whole burst degrading.
// Only exact verdicts are cached; degraded answers are never served
// from memory. A follower may be a disguised equivalent of the leader
// (same canonical key, other bytes), so a token handed over by the cache
// is re-bound to the follower's own request: kept when it decodes for
// that request, else replaced by a fresh sweep (promoted) or by a token
// for one (degraded).
//
// Every leg sweeps on the engine core::make_sweep picks: the orbit
// engine (core/robust/orbit_sweep.h) for a pure candidate on an upload
// whose detected symmetry group, refined by the candidate, is
// non-trivial; the dense CoalitionSweep otherwise. The bound game and
// profile fix that choice, and a resume token binds both through its
// fingerprint, so a token always seeks the task space of the engine that
// minted it. Detection runs once per uploaded payoff store, whose copies
// share the answer (NormalFormGame::detected_symmetry).
//
// frontier() runs the full batch grid query (uncached — grids are
// request-shaped, not cell-shaped), streaming each t-column through the
// optional ColumnSink as it resolves and degrading to a resume token
// exactly like query(): both run one token-bound leg.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>

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
    kError,
};

[[nodiscard]] const char* to_string(QueryStatus status) noexcept;
[[nodiscard]] const char* to_string(core::CellVerdict verdict) noexcept;

// The game a request holds until the caller assigns one: a one-cell
// game built once per process, whose store every such request shares.
[[nodiscard]] const game::NormalFormGame& placeholder_game();

// What a cell query and a frontier query share: the game, the candidate,
// how to sweep, the grant limits, and the token to resume from. Copying
// a game into a request shares its payoff store.
struct SweepRequest {
    game::NormalFormGame game = placeholder_game();
    game::ExactMixedProfile profile;
    core::GainCriterion criterion = core::GainCriterion::kAnyMemberGains;
    game::SweepMode mode = game::SweepMode::kAuto;
    // Per-request grant limits. kUnlimited budget + no deadline = the
    // request runs to completion (unless cancelled). A deadline too far
    // out for the clock to represent is the same as no deadline.
    std::uint64_t budget_cells = util::ExecutionGrant::kUnlimited;
    std::optional<std::chrono::nanoseconds> deadline;
    // Resume token from a previous kDegraded response for this EXACT
    // request. Tokens bind to the request bytes and the server's token
    // generation; anything else is answered kError.
    std::string resume_token;
};

struct QueryRequest final : SweepRequest {
    std::size_t k = 1;
    std::size_t t = 0;
};

struct QueryResponse final {
    QueryStatus status = QueryStatus::kError;
    core::CellVerdict verdict = core::CellVerdict::kUnknown;
    // True when the verdict came from the memo — either directly (hit)
    // or by waiting on the in-flight leader of a stampede.
    bool cache_hit = false;
    std::uint64_t cells_charged = 0;  // work billed to this request's grant
    std::string resume_token;         // kDegraded: present on retry to continue
    std::string error;                // kError only
};

struct FrontierRequest final : SweepRequest {
    std::size_t max_k = 1;
    std::size_t max_t = 0;
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
    std::uint64_t resolved = 0;
    std::uint64_t degraded = 0;
    std::uint64_t errors = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t cache_evictions = 0;
    std::uint64_t cache_promotions = 0;
    std::uint64_t stampede_waits = 0;  // admissions that waited on a leader
    // Requests whose presented resume token was refused: undecodable,
    // stale, minted for another request, or carrying a checkpoint the
    // sweep rejects (core::InvalidCheckpoint). Each also counts in errors.
    std::uint64_t tokens_rejected = 0;
};

class RobustnessServer final {
public:
    struct Options final {
        std::size_t cache_shards = 16;
        // Memoized-verdict cap across all shards; 0 = unbounded. Bounding
        // trades repeat-query latency for a memory ceiling on long-lived
        // servers (VerdictCache evicts shard-local LRU).
        std::size_t cache_capacity = 0;
    };

    RobustnessServer();  // default Options
    explicit RobustnessServer(Options options);

    RobustnessServer(const RobustnessServer&) = delete;
    RobustnessServer& operator=(const RobustnessServer&) = delete;

    // Answers one cell query on the caller's thread under the request's
    // grant. Safe to call from many threads at once.
    [[nodiscard]] QueryResponse query(const QueryRequest& request);

    // Full-grid sweep with optional column streaming, on the caller's
    // thread; see the file comment. Uncached.
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

    // Fault-injection hook (tests): runs on the calling thread, under the
    // request's grant, before every sweep leg — query() leaders and
    // frontier() calls alike, in arrival order. Exceptions it
    // throws follow the normal error path (kError + cache drop). Not
    // thread-safe against in-flight requests; install before serving. The
    // hook sees the grant (so a schedule can cancel or starve it).
    void set_fault_hook(std::function<void(util::ExecutionGrant&)> hook);

private:
    // One token-bound sweep leg of a request, shared by query() and
    // frontier(); see server.cpp.
    class Leg;

    // The error path of query() and frontier(), run inside their
    // catch (...): marks `response` kError with the in-flight exception's
    // message, drops its resume token and counts the error (and a refused
    // `presented_token`).
    template <typename Response>
    void fail(Response& response, const std::string& presented_token);

    // Resume-token codec. Tokens are '.'-joined decimal fields: kind,
    // generation, request hash, then the SweepCheckpoint payload a retry
    // reads (every minted token is unfinished, so `finished` is left out
    // and decodes as false).
    [[nodiscard]] std::string encode_token(char kind, std::uint64_t request_hash,
                                           const core::SweepCheckpoint& checkpoint) const;
    // Strict decode: throws core::InvalidCheckpoint on malformed input,
    // wrong kind, stale generation, or a hash that does not match
    // `request_hash`.
    [[nodiscard]] core::SweepCheckpoint decode_token(const std::string& token, char kind,
                                                     std::uint64_t request_hash) const;

    VerdictCache cache_;
    std::function<void(util::ExecutionGrant&)> fault_hook_;

    std::atomic<std::uint64_t> token_generation_{0};
    std::atomic<std::uint64_t> accepted_{0};
    std::atomic<std::uint64_t> resolved_{0};
    std::atomic<std::uint64_t> degraded_{0};
    std::atomic<std::uint64_t> errors_{0};
    std::atomic<std::uint64_t> tokens_rejected_{0};
};

// Exact-request fingerprint. Resume tokens bind to THIS — not to the
// canonical cache key — because checkpoints are task-rank based and two
// permuted-equivalent games give the same ranks different meanings. It
// binds the action counts, every exact payoff, the candidate profile's
// exact weights, both sizes, the criterion and the mode: it hashes the
// store's words (each player's sorted levels as (num, den), then the
// ordinal ranks two to a 64-bit word), and sorted levels plus ranks fix
// every payoff. The hash is four xxHash64 lanes with a splitmix64 finish,
// public and unkeyed: it tells a token minted for another request from
// one minted for this one, but it is NOT a MAC, and a client can mint a
// well-formed token for its own request. The server computes it only on
// token paths — decoding a presented token, re-binding a token a cache
// leader handed to a follower, minting a degraded response's token — and
// at most once per request; a request that never touches a token never
// pays for it.
[[nodiscard]] std::uint64_t request_fingerprint(const game::NormalFormGame& game,
                                                const game::ExactMixedProfile& profile,
                                                std::size_t k_or_max_k,
                                                std::size_t t_or_max_t,
                                                core::GainCriterion criterion,
                                                game::SweepMode mode);

}  // namespace bnash::serve
