#include "serve/server.h"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <utility>

#include "core/robust/coalition_sweep.h"
#include "serve/canonical.h"

namespace bnash::serve {

const char* to_string(QueryStatus status) noexcept {
    switch (status) {
        case QueryStatus::kResolved: return "resolved";
        case QueryStatus::kDegraded: return "degraded";
        case QueryStatus::kRejected: return "rejected";
        case QueryStatus::kError: return "error";
    }
    return "?";
}

const char* to_string(core::CellVerdict verdict) noexcept {
    switch (verdict) {
        case core::CellVerdict::kRobust: return "robust";
        case core::CellVerdict::kBroken: return "broken";
        case core::CellVerdict::kUnknown: return "unknown";
    }
    return "?";
}

namespace {

struct Fnv64 final {
    std::uint64_t hash = 14695981039346656037ULL;

    void mix(std::uint64_t value) noexcept {
        for (int byte = 0; byte < 8; ++byte) {
            hash ^= (value >> (8 * byte)) & 0xffU;
            hash *= 1099511628211ULL;
        }
    }
    void mix_signed(std::int64_t value) noexcept { mix(static_cast<std::uint64_t>(value)); }
};

void append_field(std::string& out, std::uint64_t value) {
    out.push_back('.');
    out += std::to_string(value);
}

// Cursor over the '.'-joined decimal fields of a resume token. Every
// malformation — junk characters, empty fields, truncation, u64
// overflow — throws the SAME generic error: tokens are opaque and the
// caller only needs "this is not a token the server minted".
class TokenReader final {
public:
    explicit TokenReader(const std::string& text) : text_(text) {}

    [[nodiscard]] std::uint64_t next() {
        if (pos_ >= text_.size()) throw core::InvalidCheckpoint("malformed resume token");
        std::size_t end = text_.find('.', pos_);
        if (end == std::string::npos) end = text_.size();
        if (end == pos_) throw core::InvalidCheckpoint("malformed resume token");
        std::uint64_t value = 0;
        for (std::size_t i = pos_; i < end; ++i) {
            const char c = text_[i];
            if (c < '0' || c > '9') throw core::InvalidCheckpoint("malformed resume token");
            const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
            if (value > (~std::uint64_t{0} - digit) / 10) {
                throw core::InvalidCheckpoint("malformed resume token");
            }
            value = value * 10 + digit;
        }
        pos_ = end + 1;
        return value;
    }

    [[nodiscard]] bool exhausted() const noexcept { return pos_ >= text_.size() + 1; }

private:
    const std::string& text_;
    std::size_t pos_ = 0;
};

// Hostile tokens can claim absurd vector lengths; checkpoints the
// server mints never exceed the grid dimensions, which are far below
// this.
constexpr std::uint64_t kMaxTokenVector = 1ULL << 20;

[[nodiscard]] std::size_t checked_length(std::uint64_t claimed) {
    if (claimed > kMaxTokenVector) throw core::InvalidCheckpoint("malformed resume token");
    return static_cast<std::size_t>(claimed);
}

// True when `error` refuses the resume token a request presented.
[[nodiscard]] bool refuses_token(const std::string& presented, const std::exception& error) {
    return !presented.empty() && dynamic_cast<const core::InvalidCheckpoint*>(&error) != nullptr;
}

}  // namespace

std::uint64_t request_fingerprint(const game::NormalFormGame& game,
                                  const game::ExactMixedProfile& profile,
                                  std::size_t k_or_max_k, std::size_t t_or_max_t,
                                  core::GainCriterion criterion, game::SweepMode mode) {
    Fnv64 fnv;
    fnv.mix(game.num_players());
    for (const std::size_t actions : game.action_counts()) fnv.mix(actions);
    for (const util::Rational& payoff : game.payoffs_flat()) {
        fnv.mix_signed(payoff.num());
        fnv.mix_signed(payoff.den());
    }
    fnv.mix(profile.size());
    for (const game::ExactMixedStrategy& strategy : profile) {
        fnv.mix(strategy.size());
        for (const util::Rational& weight : strategy) {
            fnv.mix_signed(weight.num());
            fnv.mix_signed(weight.den());
        }
    }
    fnv.mix(k_or_max_k);
    fnv.mix(t_or_max_t);
    fnv.mix(static_cast<std::uint64_t>(criterion));
    fnv.mix(static_cast<std::uint64_t>(mode));
    return fnv.hash;
}

std::string RobustnessServer::encode_token(char kind, std::uint64_t request_hash,
                                           const core::SweepCheckpoint& checkpoint) const {
    std::string out(1, kind);
    append_field(out, token_generation_.load(std::memory_order_relaxed));
    append_field(out, request_hash);
    append_field(out, checkpoint.finished ? 1 : 0);
    append_field(out, checkpoint.immunity_done ? 1 : 0);
    append_field(out, checkpoint.immunity_next);
    append_field(out, checkpoint.immunity_ok);
    append_field(out, checkpoint.next_task);
    append_field(out, checkpoint.column_done.size());
    for (const std::uint8_t done : checkpoint.column_done) append_field(out, done ? 1 : 0);
    append_field(out, checkpoint.walk_t);
    append_field(out, checkpoint.walk_k_prev);
    append_field(out, checkpoint.walk_k_of_t.size());
    for (const std::size_t k : checkpoint.walk_k_of_t) append_field(out, k);
    append_field(out, checkpoint.walk_cells_resolved);
    return out;
}

core::SweepCheckpoint RobustnessServer::decode_token(const std::string& token, char kind,
                                                     std::uint64_t request_hash) const {
    if (token.size() < 2 || token[0] != kind || token[1] != '.') {
        throw core::InvalidCheckpoint("malformed resume token");
    }
    const std::string fields = token.substr(2);
    TokenReader cursor(fields);
    const std::uint64_t generation = cursor.next();
    if (generation != token_generation_.load(std::memory_order_relaxed)) {
        throw core::InvalidCheckpoint("resume token: stale generation");
    }
    if (cursor.next() != request_hash) {
        throw core::InvalidCheckpoint("resume token does not match request");
    }
    core::SweepCheckpoint checkpoint;
    checkpoint.finished = cursor.next() != 0;
    checkpoint.immunity_done = cursor.next() != 0;
    checkpoint.immunity_next = cursor.next();
    checkpoint.immunity_ok = static_cast<std::size_t>(cursor.next());
    checkpoint.next_task = cursor.next();
    checkpoint.column_done.resize(checked_length(cursor.next()));
    for (std::uint8_t& done : checkpoint.column_done) {
        done = cursor.next() != 0 ? std::uint8_t{1} : std::uint8_t{0};
    }
    checkpoint.walk_t = static_cast<std::size_t>(cursor.next());
    checkpoint.walk_k_prev = static_cast<std::size_t>(cursor.next());
    checkpoint.walk_k_of_t.resize(checked_length(cursor.next()));
    for (std::size_t& k : checkpoint.walk_k_of_t) k = static_cast<std::size_t>(cursor.next());
    checkpoint.walk_cells_resolved = cursor.next();
    if (!cursor.exhausted()) throw core::InvalidCheckpoint("malformed resume token");
    return checkpoint;
}

std::optional<core::SweepCheckpoint> RobustnessServer::try_decode_token(
    const std::string& token, char kind, std::uint64_t request_hash) const {
    try {
        return decode_token(token, kind, request_hash);
    } catch (const std::invalid_argument&) {
        return std::nullopt;
    }
}

RobustnessServer::RobustnessServer() : RobustnessServer(Options{}) {}

RobustnessServer::RobustnessServer(Options options)
    : options_(options), cache_(options.cache_shards, options.cache_capacity) {
    const std::size_t num_workers = options_.num_workers == 0 ? 1 : options_.num_workers;
    workers_.reserve(num_workers);
    for (std::size_t i = 0; i < num_workers; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

RobustnessServer::~RobustnessServer() {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    queue_ready_.notify_all();
    workers_.clear();  // jthread joins; in-flight requests finish normally
    // Whatever was still queued is answered, not dropped: a rejected
    // response keeps every Submission future valid through shutdown.
    for (Item& item : queue_) {
        QueryResponse shed;
        shed.status = QueryStatus::kRejected;
        shed.retry_after_ms = options_.retry_after_ms;
        rejected_.fetch_add(1, std::memory_order_relaxed);
        item.promise.set_value(std::move(shed));
    }
    queue_.clear();
}

std::shared_ptr<util::ExecutionGrant> RobustnessServer::make_grant(
    std::uint64_t budget_cells, const std::optional<std::chrono::nanoseconds>& deadline) {
    std::optional<util::ExecutionGrant::Clock::time_point> at;
    if (deadline) at = util::ExecutionGrant::Clock::now() + *deadline;
    return std::make_shared<util::ExecutionGrant>(budget_cells, at);
}

QueryResponse RobustnessServer::query(const QueryRequest& request) {
    accepted_.fetch_add(1, std::memory_order_relaxed);
    const std::shared_ptr<util::ExecutionGrant> grant =
        make_grant(request.budget_cells, request.deadline);
    return process(request, grant);
}

std::uint64_t RobustnessServer::shed_backoff_ms(const std::string& source, std::size_t depth) {
    // Caller holds mutex_. Consecutive sheds from one source double the
    // hint (capped); the first shed is the plain backlog-proportional
    // base.
    const std::uint64_t streak = ++shed_streaks_[source];
    const std::uint64_t shift = std::min<std::uint64_t>(streak - 1, options_.retry_backoff_cap);
    return (options_.retry_after_ms * (depth + 1)) << shift;
}

void RobustnessServer::reset_backoff(const std::string& source) {
    // Caller holds mutex_.
    shed_streaks_.erase(source);
}

RobustnessServer::Submission RobustnessServer::submit(QueryRequest request) {
    Submission out;
    out.grant = make_grant(request.budget_cells, request.deadline);
    std::promise<QueryResponse> promise;
    out.result = promise.get_future();
    std::size_t depth = 0;
    bool shed = false;
    std::uint64_t retry_hint = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        depth = queue_.size();
        if (stopping_ || depth >= options_.queue_capacity) {
            shed = true;
            retry_hint = shed_backoff_ms(request.source, depth);
        } else {
            reset_backoff(request.source);
            queue_.push_back(Item{std::move(request), std::move(promise), out.grant});
            accepted_.fetch_add(1, std::memory_order_relaxed);
        }
    }
    if (shed) {
        QueryResponse response;
        response.status = QueryStatus::kRejected;
        response.retry_after_ms = retry_hint;
        rejected_.fetch_add(1, std::memory_order_relaxed);
        promise.set_value(std::move(response));
        return out;
    }
    queue_ready_.notify_one();
    return out;
}

void RobustnessServer::worker_loop() {
    while (true) {
        Item item;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            queue_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
            if (stopping_) return;  // leftovers are rejected by the destructor
            item = std::move(queue_.front());
            queue_.pop_front();
        }
        item.promise.set_value(process(item.request, item.grant));
    }
}

QueryResponse RobustnessServer::process(const QueryRequest& request,
                                        const std::shared_ptr<util::ExecutionGrant>& grant) {
    QueryResponse response;
    std::string key;
    bool leader = false;
    try {
        // Only token paths need the fingerprint (see request_fingerprint).
        std::optional<std::uint64_t> memo_fingerprint;
        const auto fingerprint = [&] {
            if (!memo_fingerprint) {
                memo_fingerprint = request_fingerprint(request.game, request.profile, request.k,
                                                       request.t, request.criterion,
                                                       request.mode);
            }
            return *memo_fingerprint;
        };
        // A user-presented token is validated STRICTLY before the cache
        // sees the request: a bad token is the caller's error and must
        // not leave a leader obligation behind.
        std::optional<core::SweepCheckpoint> resume;
        if (!request.resume_token.empty()) {
            resume = decode_token(request.resume_token, 'c', fingerprint());
        }
        key = canonical_key(request.game, request.profile, request.k, request.t,
                            request.criterion);
        VerdictCache::Admission admission = cache_.admit(key, grant);
        if (admission.role == VerdictCache::Role::kHit) {
            response.status = QueryStatus::kResolved;
            response.verdict = admission.verdict;
            response.cache_hit = true;
            resolved_.fetch_add(1, std::memory_order_relaxed);
            return response;
        }
        if (admission.role == VerdictCache::Role::kFollower) {
            stampede_waits_.fetch_add(1, std::memory_order_relaxed);
            VerdictCache::Resolution handed = admission.pending.get();  // rethrows a failure
            if (!handed.promoted) {
                response.verdict = handed.verdict;
                response.cache_hit = true;
                if (handed.verdict == core::CellVerdict::kUnknown) {
                    response.status = QueryStatus::kDegraded;
                    response.resume_token = handed.checkpoint;
                    degraded_.fetch_add(1, std::memory_order_relaxed);
                } else {
                    response.status = QueryStatus::kResolved;
                    resolved_.fetch_add(1, std::memory_order_relaxed);
                }
                response.cells_charged = grant->charged();
                return response;
            }
            // Promoted: this follower now owns the sweep. The handed
            // checkpoint binds to the dead leader's exact request bytes;
            // ours may be a permuted equivalent (same canonical key), in
            // which case its task ranks mean something else entirely and
            // the only sound move is a fresh sweep.
            leader = true;
            if (!handed.checkpoint.empty()) {
                if (std::optional<core::SweepCheckpoint> inherited =
                        try_decode_token(handed.checkpoint, 'c', fingerprint())) {
                    resume = std::move(inherited);
                }
            }
        } else {
            leader = true;
        }
        core::CellVerdict verdict;
        core::SweepCheckpoint checkpoint;
        {
            util::GrantScope scope(grant.get());
            if (fault_hook_) fault_hook_(request, *grant);
            const core::CoalitionSweep sweep(request.game, request.profile);
            const std::optional<core::RobustnessViolation> violation =
                sweep.robustness_violation(request.k, request.t,
                                           {request.criterion, request.mode},
                                           resume ? &*resume : nullptr, &checkpoint);
            // A found violation is exact even under an expired grant (the
            // kernels report only untruncated-prefix witnesses); absence
            // of one proves robustness only when the sweep finished.
            if (violation) {
                verdict = core::CellVerdict::kBroken;
            } else {
                verdict = checkpoint.finished ? core::CellVerdict::kRobust
                                              : core::CellVerdict::kUnknown;
            }
        }
        response.verdict = verdict;
        if (verdict == core::CellVerdict::kUnknown) {
            response.status = QueryStatus::kDegraded;
            response.resume_token = encode_token('c', fingerprint(), checkpoint);
            degraded_.fetch_add(1, std::memory_order_relaxed);
            // Hand the checkpoint to the longest-deadline live follower
            // instead of degrading the whole burst; that follower's
            // process() continues the sweep (and may hand off again).
            cache_.degrade(key, response.resume_token);
        } else {
            cache_.fulfill(key, verdict);
            response.status = QueryStatus::kResolved;
            resolved_.fetch_add(1, std::memory_order_relaxed);
        }
    } catch (const std::exception& error) {
        if (refuses_token(request.resume_token, error)) {
            tokens_rejected_.fetch_add(1, std::memory_order_relaxed);
        }
        if (leader) cache_.fail(key, std::current_exception());
        response.status = QueryStatus::kError;
        response.verdict = core::CellVerdict::kUnknown;
        response.resume_token.clear();
        response.error = error.what();
        errors_.fetch_add(1, std::memory_order_relaxed);
    } catch (...) {
        if (leader) cache_.fail(key, std::current_exception());
        response.status = QueryStatus::kError;
        response.verdict = core::CellVerdict::kUnknown;
        response.resume_token.clear();
        response.error = "unknown exception";
        errors_.fetch_add(1, std::memory_order_relaxed);
    }
    response.cells_charged = grant->charged();
    return response;
}

FrontierResponse RobustnessServer::frontier(const FrontierRequest& request,
                                            const ColumnSink& on_column) {
    accepted_.fetch_add(1, std::memory_order_relaxed);
    FrontierResponse response;
    const std::shared_ptr<util::ExecutionGrant> grant =
        make_grant(request.budget_cells, request.deadline);
    try {
        // Only token paths need the fingerprint (see request_fingerprint).
        std::optional<std::uint64_t> memo_fingerprint;
        const auto fingerprint = [&] {
            if (!memo_fingerprint) {
                memo_fingerprint = request_fingerprint(request.game, request.profile,
                                                       request.max_k, request.max_t,
                                                       request.criterion, request.mode);
            }
            return *memo_fingerprint;
        };
        std::optional<core::SweepCheckpoint> resume;
        if (!request.resume_token.empty()) {
            resume = decode_token(request.resume_token, 'f', fingerprint());
        }
        std::uint64_t streamed = 0;
        core::FrontierColumnSink sink;
        if (on_column) {
            sink = [&](std::size_t t, std::size_t breaking_k,
                       const core::RobustnessViolation* witness) {
                ++streamed;
                on_column(t, breaking_k, witness);
            };
        }
        core::SweepCheckpoint checkpoint;
        {
            util::GrantScope scope(grant.get());
            if (frontier_fault_hook_) frontier_fault_hook_(request, *grant);
            const core::CoalitionSweep sweep(request.game, request.profile);
            response.frontier = sweep.batch_robustness_frontier(
                request.max_k, request.max_t, request.criterion, request.mode,
                resume ? &*resume : nullptr, &checkpoint, sink);
        }
        response.stream_columns = streamed;
        if (checkpoint.finished) {
            response.status = QueryStatus::kResolved;
            resolved_.fetch_add(1, std::memory_order_relaxed);
        } else {
            response.status = QueryStatus::kDegraded;
            response.resume_token = encode_token('f', fingerprint(), checkpoint);
            degraded_.fetch_add(1, std::memory_order_relaxed);
        }
    } catch (const std::exception& error) {
        if (refuses_token(request.resume_token, error)) {
            tokens_rejected_.fetch_add(1, std::memory_order_relaxed);
        }
        response.status = QueryStatus::kError;
        response.resume_token.clear();
        response.error = error.what();
        errors_.fetch_add(1, std::memory_order_relaxed);
    } catch (...) {
        response.status = QueryStatus::kError;
        response.resume_token.clear();
        response.error = "unknown exception";
        errors_.fetch_add(1, std::memory_order_relaxed);
    }
    response.cells_charged = grant->charged();
    return response;
}

ServerStats RobustnessServer::stats() const {
    ServerStats out;
    out.accepted = accepted_.load(std::memory_order_relaxed);
    out.rejected = rejected_.load(std::memory_order_relaxed);
    out.resolved = resolved_.load(std::memory_order_relaxed);
    out.degraded = degraded_.load(std::memory_order_relaxed);
    out.errors = errors_.load(std::memory_order_relaxed);
    out.stampede_waits = stampede_waits_.load(std::memory_order_relaxed);
    out.tokens_rejected = tokens_rejected_.load(std::memory_order_relaxed);
    const VerdictCache::Stats cache = cache_.stats();
    out.cache_hits = cache.hits;
    out.cache_misses = cache.misses;
    out.cache_evictions = cache.evictions;
    out.cache_promotions = cache.promotions;
    return out;
}

void RobustnessServer::set_fault_hook(std::function<void(const QueryRequest&)> hook) {
    if (!hook) {
        fault_hook_ = nullptr;
        return;
    }
    fault_hook_ = [wrapped = std::move(hook)](const QueryRequest& request,
                                              util::ExecutionGrant&) { wrapped(request); };
}

void RobustnessServer::set_fault_hook(
    std::function<void(const QueryRequest&, util::ExecutionGrant&)> hook) {
    fault_hook_ = std::move(hook);
}

void RobustnessServer::set_frontier_fault_hook(
    std::function<void(const FrontierRequest&, util::ExecutionGrant&)> hook) {
    frontier_fault_hook_ = std::move(hook);
}

}  // namespace bnash::serve
