#include "serve/server.h"

#include <array>
#include <bit>
#include <exception>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/robust/sweep_driver.h"
#include "game/symmetry.h"
#include "serve/canonical.h"

namespace bnash::serve {

const char* to_string(QueryStatus status) noexcept {
    switch (status) {
        case QueryStatus::kResolved: return "resolved";
        case QueryStatus::kDegraded: return "degraded";
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

// A 64-bit digest of a stream of words: four independent xxHash64
// lanes (word i goes to lane i mod 4, each a multiply-rotate-multiply
// round), merged and finished with splitmix64's output function. Not a
// MAC: anyone can compute it.
class WordHash final {
public:
    void add(std::uint64_t word) noexcept {
        std::uint64_t& lane = lanes_[words_++ % 4];
        lane = round(lane, word);
    }
    void add(const util::Rational& value) noexcept {
        add(static_cast<std::uint64_t>(value.num()));
        add(static_cast<std::uint64_t>(value.den()));
    }

    // The values two to a word (the first in the low half), a lone last
    // value in a word of its own.
    void add_pairs(std::span<const std::uint32_t> values) noexcept {
        const auto word = [&values](std::size_t i) {
            return std::uint64_t{values[i]} | (std::uint64_t{values[i + 1]} << 32);
        };
        std::size_t i = 0;
        for (; i + 2 <= values.size() && words_ % 4 != 0; i += 2) add(word(i));
        // Then four words at a time into the four lanes, held in registers.
        std::uint64_t a = lanes_[0], b = lanes_[1], c = lanes_[2], d = lanes_[3];
        const std::size_t start = i;
        for (; i + 8 <= values.size(); i += 8) {
            a = round(a, word(i));
            b = round(b, word(i + 2));
            c = round(c, word(i + 4));
            d = round(d, word(i + 6));
        }
        lanes_ = {a, b, c, d};
        words_ += (i - start) / 2;
        for (; i + 2 <= values.size(); i += 2) add(word(i));
        if (i < values.size()) add(std::uint64_t{values[i]});
    }

    [[nodiscard]] std::uint64_t finish() const noexcept {
        std::uint64_t hash = std::rotl(lanes_[0], 1) + std::rotl(lanes_[1], 7) +
                             std::rotl(lanes_[2], 12) + std::rotl(lanes_[3], 18);
        for (const std::uint64_t lane : lanes_) hash = (hash ^ round(0, lane)) * kPrime1 + kPrime4;
        hash += words_;
        hash = (hash ^ (hash >> 30)) * 0xbf58476d1ce4e5b9ULL;
        hash = (hash ^ (hash >> 27)) * 0x94d049bb133111ebULL;
        return hash ^ (hash >> 31);
    }

private:
    static constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
    static constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
    static constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;

    static std::uint64_t round(std::uint64_t lane, std::uint64_t word) noexcept {
        return std::rotl(lane + word * kPrime2, 31) * kPrime1;
    }

    std::array<std::uint64_t, 4> lanes_{kPrime1 + kPrime2, kPrime2, 0, 0 - kPrime1};
    std::uint64_t words_ = 0;
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

// The request's grant. A deadline past the clock's range saturates to
// none: it never expires rather than wrapping into the past.
[[nodiscard]] std::shared_ptr<util::ExecutionGrant> make_grant(
    std::uint64_t budget_cells, const std::optional<std::chrono::nanoseconds>& deadline) {
    using Clock = util::ExecutionGrant::Clock;
    std::optional<Clock::time_point> at;
    if (deadline) {
        const Clock::time_point now = Clock::now();
        if (*deadline < Clock::time_point::max() - now) at = now + *deadline;
    }
    return std::make_shared<util::ExecutionGrant>(budget_cells, at);
}

// Refuses a size (k or t, max_k or max_t) above the player count, in
// every build: the sweep allocates per unit of size before it reads the
// game, so one hostile line could otherwise ask for gigabytes.
void check_sizes(const game::NormalFormGame& game, std::size_t k, std::size_t t) {
    if (k > game.num_players() || t > game.num_players()) {
        throw std::invalid_argument("sizes must not exceed the player count (" +
                                    std::to_string(game.num_players()) + ")");
    }
}

// The symmetry the engine factory gets for a request: the upload's
// detected group (memoized on its store, so the requests on one upload
// detect once), refined by a pure candidate. A mixed candidate, one of the
// wrong width, or an upload with no symmetry gets none and the dense
// engine, which validates the candidate. The game and the candidate fix
// the group, so the request fingerprint, which binds both, also fixes the
// engine a token indexes.
[[nodiscard]] std::optional<game::SymmetryGroup> sweep_symmetry(const SweepRequest& request) {
    if (request.profile.size() != request.game.num_players() ||
        !core::as_pure_profile(request.profile)) {
        return std::nullopt;
    }
    const game::SymmetryGroup detected = game::SymmetryGroup::detect(request.game);
    if (detected.is_trivial()) return std::nullopt;
    return detected.refined_by(request.profile);
}

// True when `error` refuses the resume token a request presented.
[[nodiscard]] bool refuses_token(const std::string& presented, const std::exception& error) {
    return !presented.empty() && dynamic_cast<const core::InvalidCheckpoint*>(&error) != nullptr;
}

}  // namespace

const game::NormalFormGame& placeholder_game() {
    static const game::NormalFormGame placeholder(std::vector<std::size_t>{1});
    return placeholder;
}

std::uint64_t request_fingerprint(const game::NormalFormGame& game,
                                  const game::ExactMixedProfile& profile,
                                  std::size_t k_or_max_k, std::size_t t_or_max_t,
                                  core::GainCriterion criterion, game::SweepMode mode) {
    // Sorted levels plus ranks fix every payoff, so hashing the store's
    // words binds the same inputs as hashing every cell's Rational.
    WordHash hash;
    hash.add(game.num_players());
    for (const std::size_t actions : game.action_counts()) hash.add(actions);
    for (std::size_t player = 0; player < game.num_players(); ++player) {
        const std::vector<util::Rational>& levels = game.levels(player);
        hash.add(levels.size());
        for (const util::Rational& level : levels) hash.add(level);
    }
    hash.add_pairs(game.ordinal_ranks());
    hash.add(profile.size());
    for (const game::ExactMixedStrategy& strategy : profile) {
        hash.add(strategy.size());
        for (const util::Rational& weight : strategy) hash.add(weight);
    }
    hash.add(k_or_max_k);
    hash.add(t_or_max_t);
    hash.add(static_cast<std::uint64_t>(criterion));
    hash.add(static_cast<std::uint64_t>(mode));
    return hash.finish();
}

std::string RobustnessServer::encode_token(char kind, std::uint64_t request_hash,
                                           const core::SweepCheckpoint& checkpoint) const {
    std::string out(1, kind);
    append_field(out, token_generation_.load(std::memory_order_relaxed));
    append_field(out, request_hash);
    append_field(out, checkpoint.immunity_done ? 1 : 0);
    append_field(out, checkpoint.immunity_ok);
    append_field(out, checkpoint.next_task);
    append_field(out, checkpoint.open_columns);
    append_field(out, checkpoint.walk_k_of_t.size());
    for (const std::size_t k : checkpoint.walk_k_of_t) append_field(out, k);
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
    checkpoint.immunity_done = cursor.next() != 0;
    checkpoint.immunity_ok = static_cast<std::size_t>(cursor.next());
    checkpoint.next_task = cursor.next();
    checkpoint.open_columns = static_cast<std::size_t>(cursor.next());
    checkpoint.walk_k_of_t.resize(checked_length(cursor.next()));
    for (std::size_t& k : checkpoint.walk_k_of_t) k = static_cast<std::size_t>(cursor.next());
    if (!cursor.exhausted()) throw core::InvalidCheckpoint("malformed resume token");
    return checkpoint;
}

// One sweep leg of a request, bound to its resume token: the sizes are
// checked and the presented token is decoded strictly on construction
// (a bad size or token is the caller's error, refused before the cache
// sees the request), a token a cache
// leader handed over is re-bound through rebind(), and run() sweeps under
// the grant and the fault hook, then mints the token of an unfinished
// leg. `kind` is 'c' for a cell query, 'f' for a frontier; (k, t) are its
// sizes. The request fingerprint is computed at most once, and only on
// these token paths.
class RobustnessServer::Leg final {
public:
    Leg(RobustnessServer& server, const SweepRequest& request, char kind, std::size_t k,
        std::size_t t)
        : server_(server), request_(request), kind_(kind), k_(k), t_(t) {
        check_sizes(request.game, k, t);
        if (!request.resume_token.empty()) {
            resume_ = server_.decode_token(request.resume_token, kind_, fingerprint());
        }
    }

    // Re-binds `handed`, a token minted for the request that led the
    // cache entry, to THIS request. An equivalent follower (same
    // canonical key, other bytes) gives the same task ranks other
    // meanings, so a token that does not decode for our own fingerprint
    // is dropped and the leg runs fresh. Returns the token this request
    // retries with: `handed` when kept, else one that starts it fresh.
    std::string rebind(std::string handed) {
        try {
            resume_ = server_.decode_token(handed, kind_, fingerprint());
            return handed;
        } catch (const core::InvalidCheckpoint&) {
            resume_.reset();
            return mint(core::SweepCheckpoint{});
        }
    }

    // `sweep(engine, resume, checkpoint)` runs the question under `grant`
    // on a fresh engine from core::make_sweep: the orbit engine for a pure
    // candidate on a symmetric upload, the dense one otherwise. Returns
    // the token to retry with, or "" when the leg finished.
    template <typename Sweep>
    std::string run(util::ExecutionGrant& grant, const Sweep& sweep) {
        core::SweepCheckpoint checkpoint;
        {
            util::GrantScope scope(&grant);
            if (server_.fault_hook_) server_.fault_hook_(grant);
            const std::optional<game::SymmetryGroup> symmetry = sweep_symmetry(request_);
            const std::unique_ptr<core::SweepDriver> engine = core::make_sweep(
                request_.game, request_.profile, symmetry ? &*symmetry : nullptr);
            sweep(*engine, resume_ ? &*resume_ : nullptr, checkpoint);
        }
        return checkpoint.finished ? std::string() : mint(checkpoint);
    }

private:
    std::string mint(const core::SweepCheckpoint& checkpoint) {
        return server_.encode_token(kind_, fingerprint(), checkpoint);
    }

    std::uint64_t fingerprint() {
        if (!fingerprint_) {
            fingerprint_ = request_fingerprint(request_.game, request_.profile, k_, t_,
                                               request_.criterion, request_.mode);
        }
        return *fingerprint_;
    }

    RobustnessServer& server_;
    const SweepRequest& request_;
    char kind_;
    std::size_t k_;
    std::size_t t_;
    std::optional<std::uint64_t> fingerprint_;
    std::optional<core::SweepCheckpoint> resume_;
};

RobustnessServer::RobustnessServer() : RobustnessServer(Options{}) {}

RobustnessServer::RobustnessServer(Options options)
    : cache_(options.cache_shards, options.cache_capacity) {}

template <typename Response>
void RobustnessServer::fail(Response& response, const std::string& presented_token) {
    response.status = QueryStatus::kError;
    response.resume_token.clear();
    try {
        throw;
    } catch (const std::exception& error) {
        if (refuses_token(presented_token, error)) {
            tokens_rejected_.fetch_add(1, std::memory_order_relaxed);
        }
        response.error = error.what();
    } catch (...) {
        response.error = "unknown exception";
    }
    errors_.fetch_add(1, std::memory_order_relaxed);
}

QueryResponse RobustnessServer::query(const QueryRequest& request) {
    accepted_.fetch_add(1, std::memory_order_relaxed);
    const std::shared_ptr<util::ExecutionGrant> grant =
        make_grant(request.budget_cells, request.deadline);
    QueryResponse response;
    std::string key;
    bool leader = false;
    try {
        Leg leg(*this, request, 'c', request.k, request.t);
        key = canonical_key(request.game, request.profile, request.k, request.t,
                            request.criterion);
        VerdictCache::Admission admission = cache_.admit(key, grant);
        leader = admission.role == VerdictCache::Role::kLeader;
        if (admission.role == VerdictCache::Role::kHit) {
            response.status = QueryStatus::kResolved;
            response.verdict = admission.verdict;
            response.cache_hit = true;
            resolved_.fetch_add(1, std::memory_order_relaxed);
            return response;
        }
        if (admission.role == VerdictCache::Role::kFollower) {
            VerdictCache::Resolution handed = admission.pending.get();  // rethrows a failure
            if (!handed.promoted) {
                response.verdict = handed.verdict;
                response.cache_hit = true;
                if (handed.verdict == core::CellVerdict::kUnknown) {
                    response.status = QueryStatus::kDegraded;
                    response.resume_token = leg.rebind(std::move(handed.checkpoint));
                    degraded_.fetch_add(1, std::memory_order_relaxed);
                } else {
                    response.status = QueryStatus::kResolved;
                    resolved_.fetch_add(1, std::memory_order_relaxed);
                }
                response.cells_charged = grant->charged();
                return response;
            }
            // Promoted: this follower now owns the sweep, continuing from
            // the dead leader's checkpoint when it binds to our request.
            leader = true;
            (void)leg.rebind(std::move(handed.checkpoint));
        }
        bool broken = false;
        response.resume_token =
            leg.run(*grant, [&](const core::SweepDriver& sweep,
                                const core::SweepCheckpoint* resume,
                                core::SweepCheckpoint& checkpoint) {
                broken = sweep.robustness_violation(request.k, request.t,
                                                    {request.criterion, request.mode}, resume,
                                                    &checkpoint)
                             .has_value();
            });
        // A found violation is exact even under an expired grant (the
        // kernels report only untruncated-prefix witnesses) and finishes
        // the leg; absence of one proves robustness only when the sweep
        // finished.
        if (!response.resume_token.empty()) {
            response.status = QueryStatus::kDegraded;
            degraded_.fetch_add(1, std::memory_order_relaxed);
            // Hand the token to the longest-deadline live follower
            // instead of degrading the whole burst; that follower's
            // query() continues the sweep (and may hand off again).
            cache_.degrade(key, response.resume_token);
        } else {
            response.verdict = broken ? core::CellVerdict::kBroken : core::CellVerdict::kRobust;
            cache_.fulfill(key, response.verdict);
            response.status = QueryStatus::kResolved;
            resolved_.fetch_add(1, std::memory_order_relaxed);
        }
    } catch (...) {
        if (leader) cache_.fail(key, std::current_exception());
        response.verdict = core::CellVerdict::kUnknown;
        fail(response, request.resume_token);
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
        Leg leg(*this, request, 'f', request.max_k, request.max_t);
        std::uint64_t streamed = 0;
        core::FrontierColumnSink sink;
        if (on_column) {
            sink = [&](std::size_t t, std::size_t breaking_k,
                       const core::RobustnessViolation* witness) {
                ++streamed;
                on_column(t, breaking_k, witness);
            };
        }
        response.resume_token =
            leg.run(*grant, [&](const core::SweepDriver& sweep,
                                const core::SweepCheckpoint* resume,
                                core::SweepCheckpoint& checkpoint) {
                response.frontier = sweep.batch_robustness_frontier(
                    request.max_k, request.max_t, request.criterion, request.mode, resume,
                    &checkpoint, sink);
            });
        response.stream_columns = streamed;
        if (response.resume_token.empty()) {
            response.status = QueryStatus::kResolved;
            resolved_.fetch_add(1, std::memory_order_relaxed);
        } else {
            response.status = QueryStatus::kDegraded;
            degraded_.fetch_add(1, std::memory_order_relaxed);
        }
    } catch (...) {
        fail(response, request.resume_token);
    }
    response.cells_charged = grant->charged();
    return response;
}

ServerStats RobustnessServer::stats() const {
    ServerStats out;
    out.accepted = accepted_.load(std::memory_order_relaxed);
    out.resolved = resolved_.load(std::memory_order_relaxed);
    out.degraded = degraded_.load(std::memory_order_relaxed);
    out.errors = errors_.load(std::memory_order_relaxed);
    out.tokens_rejected = tokens_rejected_.load(std::memory_order_relaxed);
    const VerdictCache::Stats cache = cache_.stats();
    out.cache_hits = cache.hits;
    out.cache_misses = cache.misses;
    out.cache_evictions = cache.evictions;
    out.cache_promotions = cache.promotions;
    out.stampede_waits = cache.waits;
    return out;
}

void RobustnessServer::set_fault_hook(std::function<void(util::ExecutionGrant&)> hook) {
    fault_hook_ = std::move(hook);
}

}  // namespace bnash::serve
