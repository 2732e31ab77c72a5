#include "traffic.h"

#include <algorithm>
#include <array>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>

#include "game/catalog.h"
#include "util/execution_grant.h"
#include "util/rational.h"
#include "util/rng.h"

namespace servebench {

using bnash::core::CellVerdict;
using bnash::game::ExactMixedProfile;
using bnash::game::NormalFormGame;
using bnash::game::PureProfile;
using bnash::util::Rational;
using bnash::util::Rng;

namespace {

// Stream tags keep the per-request generators of different streams apart.
constexpr std::uint64_t kHotTag = 0x486f74;
constexpr std::uint64_t kColdTag = 0x436f6c64;
constexpr std::uint64_t kFrontierTag = 0x46726f6e;
constexpr std::uint64_t kDisguiseTag = 0x44697367;
// The hot corpus and every warm-up are the same for all seeds.
constexpr std::uint64_t kCorpusSeed = 0x5eed0c0de;
constexpr std::uint64_t kWarmupSeed = 0x3a3a3a3a;

[[nodiscard]] std::uint64_t splitmix(std::uint64_t x) noexcept {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

[[nodiscard]] std::uint64_t mix(std::uint64_t seed, std::uint64_t tag, std::uint64_t index) {
    return splitmix(splitmix(splitmix(seed) ^ tag) ^ index);
}

template <typename Fn>
void parallel_for(std::size_t count, std::size_t threads, const Fn& fn) {
    threads = std::max<std::size_t>(1, std::min(threads, count));
    if (threads == 1) {
        for (std::size_t i = 0; i < count; ++i) fn(i);
        return;
    }
    std::vector<std::jthread> workers;
    workers.reserve(threads);
    for (std::size_t w = 0; w < threads; ++w) {
        workers.emplace_back([&fn, w, threads, count] {
            for (std::size_t i = w; i < count; i += threads) fn(i);
        });
    }
}

[[nodiscard]] std::vector<std::size_t> safe_pure(const NormalFormGame& game, Rng& rng) {
    std::vector<std::size_t> actions(game.num_players());
    for (std::size_t p = 0; p < actions.size(); ++p) {
        actions[p] = static_cast<std::size_t>(rng.next_below(game.num_actions(p) - 1));
    }
    return actions;
}

// A candidate over each player's safe actions; `mixed` players (those with
// at least two safe actions, first come first served) mix over actions 0
// and 1 with a seeded rational weight.
[[nodiscard]] ExactMixedProfile safe_candidate(const NormalFormGame& game, std::size_t mixed,
                                               Rng& rng) {
    static const std::array<Rational, 5> kWeights = {Rational(1, 2), Rational(1, 3),
                                                     Rational(2, 3), Rational(1, 4),
                                                     Rational(3, 4)};
    ExactMixedProfile profile =
        bnash::core::as_exact_profile(game, PureProfile(safe_pure(game, rng)));
    for (std::size_t p = 0; p < game.num_players() && mixed > 0; ++p) {
        if (game.num_actions(p) < 3) continue;
        const Rational w = kWeights[rng.next_below(kWeights.size())];
        profile[p].assign(game.num_actions(p), Rational(0));
        profile[p][0] = w;
        profile[p][1] = Rational(1) - w;
        --mixed;
    }
    return profile;
}

// A 3-action symmetric game lifted from a 2-action catalog game: actions 0
// and 1 are safe (constant V), action 2 plays the catalog's `deviate`
// action against everyone else's `stay`, paid relative to the all-`stay`
// catalog payoff, minus 1/2. A player's lifted deviation payoff exceeds V
// exactly when deviating gains in the catalog game.
[[nodiscard]] NormalFormGame lift_catalog(const NormalFormGame& base, std::size_t stay,
                                          std::size_t deviate) {
    const std::size_t n = base.num_players();
    NormalFormGame game(std::vector<std::size_t>(n, 3));
    const Rational safe(10);
    const PureProfile all_stay(n, stay);
    PureProfile projected(n, stay);
    for (std::uint64_t rank = 0; rank < game.num_profiles(); ++rank) {
        const PureProfile profile = game.profile_unrank(rank);
        for (std::size_t p = 0; p < n; ++p) projected[p] = profile[p] == 2 ? deviate : stay;
        for (std::size_t p = 0; p < n; ++p) {
            if (profile[p] < 2) {
                game.set_payoff(profile, p, safe);
            } else {
                game.set_payoff(profile, p,
                                safe + base.payoff(projected, p) - base.payoff(all_stay, p) -
                                    Rational(1, 2));
            }
        }
    }
    return game;
}

[[nodiscard]] Grid direct_grid(const Request& request) {
    const bnash::core::RobustnessOptions serial{bnash::core::GainCriterion::kAnyMemberGains,
                                                bnash::game::SweepMode::kSerial};
    const NormalFormGame& game = request.game->game;
    const ExactMixedProfile& profile = request.candidate->profile;
    if (!request.frontier) {
        return ask_grid(bnash::core::find_robustness_violation(game, profile, request.k,
                                                               request.t, serial)
                            ? CellVerdict::kBroken
                            : CellVerdict::kRobust);
    }
    const bnash::core::FrontierVerdict frontier =
        bnash::core::batch_robustness_frontier(game, profile, request.k, request.t, serial);
    Grid grid;
    for (std::size_t k = 0; k <= request.k; ++k) {
        for (std::size_t t = 0; t <= request.t; ++t) grid.push_back(frontier.verdict(k, t));
    }
    return grid;
}

[[nodiscard]] GameUpload render_game(NormalFormGame game) {
    GameUpload upload{std::move(game), {}};
    std::string header = "game " + std::to_string(upload.game.num_players());
    for (const std::size_t c : upload.game.action_counts()) (header += ' ') += std::to_string(c);
    std::string payoffs = "payoffs";
    for (const Rational& value : upload.game.payoffs_flat()) (payoffs += ' ') += value.to_string();
    upload.lines = {std::move(header), std::move(payoffs)};
    return upload;
}

[[nodiscard]] CandidateUpload render_candidate(ExactMixedProfile profile) {
    CandidateUpload upload{std::move(profile), {}};
    std::string pure = "profile";
    std::vector<std::string> mixed;
    for (std::size_t p = 0; p < upload.profile.size(); ++p) {
        const auto& strategy = upload.profile[p];
        const auto one = std::find(strategy.begin(), strategy.end(), Rational(1));
        if (one != strategy.end()) {
            (pure += ' ') += std::to_string(one - strategy.begin());
            continue;
        }
        pure += " 0";
        std::string line = "mixed " + std::to_string(p);
        for (const Rational& w : strategy) (line += ' ') += w.to_string();
        mixed.push_back(std::move(line));
    }
    upload.lines.push_back(std::move(pure));
    upload.lines.insert(upload.lines.end(), mixed.begin(), mixed.end());
    return upload;
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
    if (name == "hot_repeat") return Workload::kHotRepeat;
    if (name == "cold_ask") return Workload::kColdAsk;
    if (name == "frontier_session") return Workload::kFrontierSession;
    return std::nullopt;
}

const char* workload_name(Workload workload) noexcept {
    switch (workload) {
        case Workload::kHotRepeat: return "hot_repeat";
        case Workload::kColdAsk: return "cold_ask";
        case Workload::kFrontierSession: return "frontier_session";
    }
    return "?";
}

std::string Request::query_line(std::uint64_t leg_budget) const {
    std::string line = frontier ? "frontier " : "ask ";
    (line += std::to_string(k)) += ' ';
    line += std::to_string(t);
    if (leg_budget > 0) (line += ' ') += std::to_string(leg_budget);
    return line;
}

std::vector<std::string> Request::lines() const {
    std::vector<std::string> out;
    if (send_game) out = game->lines;
    out.insert(out.end(), candidate->lines.begin(), candidate->lines.end());
    out.push_back(query_line(budget));
    return out;
}

Grid ask_grid(CellVerdict verdict) { return Grid{verdict}; }

Grid frontier_grid(std::size_t max_k, std::size_t max_t,
                   const std::vector<std::optional<std::size_t>>& breaking_k) {
    Grid grid;
    for (std::size_t k = 0; k <= max_k; ++k) {
        for (std::size_t t = 0; t <= max_t; ++t) {
            if (t >= breaking_k.size() || !breaking_k[t]) {
                grid.push_back(CellVerdict::kUnknown);
            } else {
                grid.push_back(k >= *breaking_k[t] ? CellVerdict::kBroken
                                                   : CellVerdict::kRobust);
            }
        }
    }
    return grid;
}

bool verdict_ok(const Request& request, const Grid& observed) {
    return !request.planted.empty() && observed == request.planted &&
           observed == request.direct;
}

void check_directly(Request& request) {
    bnash::util::ExecutionGrant grant;
    {
        bnash::util::GrantScope scope(&grant);
        request.direct = direct_grid(request);
    }
    request.direct_cells = grant.charged();
}

NormalFormGame planted_game(const std::vector<std::size_t>& counts, std::size_t planted_k0,
                            std::uint64_t seed) {
    const std::size_t n = counts.size();
    if (planted_k0 > n) throw std::invalid_argument("planted_game: k0 exceeds player count");
    for (const std::size_t c : counts) {
        if (c < 2) throw std::invalid_argument("planted_game: every player needs 2+ actions");
    }
    Rng rng(seed);
    NormalFormGame game(counts);
    std::vector<std::int64_t> safe(n);
    for (std::int64_t& v : safe) v = rng.next_int(4, 12);
    std::vector<bool> planted(n, false);
    std::size_t gainer = 0;
    std::int64_t bump = 0;
    if (planted_k0 > 0) {
        std::vector<std::size_t> players(n);
        std::iota(players.begin(), players.end(), std::size_t{0});
        rng.shuffle(players);
        for (std::size_t i = 0; i < planted_k0; ++i) planted[players[i]] = true;
        gainer = players[rng.next_below(planted_k0)];
        bump = rng.next_int(1, 3);
    }
    for (std::uint64_t rank = 0; rank < game.num_profiles(); ++rank) {
        const PureProfile profile = game.profile_unrank(rank);
        bool planted_cell = planted_k0 > 0;
        for (std::size_t p = 0; p < n && planted_cell; ++p) {
            const bool last = profile[p] + 1 == counts[p];
            planted_cell = planted[p] == last;
        }
        for (std::size_t p = 0; p < n; ++p) {
            std::int64_t value = safe[p];
            if (profile[p] + 1 == counts[p]) value -= rng.next_int(1, 6);
            if (planted_cell && p == gainer) value = safe[p] + bump;
            game.set_payoff(profile, p, Rational(value));
        }
    }
    return game;
}

Grid planted_grid(std::size_t planted_k0, std::size_t k, std::size_t t, bool frontier) {
    const auto cell = [planted_k0](std::size_t kk, std::size_t tt) {
        return planted_k0 > 0 && kk >= 1 && kk + tt >= planted_k0 ? CellVerdict::kBroken
                                                                  : CellVerdict::kRobust;
    };
    if (!frontier) return ask_grid(cell(k, t));
    Grid grid;
    for (std::size_t kk = 0; kk <= k; ++kk) {
        for (std::size_t tt = 0; tt <= t; ++tt) grid.push_back(cell(kk, tt));
    }
    return grid;
}

std::pair<GameUpload, CandidateUpload> disguise(const NormalFormGame& game,
                                                const ExactMixedProfile& profile,
                                                std::uint64_t seed) {
    static const std::array<Rational, 8> kScales = {
        Rational(1),    Rational(2),    Rational(3),    Rational(1, 2),
        Rational(3, 2), Rational(2, 3), Rational(5, 2), Rational(4, 3)};
    Rng rng(seed);
    const std::size_t n = game.num_players();
    std::vector<std::size_t> to(n);  // old player p becomes player to[p]
    std::iota(to.begin(), to.end(), std::size_t{0});
    rng.shuffle(to);
    std::vector<Rational> scale(n);
    std::vector<Rational> shift(n);
    std::vector<std::size_t> counts(n);
    ExactMixedProfile relabeled(n);
    for (std::size_t p = 0; p < n; ++p) {
        scale[p] = kScales[rng.next_below(kScales.size())];
        shift[p] = Rational(rng.next_int(-6, 6));
        counts[to[p]] = game.num_actions(p);
        relabeled[to[p]] = profile[p];
    }
    NormalFormGame out(counts);
    PureProfile moved(n);
    for (std::uint64_t rank = 0; rank < game.num_profiles(); ++rank) {
        const PureProfile original = game.profile_unrank(rank);
        for (std::size_t p = 0; p < n; ++p) moved[to[p]] = original[p];
        for (std::size_t p = 0; p < n; ++p) {
            out.set_payoff(moved, to[p], scale[p] * game.payoff(original, p) + shift[p]);
        }
    }
    return {render_game(std::move(out)), render_candidate(std::move(relabeled))};
}

Traffic::Traffic(Workload workload, std::uint64_t seed, std::size_t threads)
    : workload_(workload), seed_(seed) {
    if (workload_ != Workload::kHotRepeat) return;
    namespace catalog = bnash::game::catalog;
    struct Base final {
        NormalFormGame game;
        PureProfile pure;
        std::size_t k;
        std::size_t t;
        bool uniform = false;  // candidate: everyone mixes uniformly
    };
    std::vector<Base> bases = {
        {catalog::prisoners_dilemma(), {0, 0}, 1, 0},
        {catalog::prisoners_dilemma(), {1, 1}, 1, 0},
        {catalog::prisoners_dilemma(), {1, 1}, 2, 0},
        {catalog::stag_hunt(), {0, 0}, 1, 0},
        {catalog::stag_hunt(), {0, 0}, 2, 1},
        {catalog::chicken(), {0, 1}, 1, 0},
        {catalog::battle_of_the_sexes(), {0, 0}, 1, 0},
        {catalog::coordination(1, 2), {1, 1}, 2, 0},
        {catalog::matching_pennies(), {0, 0}, 1, 0, true},
        {catalog::roshambo(), {0, 0}, 1, 0, true},
        {catalog::roshambo(), {0, 0}, 1, 1, true},
        {catalog::attack_coordination_game(3), PureProfile(3, 0), 1, 0},
        {catalog::attack_coordination_game(4), PureProfile(4, 0), 2, 0},
        {catalog::attack_coordination_game(5), PureProfile(5, 0), 2, 1},
        {catalog::bargaining_game(3), PureProfile(3, 0), 2, 0},
        {catalog::bargaining_game(4), PureProfile(4, 0), 1, 1},
        {catalog::bargaining_game(5), PureProfile(5, 0), 2, 0},
        {catalog::gnutella_sharing_game(3), PureProfile(3, 1), 1, 0},
        {catalog::gnutella_sharing_game(4, 1, 3, 4), PureProfile(4, 1), 2, 1},
        {catalog::gnutella_sharing_game(5, 1, 3, 4), PureProfile(5, 1), 2, 0},
    };
    std::vector<Request> entries;
    for (Base& base : bases) {
        ExactMixedProfile profile = bnash::core::as_exact_profile(base.game, base.pure);
        if (base.uniform) {
            for (auto& strategy : profile) {
                const auto actions = static_cast<std::int64_t>(strategy.size());
                strategy.assign(strategy.size(), Rational(1, actions));
            }
        }
        Request& entry = entries.emplace_back();
        entry.game = std::make_shared<const GameUpload>(render_game(std::move(base.game)));
        entry.candidate =
            std::make_shared<const CandidateUpload>(render_candidate(std::move(profile)));
        entry.k = base.k;
        entry.t = base.t;
        check_directly(entry);
        entry.planted = entry.direct;  // catalog verdicts are not planted
    }
    Rng corpus(kCorpusSeed);
    while (entries.size() < kHotCorpus) {
        const std::size_t actions = 2 + corpus.next_below(2);
        const std::size_t players = 2 + corpus.next_below(actions == 3 ? 4 : 5);
        const std::size_t k0 = corpus.next_below(std::min<std::size_t>(players, 3) + 1);
        const std::size_t k = 1 + corpus.next_below(2);
        const std::size_t t = corpus.next_below(2);
        NormalFormGame game =
            planted_game(std::vector<std::size_t>(players, actions), k0, corpus.next_u64());
        const std::size_t mixed = actions == 3 && corpus.next_below(6) == 0 ? 1 : 0;
        ExactMixedProfile profile = safe_candidate(game, mixed, corpus);
        Request& entry = entries.emplace_back();
        entry.game = std::make_shared<const GameUpload>(render_game(std::move(game)));
        entry.candidate =
            std::make_shared<const CandidateUpload>(render_candidate(std::move(profile)));
        entry.k = k;
        entry.t = t;
        entry.planted = planted_grid(k0, k, t, false);
        check_directly(entry);
    }
    // Popularity is a fixed shuffle of the corpus, Zipf-weighted by rank.
    corpus.shuffle(entries);
    hot_corpus_ = std::move(entries);
    for (std::size_t rank = 0; rank < hot_corpus_.size(); ++rank) {
        hot_corpus_[rank].upload_id = rank;
        hot_weights_.push_back(1.0 / static_cast<double>(rank + 1));
    }
    hot_pool_.assign(hot_corpus_.size(), std::vector<Request>(kHotDisguises));
    parallel_for(hot_corpus_.size() * kHotDisguises, threads, [&](std::size_t i) {
        const std::size_t e = i / kHotDisguises;
        const Request& entry = hot_corpus_[e];
        auto [game, candidate] = disguise(entry.game->game, entry.candidate->profile,
                                          mix(seed_, kDisguiseTag, i));
        Request& request = hot_pool_[e][i % kHotDisguises];
        request.game = std::make_shared<const GameUpload>(std::move(game));
        request.candidate = std::make_shared<const CandidateUpload>(std::move(candidate));
        request.k = entry.k;
        request.t = entry.t;
        request.upload_id = i;
        request.planted = entry.planted;
        check_directly(request);
    });
}

Request Traffic::hot_request(std::size_t index) const {
    Rng rng(mix(seed_, kHotTag, index));
    const std::size_t entry = rng.next_weighted(hot_weights_);
    return hot_pool_[entry][rng.next_below(kHotDisguises)];
}

Request Traffic::cold_request(std::size_t index) const {
    // Fixed strata by index keep the traffic mix exact in every cycle of
    // kColdCycle requests: 2/3 six-player games, k = 2 and 3 alike, 1/8
    // mixed candidates, 1/4 budget chains (see batch), and a plant cycle
    // under which about 70% of the asks are robust (full sweeps) and the
    // rest break at varying depths.
    static constexpr std::array<std::size_t, 10> kPlants = {0, 0, 0, 4, 3, 0, 2, 0, 5, 4};
    Rng rng(mix(seed_, kColdTag, index));
    const std::size_t players = index % 3 == 0 ? 5 : 6;
    const std::size_t k0 = kPlants[index % kPlants.size()];
    Request request;
    request.k = 2 + (index / 3) % 2;
    request.t = 1;
    NormalFormGame game =
        planted_game(std::vector<std::size_t>(players, 3), k0, rng.next_u64());
    ExactMixedProfile profile =
        safe_candidate(game, index % 8 == 6 ? 1 + rng.next_below(2) : 0, rng);
    request.game = std::make_shared<const GameUpload>(render_game(std::move(game)));
    request.candidate =
        std::make_shared<const CandidateUpload>(render_candidate(std::move(profile)));
    request.upload_id = index;
    request.planted = planted_grid(k0, request.k, request.t, false);
    return request;
}

std::vector<Request> Traffic::frontier_game(std::size_t group) const {
    // Two of every three games are planted random 6-player games; the
    // third is a symmetric 7-player game lifted from the catalog (attack
    // breaks at coalition size 2, bargaining and gnutella-with-kick are
    // robust). The plant cycle leaves about 3/4 of the random games'
    // frontiers clean or deep, so the median lies well inside that mode.
    static constexpr std::array<std::size_t, 4> kPlants = {0, 5, 3, 0};
    Rng rng(mix(seed_, kFrontierTag, group));
    const std::size_t players = group % 3 == 2 ? 7 : 6;
    std::size_t k0 = 0;
    NormalFormGame game(std::vector<std::size_t>{1});
    if (group % 3 == 2) {
        namespace catalog = bnash::game::catalog;
        switch ((group / 3) % 3) {
            case 0:
                game = lift_catalog(catalog::attack_coordination_game(players), 0, 1);
                k0 = 2;
                break;
            case 1: game = lift_catalog(catalog::bargaining_game(players), 0, 1); break;
            default:
                game = lift_catalog(catalog::gnutella_sharing_game(players, 1, 3, 4), 1, 0);
                break;
        }
    } else {
        k0 = kPlants[(group / 3) % kPlants.size()];
        game = planted_game(std::vector<std::size_t>(players, 3), k0, rng.next_u64());
    }
    const auto shared = std::make_shared<const GameUpload>(render_game(std::move(game)));
    std::vector<Request> requests(kFrontiersPerGame);
    for (std::size_t i = 0; i < kFrontiersPerGame; ++i) {
        Request& request = requests[i];
        request.game = shared;
        request.send_game = i == 0;
        request.frontier = true;
        request.k = 5;
        request.t = 2;
        request.upload_id = group;
        request.candidate = std::make_shared<const CandidateUpload>(
            render_candidate(safe_candidate(shared->game, 0, rng)));
        request.planted = planted_grid(k0, request.k, request.t, true);
    }
    return requests;
}

std::vector<Request> Traffic::batch(std::size_t first, std::size_t count,
                                    std::size_t threads) const {
    std::vector<Request> requests(count);
    if (workload_ == Workload::kHotRepeat) {
        // Pool entries were direct-checked once at construction.
        for (std::size_t i = 0; i < count; ++i) requests[i] = hot_request(first + i);
        return requests;
    }
    if (workload_ == Workload::kColdAsk) {
        parallel_for(count, threads, [&](std::size_t i) {
            Request& request = requests[i] = cold_request(first + i);
            check_directly(request);
            // A quarter of the asks carry a budget of a third of their
            // serial sweep, so the client replays resume tokens.
            if ((first + i) % 4 == 1) request.budget = std::max<std::uint64_t>(1, request.direct_cells / 3);
        });
        return requests;
    }
    if (first % kFrontiersPerGame != 0 || count % kFrontiersPerGame != 0) {
        throw std::invalid_argument("frontier batches must hold whole games");
    }
    const std::size_t games = count / kFrontiersPerGame;
    parallel_for(games, threads, [&](std::size_t g) {
        std::vector<Request> group = frontier_game(first / kFrontiersPerGame + g);
        for (std::size_t i = 0; i < group.size(); ++i) {
            requests[g * kFrontiersPerGame + i] = std::move(group[i]);
        }
    });
    parallel_for(count, threads, [&](std::size_t i) { check_directly(requests[i]); });
    return requests;
}

std::vector<Request> Traffic::warmup(std::size_t threads) const {
    if (workload_ == Workload::kHotRepeat) return hot_corpus_;
    return Traffic(workload_, kWarmupSeed, threads).batch(0, 8, threads);
}

std::uint64_t stream_hash(const std::vector<Request>& requests) {
    std::uint64_t hash = 14695981039346656037ULL;
    const auto feed = [&hash](std::string_view bytes) {
        for (const char c : bytes) {
            hash ^= static_cast<unsigned char>(c);
            hash *= 1099511628211ULL;
        }
    };
    for (const Request& request : requests) {
        for (const std::string& line : request.lines()) {
            feed(line);
            feed("\n");
        }
    }
    return hash;
}

}  // namespace servebench
