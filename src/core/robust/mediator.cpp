#include "core/robust/mediator.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>

#include "util/combinatorics.h"
#include "util/execution_grant.h"
#include "util/offset_walker.h"
#include "util/thread_pool.h"
#include "util/work_counters.h"

namespace bnash::core {

using game::BayesianGame;
using game::PureProfile;
using game::TypeProfile;
using util::Rational;

MediatorPolicy::MediatorPolicy(const BayesianGame& game)
    : game_(&game), num_action_profiles_(util::product_size(game.action_counts())) {
    table_.assign(util::product_size(game.type_counts()),
                  std::vector<Rational>(num_action_profiles_, Rational{0}));
}

void MediatorPolicy::set_recommendation(const TypeProfile& types, const PureProfile& actions,
                                        Rational prob) {
    if (prob.sign() < 0) throw std::invalid_argument("set_recommendation: negative prob");
    table_[game_->type_rank(types)][util::product_rank(game_->action_counts(), actions)] =
        std::move(prob);
}

void MediatorPolicy::validate() const {
    for (const auto& row : table_) {
        Rational total{0};
        for (const auto& p : row) total += p;
        if (total != Rational{1}) {
            throw std::logic_error("MediatorPolicy: row sums to " + total.to_string());
        }
    }
}

MediatorPolicy MediatorPolicy::byzantine_consensus(const BayesianGame& game) {
    MediatorPolicy policy(game);
    util::product_for_each(game.type_counts(), [&](const TypeProfile& types) {
        // Recommend the general's reported preference to everyone.
        const std::size_t preference = types[0];
        PureProfile actions(game.num_players(), preference);
        policy.set_recommendation(types, actions, Rational{1});
        return true;
    });
    return policy;
}

MediatorPolicy MediatorPolicy::reveal_types(const BayesianGame& game) {
    if (game.num_players() != 2) {
        throw std::invalid_argument("reveal_types: 2-player games only");
    }
    MediatorPolicy policy(game);
    util::product_for_each(game.type_counts(), [&](const TypeProfile& types) {
        const PureProfile actions{types[1] % game.num_actions(0),
                                  types[0] % game.num_actions(1)};
        policy.set_recommendation(types, actions, Rational{1});
        return true;
    });
    return policy;
}

Rational MediatorPolicy::truthful_value(std::size_t player) const {
    if (player >= game_->num_players()) throw std::out_of_range("truthful_value: bad player");
    game_->validate_prior();
    Rational total{0};
    util::product_for_each(game_->type_counts(), [&](const TypeProfile& types) {
        const auto& prior = game_->prior(types);
        if (prior.is_zero()) return true;
        const std::uint64_t type_rank = game_->type_rank(types);
        const auto& row = table_[type_rank];
        const game::NormalFormGame& state = game_->state(type_rank);
        for (std::uint64_t rank = 0; rank < num_action_profiles_; ++rank) {
            if (row[rank].is_zero()) continue;
            total += prior * row[rank] * state.payoff_at(rank, player);
        }
        return true;
    });
    return total;
}

std::vector<Rational> MediatorPolicy::induced_action_distribution(
    const TypeProfile& types) const {
    return table_[game_->type_rank(types)];
}

namespace {

// A unilateral deviation in the mediated game: a report map (own type ->
// reported type) and a response map (own type x recommendation -> action).
struct DeviationMaps final {
    std::vector<std::size_t> report;    // [type] -> reported type
    std::vector<std::size_t> response;  // [type * A + recommendation] -> action
};

DeviationMaps decode_deviation(const BayesianGame& game, std::size_t player,
                               std::uint64_t report_rank, std::uint64_t response_rank) {
    const std::size_t types = game.num_types(player);
    const std::size_t actions = game.num_actions(player);
    DeviationMaps maps;
    maps.report =
        util::product_unrank(std::vector<std::size_t>(types, types), report_rank);
    maps.response = util::product_unrank(
        std::vector<std::size_t>(types * actions, actions), response_rank);
    return maps;
}

}  // namespace

bool MediatorPolicy::is_truthful_equilibrium() const {
    return is_truthful_resilient_independent(1);
}

namespace {

// Serial scans flush counters and poll the grant / first-hit state every
// this many evaluated deviation maps (map evaluations are row-support
// walks, far heavier than single cells — poll more often than the tensor
// sweeps' util::kGrantCheckCells).
constexpr std::uint64_t kGrantCheckEvals = 256;

}  // namespace

bool MediatorPolicy::is_truthful_resilient_independent(std::size_t k, GainCriterion criterion,
                                                       game::SweepMode mode) const {
    validate();
    game_->validate_prior();
    const std::size_t n = game_->num_players();
    const auto coalitions = util::subsets_up_to_size(n, k);
    if (coalitions.empty()) return true;

    // --- precomputation shared by every coalition task ---------------------
    // Positive-prior true type profiles with their table row pre-ranked
    // and their state looked up once.
    struct Theta final {
        TypeProfile types;
        std::uint64_t type_rank;
        const Rational* prior;
        const game::NormalFormGame* state;
    };
    std::vector<Theta> thetas;
    util::product_for_each(game_->type_counts(), [&](const TypeProfile& types) {
        const auto& prior = game_->prior(types);
        if (prior.is_zero()) return true;
        const std::uint64_t type_rank = game_->type_rank(types);
        thetas.push_back({types, type_rank, &prior, &game_->state(type_rank)});
        return true;
    });

    // Support of every policy row with its action profile unranked ONCE
    // (the archived checker re-unranks every cell of every row for every
    // candidate map).
    struct SupportEntry final {
        std::uint64_t rank;
        const Rational* prob;
        game::PureProfile actions;
    };
    std::vector<std::vector<SupportEntry>> row_support(table_.size());
    for (std::size_t row = 0; row < table_.size(); ++row) {
        for (std::uint64_t rank = 0; rank < num_action_profiles_; ++rank) {
            if (table_[row][rank].is_zero()) continue;
            row_support[row].push_back({rank, &table_[row][rank],
                                        util::product_unrank(game_->action_counts(), rank)});
        }
    }

    const auto& tstrides = game_->type_rank_strides();
    const auto& astrides = game_->action_rank_strides();

    // Types each player actually holds with positive probability: report
    // entries for the others are never applied, so they carry no odometer
    // digit.
    std::vector<std::vector<std::size_t>> pos_types(n);
    {
        std::vector<std::vector<char>> seen(n);
        for (std::size_t i = 0; i < n; ++i) seen[i].assign(game_->num_types(i), 0);
        for (const auto& theta : thetas) {
            for (std::size_t i = 0; i < n; ++i) seen[i][theta.types[i]] = 1;
        }
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t type = 0; type < seen[i].size(); ++type) {
                if (seen[i][type]) pos_types[i].push_back(type);
            }
        }
    }

    std::vector<Rational> truthful(n);
    for (std::size_t i = 0; i < n; ++i) truthful[i] = truthful_value(i);

    // The odometers here enumerate map tuples; rows are maintained by the
    // scan through stride deltas, so every digit shares one zero column.
    std::size_t max_radix = 1;
    for (std::size_t i = 0; i < n; ++i) {
        max_radix = std::max({max_radix, game_->num_types(i), game_->num_actions(i)});
    }
    const std::vector<std::uint64_t> zero_offsets(max_radix, 0);

    // One coalition's sweep, block `task` of a util::first_hit search.
    // Returns `task` iff a profitable deviation (per `criterion`) exists;
    // truncated early when the grant expires or `best`, the lowest
    // violating task so far, lies below it — work a serial scan would
    // never have reached.
    const auto scan_coalition = [&](std::size_t task, const std::atomic<std::uint64_t>& best)
        -> std::optional<std::uint64_t> {
        const std::vector<std::size_t>& coalition = coalitions[task];
        const std::size_t m = coalition.size();
        const std::size_t num_thetas = thetas.size();
        util::ExecutionGrant* grant = util::active_grant();

        // Report odometer: one digit per (member, positive-marginal true
        // type); the digit's value is the reported type.
        struct ReportDigit final {
            std::size_t idx;
            std::size_t type;
        };
        std::vector<ReportDigit> report_digits;
        util::OffsetWalker report_walker;
        for (std::size_t idx = 0; idx < m; ++idx) {
            for (const std::size_t type : pos_types[coalition[idx]]) {
                report_digits.push_back({idx, type});
                report_walker.add_digit(zero_offsets.data(), game_->num_types(coalition[idx]));
            }
        }
        report_walker.reset();

        std::vector<std::uint64_t> reported_row(num_thetas);
        // rel[idx][type * A + recommendation]: 0 = entry never read under
        // the current report map, else 1 + its response-digit position.
        std::vector<std::vector<std::size_t>> rel(m);
        for (std::size_t idx = 0; idx < m; ++idx) {
            rel[idx].assign(
                game_->num_types(coalition[idx]) * game_->num_actions(coalition[idx]), 0);
        }
        std::vector<Rational> value(m);
        std::uint64_t evals = 0;
        std::uint64_t flushed = 0;
        std::uint64_t moves = 0;
        bool violated = false;
        bool truncated = false;

        bool more_reports = true;
        while (more_reports && !violated && !truncated) {
            const auto& rtuple = report_walker.tuple();
            // Reported rows, incremental off the truthful rank: the report
            // map shifts member components by stride deltas (unsigned
            // wrap-around cancels, as in the walker itself).
            for (std::size_t t = 0; t < num_thetas; ++t) {
                reported_row[t] = thetas[t].type_rank;
            }
            for (std::size_t d = 0; d < report_digits.size(); ++d) {
                const std::size_t member = coalition[report_digits[d].idx];
                const std::size_t type = report_digits[d].type;
                const std::uint64_t delta =
                    (static_cast<std::uint64_t>(rtuple[d]) - static_cast<std::uint64_t>(type)) *
                    tstrides[member];
                if (delta == 0) continue;
                for (std::size_t t = 0; t < num_thetas; ++t) {
                    if (thetas[t].types[member] == type) reported_row[t] += delta;
                }
            }
            // Relevance at this report map: entry (member, true type,
            // recommendation) is read iff some positive-prior profile with
            // that true type reaches a support cell recommending that
            // action to the member. Everything else stays pinned, giving
            // one representative per class of maps with equal values.
            for (std::size_t idx = 0; idx < m; ++idx) {
                std::fill(rel[idx].begin(), rel[idx].end(), 0);
            }
            for (std::size_t t = 0; t < num_thetas; ++t) {
                for (const auto& entry : row_support[reported_row[t]]) {
                    for (std::size_t idx = 0; idx < m; ++idx) {
                        const std::size_t member = coalition[idx];
                        rel[idx][thetas[t].types[member] * game_->num_actions(member) +
                                 entry.actions[member]] = 1;
                    }
                }
            }
            // Response odometer over the relevant entries only.
            util::OffsetWalker response_walker;
            std::size_t num_response_digits = 0;
            for (std::size_t idx = 0; idx < m; ++idx) {
                for (std::size_t entry = 0; entry < rel[idx].size(); ++entry) {
                    if (rel[idx][entry] == 0) continue;
                    rel[idx][entry] = ++num_response_digits;
                    response_walker.add_digit(zero_offsets.data(),
                                              game_->num_actions(coalition[idx]));
                }
            }
            response_walker.reset();

            bool more_responses = true;
            while (more_responses) {
                const auto& rsp = response_walker.tuple();
                for (auto& v : value) v = Rational{0};
                for (std::size_t t = 0; t < num_thetas; ++t) {
                    const Theta& theta = thetas[t];
                    for (const auto& entry : row_support[reported_row[t]]) {
                        // Modified action rank via stride deltas — no
                        // product_unrank per cell.
                        std::uint64_t rank = entry.rank;
                        for (std::size_t idx = 0; idx < m; ++idx) {
                            const std::size_t member = coalition[idx];
                            const std::size_t rec = entry.actions[member];
                            const std::size_t digit =
                                rel[idx][theta.types[member] * game_->num_actions(member) +
                                         rec];
                            rank += (static_cast<std::uint64_t>(rsp[digit - 1]) -
                                     static_cast<std::uint64_t>(rec)) *
                                    astrides[member];
                        }
                        const Rational weight = *theta.prior * *entry.prob;
                        for (std::size_t idx = 0; idx < m; ++idx) {
                            value[idx] += weight * theta.state->payoff_at(rank, coalition[idx]);
                        }
                    }
                }
                ++evals;
                bool gains;
                if (criterion == GainCriterion::kAnyMemberGains) {
                    gains = false;
                    for (std::size_t idx = 0; idx < m; ++idx) {
                        if (value[idx] > truthful[coalition[idx]]) {
                            gains = true;
                            break;
                        }
                    }
                } else {
                    gains = true;
                    for (std::size_t idx = 0; idx < m; ++idx) {
                        if (!(value[idx] > truthful[coalition[idx]])) {
                            gains = false;
                            break;
                        }
                    }
                }
                if (gains) {
                    violated = true;
                    break;
                }
                if (evals - flushed >= kGrantCheckEvals) {
                    util::work_counters_add(evals - flushed, 0);
                    flushed = evals;
                    if ((grant != nullptr && grant->expired()) ||
                        best.load(std::memory_order_relaxed) < task) {
                        truncated = true;
                        break;
                    }
                }
                more_responses = response_walker.advance();
            }
            moves += response_walker.digit_moves();
            if (violated || truncated) break;
            more_reports = report_walker.advance();
        }
        moves += report_walker.digit_moves();
        util::work_counters_add(evals - flushed, moves);
        if (!violated) return std::nullopt;
        return task;
    };
    return !util::first_hit(coalitions.size(), 1, mode == game::SweepMode::kAuto, scan_coalition)
                .rank;
}

std::size_t MediatorPolicy::coin_space() const {
    std::uint64_t lcm_value = 1;
    constexpr std::uint64_t kCap = 1'000'000;
    for (const auto& row : table_) {
        for (const auto& p : row) {
            if (p.is_zero()) continue;
            const auto den = static_cast<std::uint64_t>(p.den());
            // Guard BEFORE multiplying: lcm(lcm_value, den) = lcm_value *
            // (den / gcd) can wrap uint64 for denominators near int64 max
            // and silently return a small bogus coin space.
            if (den > kCap) {
                throw std::logic_error("MediatorPolicy::coin_space: coin space too large");
            }
            const std::uint64_t factor = den / std::gcd(lcm_value, den);
            if (lcm_value > kCap / factor) {
                throw std::logic_error("MediatorPolicy::coin_space: coin space too large");
            }
            lcm_value *= factor;
        }
    }
    return static_cast<std::size_t>(lcm_value);
}

std::size_t MediatorPolicy::sample_rank(const TypeProfile& types, std::size_t coin,
                                        std::size_t coin_space_size) const {
    if (coin >= coin_space_size) throw std::out_of_range("sample_rank: coin");
    const auto& row = table_[game_->type_rank(types)];
    const Rational point{static_cast<std::int64_t>(coin),
                         static_cast<std::int64_t>(coin_space_size)};
    Rational cumulative{0};
    for (std::uint64_t rank = 0; rank < num_action_profiles_; ++rank) {
        cumulative += row[rank];
        if (point < cumulative) return static_cast<std::size_t>(rank);
    }
    throw std::logic_error("sample_rank: row does not sum to 1");
}

namespace reference {

bool is_truthful_resilient_independent(const MediatorPolicy& policy, std::size_t k,
                                       GainCriterion criterion) {
    policy.validate();
    const game::BayesianGame& game = policy.base();
    game.validate_prior();
    const std::size_t n = game.num_players();
    const std::uint64_t num_action_profiles = util::product_size(game.action_counts());

    // Per-player deviation-space sizes.
    std::vector<std::uint64_t> report_space(n);
    std::vector<std::uint64_t> response_space(n);
    for (std::size_t i = 0; i < n; ++i) {
        report_space[i] = util::product_size(
            std::vector<std::size_t>(game.num_types(i), game.num_types(i)));
        response_space[i] = util::product_size(std::vector<std::size_t>(
            game.num_types(i) * game.num_actions(i), game.num_actions(i)));
    }

    std::vector<Rational> truthful(n);
    for (std::size_t i = 0; i < n; ++i) truthful[i] = policy.truthful_value(i);

    for (const auto& coalition : util::subsets_up_to_size(n, k)) {
        // Joint enumeration of independent (report, response) maps.
        std::vector<std::size_t> radices;
        for (const std::size_t member : coalition) {
            radices.push_back(static_cast<std::size_t>(report_space[member]));
            radices.push_back(static_cast<std::size_t>(response_space[member]));
        }
        bool violated = false;
        std::uint64_t evaluated = 0;
        util::product_for_each(radices, [&](const std::vector<std::size_t>& choice) {
            std::vector<DeviationMaps> maps;
            maps.reserve(coalition.size());
            for (std::size_t idx = 0; idx < coalition.size(); ++idx) {
                maps.push_back(decode_deviation(game, coalition[idx], choice[2 * idx],
                                                choice[2 * idx + 1]));
            }
            ++evaluated;
            // Deviation value for each member.
            std::vector<Rational> value(coalition.size(), Rational{0});
            util::product_for_each(game.type_counts(), [&](const TypeProfile& types) {
                const auto& prior = game.prior(types);
                if (prior.is_zero()) return true;
                TypeProfile reported = types;
                for (std::size_t idx = 0; idx < coalition.size(); ++idx) {
                    reported[coalition[idx]] = maps[idx].report[types[coalition[idx]]];
                }
                const auto row = policy.induced_action_distribution(reported);
                for (std::uint64_t rank = 0; rank < num_action_profiles; ++rank) {
                    if (row[rank].is_zero()) continue;
                    auto actions = util::product_unrank(game.action_counts(), rank);
                    for (std::size_t idx = 0; idx < coalition.size(); ++idx) {
                        const std::size_t member = coalition[idx];
                        actions[member] =
                            maps[idx].response[types[member] * game.num_actions(member) +
                                               actions[member]];
                    }
                    for (std::size_t idx = 0; idx < coalition.size(); ++idx) {
                        value[idx] +=
                            prior * row[rank] * game.payoff(types, actions, coalition[idx]);
                    }
                }
                return true;
            });
            bool gains;
            if (criterion == GainCriterion::kAnyMemberGains) {
                gains = false;
                for (std::size_t idx = 0; idx < coalition.size(); ++idx) {
                    if (value[idx] > truthful[coalition[idx]]) {
                        gains = true;
                        break;
                    }
                }
            } else {
                gains = true;
                for (std::size_t idx = 0; idx < coalition.size(); ++idx) {
                    if (!(value[idx] > truthful[coalition[idx]])) {
                        gains = false;
                        break;
                    }
                }
            }
            if (gains) {
                violated = true;
                return false;
            }
            return true;
        });
        util::work_counters_add(evaluated, 0);
        if (violated) return false;
    }
    return true;
}

}  // namespace reference

}  // namespace bnash::core
