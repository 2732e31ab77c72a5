#include "game/bayesian.h"

#include <stdexcept>

#include "util/combinatorics.h"

namespace bnash::game {

namespace {

// Row-major rank strides (product_rank order): strides[p] is the rank
// delta of a unit change in player p's digit.
std::vector<std::uint64_t> rank_strides(const std::vector<std::size_t>& counts) {
    std::vector<std::uint64_t> strides(counts.size(), 1);
    for (std::size_t p = counts.size() - 1; p-- > 0;) {
        strides[p] = strides[p + 1] * counts[p + 1];
    }
    return strides;
}

}  // namespace

BayesianGame::BayesianGame(std::vector<std::size_t> type_counts,
                           std::vector<std::size_t> action_counts)
    : type_counts_(std::move(type_counts)) {
    if (type_counts_.empty() || type_counts_.size() != action_counts.size()) {
        throw std::invalid_argument("BayesianGame: player count mismatch");
    }
    for (std::size_t i = 0; i < type_counts_.size(); ++i) {
        if (type_counts_[i] == 0 || action_counts[i] == 0) {
            throw std::invalid_argument("BayesianGame: empty type or action set");
        }
    }
    type_rank_strides_ = rank_strides(type_counts_);
    action_rank_strides_ = rank_strides(action_counts);
    const std::uint64_t num_type_profiles = util::product_size(type_counts_);
    prior_.assign(num_type_profiles, util::Rational{0});
    states_.assign(num_type_profiles, NormalFormGame(std::move(action_counts)));
}

BayesianGame::BayesianGame(const NormalFormGame& game)
    : type_counts_(game.num_players(), 1),
      type_rank_strides_(game.num_players(), 1),
      action_rank_strides_(rank_strides(game.action_counts())),
      prior_{util::Rational{1}},
      states_{game} {}

void BayesianGame::set_prior(const TypeProfile& types, util::Rational probability) {
    if (probability.sign() < 0) throw std::invalid_argument("set_prior: negative probability");
    prior_[type_rank(types)] = std::move(probability);
}

const util::Rational& BayesianGame::prior(const TypeProfile& types) const {
    return prior_[type_rank(types)];
}

void BayesianGame::validate_prior() const {
    util::Rational total{0};
    for (const auto& p : prior_) total += p;
    if (total != util::Rational{1}) {
        throw std::logic_error("BayesianGame: prior sums to " + total.to_string());
    }
}

void BayesianGame::set_payoff(const TypeProfile& types, const PureProfile& actions,
                              std::size_t player, util::Rational value) {
    states_[type_rank(types)].set_payoff(actions, player, std::move(value));
}

const util::Rational& BayesianGame::payoff(const TypeProfile& types, const PureProfile& actions,
                                           std::size_t player) const {
    return state_of(types, player).payoff(actions, player);
}

double BayesianGame::payoff_d(const TypeProfile& types, const PureProfile& actions,
                              std::size_t player) const {
    return state_of(types, player).payoff_d(actions, player);
}

util::Rational BayesianGame::expected_payoff(const BayesianPureProfile& profile,
                                             std::size_t player) const {
    validate_prior();
    util::Rational total{0};
    util::product_for_each(type_counts_, [&](const TypeProfile& types) {
        const auto& p = prior_[type_rank(types)];
        if (p.is_zero()) return true;
        PureProfile actions(num_players());
        for (std::size_t i = 0; i < num_players(); ++i) actions[i] = profile[i][types[i]];
        total += p * payoff(types, actions, player);
        return true;
    });
    return total;
}

double BayesianGame::expected_payoff_d(const BayesianBehavioralProfile& profile,
                                       std::size_t player) const {
    validate_prior();
    double total = 0.0;
    util::product_for_each(type_counts_, [&](const TypeProfile& types) {
        const double p = prior_[type_rank(types)].to_double();
        if (p == 0.0) return true;
        // Expectation over the product action distribution at this type profile.
        const NormalFormGame& state = state_of(types, player);
        util::product_for_each(action_counts(), [&](const PureProfile& actions) {
            double weight = p;
            for (std::size_t i = 0; i < num_players() && weight > 0.0; ++i) {
                weight *= profile[i][types[i]][actions[i]];
            }
            if (weight > 0.0) total += weight * state.payoff_d(actions, player);
            return true;
        });
        return true;
    });
    return total;
}

util::Rational BayesianGame::interim_payoff(const BayesianPureProfile& profile,
                                            std::size_t player, std::size_t type,
                                            std::size_t action) const {
    // Unnormalized conditional expectation: sum over others' types weighted
    // by the prior restricted to types[player] == type. Normalization by
    // P(type) cancels when comparing actions, so it is omitted; callers
    // compare interim payoffs for the same (player, type) only.
    util::Rational total{0};
    util::product_for_each(type_counts_, [&](const TypeProfile& types) {
        if (types[player] != type) return true;
        const auto& p = prior_[type_rank(types)];
        if (p.is_zero()) return true;
        PureProfile actions(num_players());
        for (std::size_t i = 0; i < num_players(); ++i) {
            actions[i] = (i == player) ? action : profile[i][types[i]];
        }
        total += p * payoff(types, actions, player);
        return true;
    });
    return total;
}

bool BayesianGame::is_bayes_nash(const BayesianPureProfile& profile) const {
    validate_prior();
    for (std::size_t player = 0; player < num_players(); ++player) {
        for (std::size_t type = 0; type < num_types(player); ++type) {
            const auto current = interim_payoff(profile, player, type, profile[player][type]);
            for (std::size_t action = 0; action < num_actions(player); ++action) {
                if (interim_payoff(profile, player, type, action) > current) return false;
            }
        }
    }
    return true;
}

std::vector<BayesianPureProfile> BayesianGame::pure_bayes_nash() const {
    std::vector<BayesianPureProfile> out;
    std::vector<std::size_t> strategy_space(num_players());
    for (std::size_t i = 0; i < num_players(); ++i) {
        strategy_space[i] = static_cast<std::size_t>(num_pure_strategies(i));
    }
    util::product_for_each(strategy_space, [&](const std::vector<std::size_t>& ranks) {
        BayesianPureProfile profile(num_players());
        for (std::size_t i = 0; i < num_players(); ++i) {
            profile[i] = strategy_unrank(i, ranks[i]);
        }
        if (is_bayes_nash(profile)) out.push_back(std::move(profile));
        return true;
    });
    return out;
}

NormalFormGame BayesianGame::to_strategic_form() const {
    validate_prior();
    std::vector<std::size_t> counts(num_players());
    for (std::size_t i = 0; i < num_players(); ++i) {
        counts[i] = static_cast<std::size_t>(num_pure_strategies(i));
    }
    std::vector<util::Rational> values;
    values.reserve(util::product_size(counts) * num_players());
    util::product_for_each(counts, [&](const std::vector<std::size_t>& ranks) {
        BayesianPureProfile profile(num_players());
        for (std::size_t i = 0; i < num_players(); ++i) {
            profile[i] = strategy_unrank(i, ranks[i]);
        }
        for (std::size_t player = 0; player < num_players(); ++player) {
            values.push_back(expected_payoff(profile, player));
        }
        return true;
    });
    NormalFormGame out(counts);
    out.assign_payoffs(values);
    return out;
}

std::uint64_t BayesianGame::strategy_rank(std::size_t player,
                                          const BayesianPureStrategy& strategy) const {
    const std::vector<std::size_t> radices(num_types(player), num_actions(player));
    return util::product_rank(radices, strategy);
}

BayesianPureStrategy BayesianGame::strategy_unrank(std::size_t player,
                                                   std::uint64_t rank) const {
    const std::vector<std::size_t> radices(num_types(player), num_actions(player));
    return util::product_unrank(radices, rank);
}

std::uint64_t BayesianGame::num_pure_strategies(std::size_t player) const {
    return util::product_size(std::vector<std::size_t>(num_types(player), num_actions(player)));
}

TypeProfile BayesianGame::sample_types(util::Rng& rng) const {
    validate_prior();
    std::vector<double> weights(prior_.size());
    for (std::size_t i = 0; i < prior_.size(); ++i) weights[i] = prior_[i].to_double();
    return util::product_unrank(type_counts_, rng.next_weighted(weights));
}

std::uint64_t BayesianGame::type_rank(const TypeProfile& types) const {
    return util::product_rank(type_counts_, types);
}

const NormalFormGame& BayesianGame::state_of(const TypeProfile& types,
                                             std::size_t player) const {
    if (player >= num_players()) throw std::out_of_range("BayesianGame: bad player");
    return states_[type_rank(types)];
}

}  // namespace bnash::game
