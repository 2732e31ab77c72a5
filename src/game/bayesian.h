// Normal-form Bayesian games (Harsanyi form).
//
// Each player i has a finite type space; a common prior over type profiles
// is known to all; utilities depend on the full type profile and the full
// action profile. This is exactly the setting of Section 2 of the paper
// ("Gamma is assumed to be a normal-form Bayesian game") and of the
// computational games of Section 3 (where a player's type is the input to
// its machine).
//
// At a fixed type profile a Bayesian game IS a normal-form game, and it is
// stored as one: the game keeps its prior and one NormalFormGame per type
// profile, its STATE, reached as state(type_rank). Every payoff therefore
// lives in the one payoff store of game/normal_form.h: an exact payoff is
// state(rank).payoff_at(action_rank, player), its double the level double
// payoff_d_at returns. All states start as copies of one all-zero game
// and share its store; a state's first set_payoff clones it (the store's
// copy-on-write), so an untouched type profile costs no tensor.
//
// A pure strategy for player i maps each of i's types to an action; it is
// stored as a vector indexed by type. A behavioral (mixed) strategy maps
// each type to a distribution over actions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "game/normal_form.h"
#include "game/strategy.h"
#include "util/rational.h"
#include "util/rng.h"

namespace bnash::game {

using TypeProfile = std::vector<std::size_t>;
// strategy[type] = action chosen when holding that type.
using BayesianPureStrategy = std::vector<std::size_t>;
using BayesianPureProfile = std::vector<BayesianPureStrategy>;
// strategy[type] = distribution over actions.
using BayesianBehavioralStrategy = std::vector<MixedStrategy>;
using BayesianBehavioralProfile = std::vector<BayesianBehavioralStrategy>;

class BayesianGame final {
public:
    BayesianGame(std::vector<std::size_t> type_counts, std::vector<std::size_t> action_counts);
    // Complete information: one type per player, prior one, and `game` as
    // the only state, sharing its store.
    explicit BayesianGame(const NormalFormGame& game);

    [[nodiscard]] std::size_t num_players() const noexcept { return type_counts_.size(); }
    [[nodiscard]] std::size_t num_types(std::size_t player) const {
        return type_counts_.at(player);
    }
    [[nodiscard]] std::size_t num_actions(std::size_t player) const {
        return states_.front().num_actions(player);
    }
    [[nodiscard]] const std::vector<std::size_t>& type_counts() const noexcept {
        return type_counts_;
    }
    [[nodiscard]] const std::vector<std::size_t>& action_counts() const noexcept {
        return states_.front().action_counts();
    }

    // Prior. Probabilities are exact rationals and must sum to one by the
    // time any expectation is taken (validated lazily, throwing otherwise).
    void set_prior(const TypeProfile& types, util::Rational probability);
    [[nodiscard]] const util::Rational& prior(const TypeProfile& types) const;
    void validate_prior() const;

    void set_payoff(const TypeProfile& types, const PureProfile& actions, std::size_t player,
                    util::Rational value);
    [[nodiscard]] const util::Rational& payoff(const TypeProfile& types,
                                               const PureProfile& actions,
                                               std::size_t player) const;
    [[nodiscard]] double payoff_d(const TypeProfile& types, const PureProfile& actions,
                                  std::size_t player) const;

    // Ex-ante expected utility of a pure strategy profile.
    [[nodiscard]] util::Rational expected_payoff(const BayesianPureProfile& profile,
                                                 std::size_t player) const;

    // Ex-ante expected utility of a behavioral profile (double arithmetic).
    [[nodiscard]] double expected_payoff_d(const BayesianBehavioralProfile& profile,
                                           std::size_t player) const;

    // Interim expected utility: player i holds `type`, plays `action`,
    // others follow `profile`. Conditions the prior on i's type.
    [[nodiscard]] util::Rational interim_payoff(const BayesianPureProfile& profile,
                                                std::size_t player, std::size_t type,
                                                std::size_t action) const;

    // True iff `profile` is a Bayes-Nash equilibrium in pure strategies:
    // every type of every player plays an interim best response.
    [[nodiscard]] bool is_bayes_nash(const BayesianPureProfile& profile) const;

    // Exhaustive search over pure strategy profiles.
    [[nodiscard]] std::vector<BayesianPureProfile> pure_bayes_nash() const;

    // Strategic form: player i's action set becomes the set of pure
    // strategies (type -> action maps), payoffs are ex-ante expectations.
    // Ranks map to strategies via strategy_unrank.
    [[nodiscard]] NormalFormGame to_strategic_form() const;
    [[nodiscard]] std::uint64_t strategy_rank(std::size_t player,
                                              const BayesianPureStrategy& strategy) const;
    [[nodiscard]] BayesianPureStrategy strategy_unrank(std::size_t player,
                                                       std::uint64_t rank) const;
    [[nodiscard]] std::uint64_t num_pure_strategies(std::size_t player) const;

    [[nodiscard]] TypeProfile sample_types(util::Rng& rng) const;

    // --- the states (sweep kernels) ------------------------------------------
    // The normal-form game at the type profile of rank `type_rank`
    // (util::product_rank over type_counts()). Sweeps look a state up once
    // per type profile and read it by action rank; a modified action
    // profile is a rank delta of `action_rank_strides()[p] * (a' - a)` per
    // touched player, a misreported type profile one of
    // `type_rank_strides()[p] * (t' - t)`.
    [[nodiscard]] const NormalFormGame& state(std::uint64_t type_rank) const {
        return states_.at(type_rank);
    }
    [[nodiscard]] std::uint64_t type_rank(const TypeProfile& types) const;
    [[nodiscard]] const std::vector<std::uint64_t>& type_rank_strides() const noexcept {
        return type_rank_strides_;
    }
    [[nodiscard]] const std::vector<std::uint64_t>& action_rank_strides() const noexcept {
        return action_rank_strides_;
    }

private:
    // The state holding the payoffs at `types`; throws on a bad player.
    [[nodiscard]] const NormalFormGame& state_of(const TypeProfile& types,
                                                 std::size_t player) const;

    std::vector<std::size_t> type_counts_;
    std::vector<std::uint64_t> type_rank_strides_;
    std::vector<std::uint64_t> action_rank_strides_;
    std::vector<util::Rational> prior_;   // by type rank
    std::vector<NormalFormGame> states_;  // by type rank
};

}  // namespace bnash::game
