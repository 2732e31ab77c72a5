#include "solver/verification.h"

#include <cstdint>
#include <stdexcept>

#include "game/payoff_engine.h"

namespace bnash::solver {
namespace {

// Matches the validation the seed's game.payoff() path performed via
// product_rank; the flat rows below are unchecked hot-path reads.
void validate_pure_profile(const game::NormalFormGame& game,
                           const game::PureProfile& profile) {
    if (profile.size() != game.num_players()) {
        throw std::invalid_argument("pure profile: size mismatch");
    }
    for (std::size_t i = 0; i < profile.size(); ++i) {
        if (profile[i] >= game.num_actions(i)) {
            throw std::out_of_range("pure profile: action out of range");
        }
    }
}

// Row-major strides premultiplied by the player count: one step of
// `player`'s action moves a profile's flat row in ordinal_ranks() by
// strides[player].
std::vector<std::uint64_t> flat_strides(const game::NormalFormGame& game) {
    const std::size_t n = game.num_players();
    std::vector<std::uint64_t> strides(n, n);
    for (std::size_t i = n - 1; i-- > 0;) strides[i] = strides[i + 1] * game.num_actions(i + 1);
    return strides;
}

// Compares each player's payoff at flat row `row` (the profile's rank
// times the player count) against every unilateral deviation. Two payoffs
// of one player compare like their ordinal ranks, so no Rational is read.
bool is_pure_nash_at(const game::NormalFormGame& game, const std::vector<std::uint64_t>& strides,
                     std::uint64_t row, const game::PureProfile& profile) {
    const std::uint32_t* ranks = game.ordinal_ranks().data();
    const std::vector<std::size_t>& counts = game.action_counts();
    for (std::size_t player = 0; player < counts.size(); ++player) {
        const std::uint32_t current = ranks[row + player];
        const std::uint64_t stride = strides[player];
        const std::uint32_t* column = ranks + (row - profile[player] * stride + player);
        for (std::size_t action = 0; action < counts[player]; ++action) {
            if (column[action * stride] > current) return false;
        }
    }
    return true;
}

}  // namespace

bool is_epsilon_nash(const game::NormalFormGame& game, const game::MixedProfile& profile,
                     double epsilon) {
    const auto dev = game::deviation_payoffs_all(game, profile);
    for (std::size_t player = 0; player < game.num_players(); ++player) {
        double current = 0.0;
        for (std::size_t action = 0; action < dev[player].size(); ++action) {
            current += profile[player][action] * dev[player][action];
        }
        for (const double value : dev[player]) {
            if (value > current + epsilon) return false;
        }
    }
    return true;
}

bool is_nash(const game::NormalFormGame& game, const game::MixedProfile& profile, double tol) {
    return is_epsilon_nash(game, profile, tol);
}

bool is_nash_exact(const game::NormalFormGame& game, const game::ExactMixedProfile& profile) {
    const auto dev = game::deviation_payoffs_all_exact(game, profile);
    for (std::size_t player = 0; player < game.num_players(); ++player) {
        util::Rational current{0};
        for (std::size_t action = 0; action < dev[player].size(); ++action) {
            current += profile[player][action] * dev[player][action];
        }
        for (const auto& value : dev[player]) {
            if (value > current) return false;
        }
    }
    return true;
}

bool is_pure_nash(const game::NormalFormGame& game, const game::PureProfile& profile) {
    validate_pure_profile(game, profile);
    return is_pure_nash_at(game, flat_strides(game),
                           game.profile_rank(profile) * game.num_players(), profile);
}

std::vector<game::PureProfile> pure_nash_equilibria(const game::NormalFormGame& game) {
    const std::size_t n = game.num_players();
    const std::vector<std::uint64_t> strides = flat_strides(game);
    std::vector<game::PureProfile> out;
    game::PureProfile profile(n, 0);
    // Row-major order: the flat row advances by n per profile while the
    // last digit counts fastest.
    for (std::uint64_t row = 0; row < game.ordinal_ranks().size(); row += n) {
        if (is_pure_nash_at(game, strides, row, profile)) out.push_back(profile);
        for (std::size_t d = n; d-- > 0;) {
            if (++profile[d] < game.action_counts()[d]) break;
            profile[d] = 0;
        }
    }
    return out;
}

bool is_pareto_dominated(const game::NormalFormGame& game, const game::PureProfile& profile) {
    validate_pure_profile(game, profile);
    const std::size_t n = game.num_players();
    const std::vector<std::uint32_t>& ranks = game.ordinal_ranks();
    const std::uint64_t here = game.profile_rank(profile) * n;
    for (std::uint64_t there = 0; there < ranks.size(); there += n) {
        bool all_at_least = true;
        bool some_better = false;
        for (std::size_t player = 0; player < n; ++player) {
            if (ranks[there + player] < ranks[here + player]) {
                all_at_least = false;
                break;
            }
            if (ranks[there + player] > ranks[here + player]) some_better = true;
        }
        if (all_at_least && some_better) return true;
    }
    return false;
}

}  // namespace bnash::solver
