#include "solver/verification.h"

#include <stdexcept>

#include "game/game_view.h"
#include "game/payoff_engine.h"
#include "util/combinatorics.h"

namespace bnash::solver {
namespace {

// Matches the validation the seed's game.payoff() path performed via
// product_rank; the view's row offsets are unchecked hot-path reads.
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

// Compares each player's payoff at `row` (the profile's row offset in
// the game's identity view) against every unilateral deviation, read
// through the deviating player's offset column: no profile
// materialization or re-ranking.
bool is_pure_nash_at(const game::GameView& view, std::uint64_t row,
                     const game::PureProfile& profile) {
    for (std::size_t player = 0; player < view.num_players(); ++player) {
        const auto& current = view.payoff_from(row, player);
        // Unsigned wrap-around is fine: every complete row is in range.
        const std::uint64_t base = row - view.cell_offset(player, profile[player]);
        for (std::size_t action = 0; action < view.num_actions(player); ++action) {
            if (action == profile[player]) continue;
            if (view.payoff_from(base + view.cell_offset(player, action), player) > current) {
                return false;
            }
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
    const game::GameView view(game);
    return is_pure_nash_at(view, view.row_offset(profile), profile);
}

std::vector<game::PureProfile> pure_nash_equilibria(const game::NormalFormGame& game) {
    const game::GameView view(game);
    std::vector<game::PureProfile> out;
    util::product_for_each(game.action_counts(), [&](const game::PureProfile& profile) {
        if (is_pure_nash_at(view, view.row_offset(profile), profile)) out.push_back(profile);
        return true;
    });
    return out;
}

bool is_pareto_dominated(const game::NormalFormGame& game, const game::PureProfile& profile) {
    validate_pure_profile(game, profile);
    const std::uint64_t here_rank = game.profile_rank(profile);
    for (std::uint64_t other = 0; other < game.num_profiles(); ++other) {
        bool all_at_least = true;
        bool some_better = false;
        for (std::size_t player = 0; player < game.num_players(); ++player) {
            const auto& here = game.payoff_at(here_rank, player);
            const auto& there = game.payoff_at(other, player);
            if (there < here) {
                all_at_least = false;
                break;
            }
            if (there > here) some_better = true;
        }
        if (all_at_least && some_better) return true;
    }
    return false;
}

}  // namespace bnash::solver
