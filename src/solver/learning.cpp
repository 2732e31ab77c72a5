#include "solver/learning.h"

#include <algorithm>
#include <limits>

#include "game/payoff_engine.h"

namespace bnash::solver {
namespace {

// One deviation table per iteration feeds the regret test, the trace, and
// every player's best response — the seed recomputed a full tensor sweep
// for each of those separately.
void record_trace(double regret_value, std::size_t iteration, const LearningOptions& options,
                  LearningResult& result) {
    if (options.trace_every != 0 && iteration % options.trace_every == 0) {
        result.regret_trace.push_back(regret_value);
    }
}

double dot(const game::MixedStrategy& strategy, const std::vector<double>& values) {
    double total = 0.0;
    for (std::size_t a = 0; a < strategy.size(); ++a) total += strategy[a] * values[a];
    return total;
}

}  // namespace

LearningResult fictitious_play(const game::NormalFormGame& game,
                               const LearningOptions& options) {
    const std::size_t players = game.num_players();
    const game::GameView view(game);
    // counts[i][a]: how often player i played action a (Dirichlet-1 prior).
    std::vector<std::vector<double>> counts(players);
    for (std::size_t i = 0; i < players; ++i) {
        counts[i].assign(game.num_actions(i), 1.0);
    }
    const auto empirical = [&](std::size_t i) {
        game::MixedStrategy s(counts[i].size());
        double total = 0.0;
        for (const double c : counts[i]) total += c;
        for (std::size_t a = 0; a < s.size(); ++a) s[a] = counts[i][a] / total;
        return s;
    };

    LearningResult result;
    game::MixedProfile profile(players);
    for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
        for (std::size_t i = 0; i < players; ++i) profile[i] = empirical(i);
        const auto dev = game::deviation_payoffs_all(view, profile);
        const double regret = game::regret_from(dev, profile);
        record_trace(regret, iter, options, result);
        result.iterations = iter + 1;
        if (regret <= options.target_regret) {
            result.converged = true;
            break;
        }
        // Simultaneous best responses to the current empirical profile;
        // ties break toward the lowest action index (deterministic).
        for (std::size_t i = 0; i < players; ++i) {
            const auto best = game::best_responses_from(dev[i], options.tie_tolerance);
            counts[i][best.front()] += 1.0;
        }
    }
    for (std::size_t i = 0; i < players; ++i) profile[i] = empirical(i);
    result.profile = std::move(profile);
    result.final_regret =
        game::regret_from(game::deviation_payoffs_all(view, result.profile), result.profile);
    result.converged = result.final_regret <= options.target_regret;
    return result;
}

LearningResult replicator_dynamics(const game::NormalFormGame& game,
                                   const LearningOptions& options) {
    const std::size_t players = game.num_players();
    const game::GameView view(game);
    // Shift payoffs so fitness is positive. Every level pays some cell,
    // so the least level double is the least payoff double.
    double min_payoff = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < players; ++i) {
        for (const double value : game.levels_d(i)) min_payoff = std::min(min_payoff, value);
    }
    const double shift = 1.0 - std::min(0.0, min_payoff);

    LearningResult result;
    game::MixedProfile profile(players);
    for (std::size_t i = 0; i < players; ++i) {
        profile[i] = game::uniform_strategy(game.num_actions(i));
    }
    for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
        const auto dev = game::deviation_payoffs_all(view, profile);
        const double regret = game::regret_from(dev, profile);
        record_trace(regret, iter, options, result);
        result.iterations = iter + 1;
        if (regret <= options.target_regret) {
            result.converged = true;
            break;
        }
        game::MixedProfile next = profile;
        for (std::size_t i = 0; i < players; ++i) {
            const double average = dot(profile[i], dev[i]) + shift;
            double total = 0.0;
            for (std::size_t a = 0; a < game.num_actions(i); ++a) {
                const double fitness = dev[i][a] + shift;
                // Discrete replicator: share grows with relative fitness.
                next[i][a] = profile[i][a] *
                             (1.0 + options.replicator_step * (fitness - average) / average);
                next[i][a] = std::max(next[i][a], 0.0);
                total += next[i][a];
            }
            for (double& p : next[i]) p /= total;
        }
        profile = std::move(next);
    }
    result.profile = std::move(profile);
    result.final_regret =
        game::regret_from(game::deviation_payoffs_all(view, result.profile), result.profile);
    result.converged = result.final_regret <= options.target_regret;
    return result;
}

}  // namespace bnash::solver
