#include "scrip/scrip_system.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/stats.h"
#include "util/thread_pool.h"

namespace bnash::scrip {

ScripResult simulate(const ScripParams& params, const std::vector<AgentSpec>& specs) {
    const std::size_t n = params.num_agents;
    if (specs.size() != n) throw std::invalid_argument("scrip::simulate: spec width");
    if (n < 2) throw std::invalid_argument("scrip::simulate: need >= 2 agents");
    if (params.gamma <= params.alpha) {
        throw std::invalid_argument("scrip::simulate: gamma must exceed alpha");
    }
    if (params.rounds == 0) {
        // satisfied_fraction and social_welfare_per_round divide by rounds.
        throw std::invalid_argument("scrip::simulate: rounds must be positive");
    }
    if (!(params.money_per_capita >= 0.0)) {
        // A negative (or NaN) value would wrap the size_t coin count below.
        throw std::invalid_argument("scrip::simulate: money_per_capita must be >= 0");
    }
    util::Rng rng{params.seed};

    // Initial money: distribute round(n * money_per_capita) one coin at a
    // time to random agents (keeps supply exact and integral).
    std::vector<std::size_t> scrip(n, 0);
    const auto total_money =
        static_cast<std::size_t>(std::llround(params.money_per_capita * static_cast<double>(n)));
    for (std::size_t coin = 0; coin < total_money; ++coin) {
        scrip[rng.next_below(n)] += 1;
    }

    ScripResult result;
    result.utility.assign(n, 0.0);
    std::size_t satisfied = 0;

    std::vector<std::size_t> volunteers;
    volunteers.reserve(n);
    for (std::size_t round = 0; round < params.rounds; ++round) {
        const std::size_t requester = rng.next_below(n);
        // Hoarders never spend; others need a coin to pay (altruist
        // providers serve for free, so a broke requester can still be
        // served by an altruist).
        const bool requester_can_pay = scrip[requester] > 0;
        if (specs[requester].kind == BehaviorKind::kHoarder) continue;

        volunteers.clear();
        for (std::size_t agent = 0; agent < n; ++agent) {
            if (agent == requester) continue;
            switch (specs[agent].kind) {
                case BehaviorKind::kThreshold:
                    if (requester_can_pay && scrip[agent] < specs[agent].threshold) {
                        volunteers.push_back(agent);
                    }
                    break;
                case BehaviorKind::kHoarder:
                    if (requester_can_pay) volunteers.push_back(agent);
                    break;
                case BehaviorKind::kAltruist:
                    volunteers.push_back(agent);
                    break;
            }
        }
        if (volunteers.empty()) continue;
        const std::size_t provider = volunteers[rng.next_below(volunteers.size())];
        result.utility[requester] += params.gamma;
        result.utility[provider] -= params.alpha;
        if (specs[provider].kind != BehaviorKind::kAltruist) {
            scrip[requester] -= 1;
            scrip[provider] += 1;
        }
        ++satisfied;
    }

    result.satisfied_fraction =
        static_cast<double>(satisfied) / static_cast<double>(params.rounds);
    double welfare = 0.0;
    for (const double u : result.utility) welfare += u;
    result.social_welfare_per_round = welfare / static_cast<double>(params.rounds);
    result.final_scrip = scrip;
    std::vector<double> scrip_d(scrip.begin(), scrip.end());
    result.scrip_gini = util::gini(std::move(scrip_d));
    result.total_money = 0;
    for (const std::size_t s : scrip) result.total_money += s;
    return result;
}

ScripResult simulate_uniform(const ScripParams& params, std::size_t threshold) {
    std::vector<AgentSpec> specs(params.num_agents,
                                 AgentSpec{BehaviorKind::kThreshold, threshold});
    return simulate(params, specs);
}

std::vector<double> threshold_best_response_curve(const ScripParams& params,
                                                  std::size_t population_threshold,
                                                  std::size_t max_threshold) {
    if (params.num_agents < 2) {
        throw std::invalid_argument("threshold_best_response_curve: need >= 2 agents");
    }
    // Every candidate runs simulate() with the SAME params.seed — common
    // random numbers, so curves differ only through the deviator's policy.
    // simulate() seeds its own Rng, which also makes candidates
    // independent tasks: the pooled run below writes out[candidate]
    // directly and is bit-identical to the serial loop.
    std::vector<double> out(max_threshold + 1, 0.0);
    // lint: grant-ok(candidate simulations are rounds-gated through
    // bench_scrip's deterministic counters, not cell-gated; simulate() has
    // no tensor cells to charge)
    util::for_blocks(out.size(), true, [&](std::size_t candidate) {
        std::vector<AgentSpec> specs(
            params.num_agents, AgentSpec{BehaviorKind::kThreshold, population_threshold});
        specs[0] = AgentSpec{BehaviorKind::kThreshold, candidate};
        out[candidate] = simulate(params, specs).utility[0];
    });
    return out;
}

std::string to_string(BehaviorKind kind) {
    switch (kind) {
        case BehaviorKind::kThreshold: return "threshold";
        case BehaviorKind::kHoarder: return "hoarder";
        case BehaviorKind::kAltruist: return "altruist";
    }
    return "?";
}

}  // namespace bnash::scrip
