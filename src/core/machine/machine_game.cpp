#include "core/machine/machine_game.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "game/catalog.h"
#include "util/combinatorics.h"
#include "util/offset_walker.h"
#include "util/thread_pool.h"
#include "util/work_counters.h"

namespace bnash::core {
namespace {

class ConstantMachine final : public Machine {
public:
    ConstantMachine(std::size_t action, std::string name)
        : action_(action), name_(name.empty() ? "const" + std::to_string(action)
                                              : std::move(name)) {}
    [[nodiscard]] std::string name() const override { return name_; }
    [[nodiscard]] std::vector<double> action_distribution(std::size_t,
                                                          std::size_t num_actions) const override {
        std::vector<double> out(num_actions, 0.0);
        out.at(action_) = 1.0;
        return out;
    }
    [[nodiscard]] std::size_t run(std::size_t, util::Rng&, MachineMetrics& metrics) const override {
        metrics = static_metrics();
        metrics.steps = 1;
        return action_;
    }
    [[nodiscard]] MachineMetrics static_metrics() const override { return {1, 0, 0, false}; }

private:
    std::size_t action_;
    std::string name_;
};

class TypeEchoMachine final : public Machine {
public:
    [[nodiscard]] std::string name() const override { return "echo"; }
    [[nodiscard]] std::vector<double> action_distribution(std::size_t type,
                                                          std::size_t num_actions) const override {
        std::vector<double> out(num_actions, 0.0);
        out.at(type % num_actions) = 1.0;
        return out;
    }
    [[nodiscard]] std::size_t run(std::size_t type, util::Rng&,
                                  MachineMetrics& metrics) const override {
        metrics = static_metrics();
        metrics.steps = 1;
        return type;
    }
    [[nodiscard]] MachineMetrics static_metrics() const override { return {1, 0, 0, false}; }
};

class UniformRandomMachine final : public Machine {
public:
    [[nodiscard]] std::string name() const override { return "uniform"; }
    [[nodiscard]] std::vector<double> action_distribution(std::size_t,
                                                          std::size_t num_actions) const override {
        return std::vector<double>(num_actions, 1.0 / static_cast<double>(num_actions));
    }
    [[nodiscard]] std::size_t run(std::size_t, util::Rng& rng,
                                  MachineMetrics& metrics) const override {
        metrics = static_metrics();
        metrics.steps = 1;
        return 0 + rng.next_below(3);  // callers use action_distribution for exact math
    }
    [[nodiscard]] MachineMetrics static_metrics() const override { return {1, 0, 0, true}; }
};

class TableMachine final : public Machine {
public:
    TableMachine(std::vector<std::size_t> table, std::string name)
        : table_(std::move(table)), name_(std::move(name)) {
        if (table_.empty()) throw std::invalid_argument("table_machine: empty table");
    }
    [[nodiscard]] std::string name() const override { return name_; }
    [[nodiscard]] std::vector<double> action_distribution(std::size_t type,
                                                          std::size_t num_actions) const override {
        std::vector<double> out(num_actions, 0.0);
        out.at(table_.at(type)) = 1.0;
        return out;
    }
    [[nodiscard]] std::size_t run(std::size_t type, util::Rng&,
                                  MachineMetrics& metrics) const override {
        metrics = static_metrics();
        metrics.steps = 1;
        return table_.at(type);
    }
    [[nodiscard]] MachineMetrics static_metrics() const override {
        // One state per distinct table entry; log2(|table|) bits to read
        // the type.
        std::vector<std::size_t> distinct = table_;
        std::sort(distinct.begin(), distinct.end());
        distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
        return {distinct.size(), 0, 0, false};
    }

private:
    std::vector<std::size_t> table_;
    std::string name_;
};

}  // namespace

double MachineCost::cost(const MachineMetrics& metrics) const noexcept {
    return base + per_state * static_cast<double>(metrics.states) +
           per_step * static_cast<double>(metrics.steps) +
           per_memory_bit * static_cast<double>(metrics.memory_bits) +
           (metrics.randomized ? randomized_surcharge : 0.0);
}

std::shared_ptr<Machine> constant_machine(std::size_t action, std::string name) {
    return std::make_shared<ConstantMachine>(action, std::move(name));
}

std::shared_ptr<Machine> type_echo_machine() { return std::make_shared<TypeEchoMachine>(); }

std::shared_ptr<Machine> uniform_random_machine() {
    return std::make_shared<UniformRandomMachine>();
}

std::shared_ptr<Machine> table_machine(std::vector<std::size_t> action_per_type,
                                       std::string name) {
    return std::make_shared<TableMachine>(std::move(action_per_type), std::move(name));
}

game::BayesianGame lift_to_bayesian(const game::NormalFormGame& game) {
    return game::BayesianGame(game);
}

MachineGame::MachineGame(game::BayesianGame base, MachineCost cost)
    : base_(std::move(base)), cost_(cost), machines_(base_.num_players()) {
    base_.validate_prior();
}

void MachineGame::add_machine(std::size_t player, std::shared_ptr<Machine> machine) {
    if (!machine) throw std::invalid_argument("add_machine: null machine");
    machines_.at(player).push_back(std::move(machine));
}

std::size_t MachineGame::num_machines(std::size_t player) const {
    return machines_.at(player).size();
}

const Machine& MachineGame::machine(std::size_t player, std::size_t index) const {
    return *machines_.at(player).at(index);
}

double MachineGame::utility(const std::vector<std::size_t>& machine_profile,
                            std::size_t player) const {
    if (machine_profile.size() != base_.num_players()) {
        throw std::invalid_argument("MachineGame::utility: profile width");
    }
    const std::size_t n = base_.num_players();
    double expected = 0.0;
    std::vector<std::vector<double>> dists(n);
    std::vector<std::vector<double>> support_probs(n);
    // prefix[i + 1] = prior * dists[0..i], multiplied in player order —
    // the same association as the dense `weight *=` loop, so the sparse
    // walk reproduces its sum bit for bit.
    std::vector<double> prefix(n + 1);
    std::uint64_t cells = 0;
    std::uint64_t moves = 0;
    util::product_for_each(base_.type_counts(), [&](const game::TypeProfile& types) {
        const double prior = base_.prior(types).to_double();
        if (prior == 0.0) return true;
        for (std::size_t i = 0; i < n; ++i) {
            dists[i] = machines_[i][machine_profile[i]]->action_distribution(
                types[i], base_.num_actions(i));
        }
        // One sparse support plan per type profile: the walker's row IS
        // the action rank (offsets are rank strides), so the payoff lookup
        // in the type profile's state needs no per-cell re-ranking.
        const auto plan =
            game::build_support_plan_from_dists(dists, base_.action_rank_strides());
        if (plan.dead) return true;
        for (std::size_t i = 0; i < n; ++i) {
            support_probs[i].clear();
            for (const std::size_t action : plan.actions[i]) {
                support_probs[i].push_back(dists[i][action]);
            }
        }
        auto walker = plan.make_walker();
        walker.reset();
        const game::NormalFormGame& state = base_.state(base_.type_rank(types));
        prefix[0] = prior;
        std::size_t low = 0;
        bool more = true;
        while (more) {
            const auto& tuple = walker.tuple();
            for (std::size_t i = low; i < n; ++i) {
                prefix[i + 1] = prefix[i] * support_probs[i][tuple[i]];
            }
            const double weight = prefix[n];
            if (weight > 0.0) {
                expected += weight * state.payoff_d_at(walker.row(), player);
            }
            more = walker.advance();
            low = walker.lowest_changed();
        }
        cells += plan.num_tuples;
        moves += walker.digit_moves();
        return true;
    });
    util::work_counters_add(cells, moves);
    return expected - cost_.cost(machines_[player][machine_profile[player]]->static_metrics());
}

double MachineGame::utility_reference(const std::vector<std::size_t>& machine_profile,
                                      std::size_t player) const {
    if (machine_profile.size() != base_.num_players()) {
        throw std::invalid_argument("MachineGame::utility: profile width");
    }
    double expected = 0.0;
    util::product_for_each(base_.type_counts(), [&](const game::TypeProfile& types) {
        const double prior = base_.prior(types).to_double();
        if (prior == 0.0) return true;
        // Product distribution over actions from each machine.
        std::vector<std::vector<double>> dists(base_.num_players());
        for (std::size_t i = 0; i < base_.num_players(); ++i) {
            dists[i] = machines_[i][machine_profile[i]]->action_distribution(
                types[i], base_.num_actions(i));
        }
        std::uint64_t cells = 0;
        util::product_for_each(base_.action_counts(), [&](const game::PureProfile& actions) {
            ++cells;
            double weight = prior;
            for (std::size_t i = 0; i < base_.num_players() && weight > 0.0; ++i) {
                weight *= dists[i][actions[i]];
            }
            if (weight > 0.0) expected += weight * base_.payoff_d(types, actions, player);
            return true;
        });
        util::work_counters_add(cells, 0);
        return true;
    });
    return expected - cost_.cost(machines_[player][machine_profile[player]]->static_metrics());
}

bool MachineGame::is_machine_equilibrium(const std::vector<std::size_t>& machine_profile,
                                         double tol) const {
    for (std::size_t player = 0; player < base_.num_players(); ++player) {
        const double current = utility(machine_profile, player);
        auto deviated = machine_profile;
        for (std::size_t m = 0; m < num_machines(player); ++m) {
            deviated[player] = m;
            if (utility(deviated, player) > current + tol) return false;
        }
    }
    return true;
}

std::vector<std::vector<std::size_t>> MachineGame::machine_equilibria(
    double tol, game::SweepMode mode) const {
    std::vector<std::size_t> radices(base_.num_players());
    for (std::size_t i = 0; i < base_.num_players(); ++i) radices[i] = num_machines(i);
    const std::uint64_t total = util::product_size(radices);
    // Fixed block size: the decomposition (and thus the per-block work
    // counters) is independent of worker count.
    constexpr std::uint64_t kBlock = 16;
    const auto num_blocks = static_cast<std::size_t>((total + kBlock - 1) / kBlock);
    std::vector<std::vector<std::vector<std::size_t>>> partials(num_blocks);
    // lint: grant-ok(blocks charge the active grant through utility()'s
    // work_counters_add on every machine-profile evaluation)
    util::for_blocks(num_blocks, mode == game::SweepMode::kAuto, [&](std::size_t block) {
        const std::uint64_t lo = static_cast<std::uint64_t>(block) * kBlock;
        util::product_for_each(radices, lo, std::min(total, lo + kBlock),
                               [&](const std::vector<std::size_t>& profile) {
                                   if (is_machine_equilibrium(profile, tol)) {
                                       partials[block].push_back(profile);
                                   }
                                   return true;
                               });
    });
    // Blocks merged in rank order: output order matches the serial scan.
    std::vector<std::vector<std::size_t>> out;
    for (auto& part : partials) {
        for (auto& profile : part) out.push_back(std::move(profile));
    }
    return out;
}

std::vector<std::size_t> MachineGame::best_machines(
    const std::vector<std::size_t>& machine_profile, std::size_t player, double tol) const {
    auto probe = machine_profile;
    double best = -std::numeric_limits<double>::infinity();
    std::vector<double> values(num_machines(player));
    for (std::size_t m = 0; m < num_machines(player); ++m) {
        probe[player] = m;
        values[m] = utility(probe, player);
        best = std::max(best, values[m]);
    }
    std::vector<std::size_t> out;
    for (std::size_t m = 0; m < num_machines(player); ++m) {
        if (values[m] >= best - tol) out.push_back(m);
    }
    return out;
}

std::vector<std::vector<std::size_t>> MachineGame::best_response_cycle(
    std::vector<std::size_t> start, std::size_t max_steps) const {
    std::vector<std::vector<std::size_t>> trail{start};
    for (std::size_t step = 0; step < max_steps; ++step) {
        auto next = trail.back();
        // One round of sequential best responses.
        for (std::size_t player = 0; player < base_.num_players(); ++player) {
            next[player] = best_machines(next, player).front();
        }
        const auto seen = std::find(trail.begin(), trail.end(), next);
        if (seen != trail.end()) {
            return {seen, trail.end()};  // the cycle
        }
        trail.push_back(next);
    }
    return {};
}

MachineGame computational_roshambo(double randomized_surcharge) {
    MachineCost cost;
    cost.base = 1.0;
    cost.randomized_surcharge = randomized_surcharge;
    MachineGame game(lift_to_bayesian(game::catalog::roshambo()), cost);
    for (std::size_t player = 0; player < 2; ++player) {
        game.add_machine(player, constant_machine(0, "rock"));
        game.add_machine(player, constant_machine(1, "paper"));
        game.add_machine(player, constant_machine(2, "scissors"));
        game.add_machine(player, uniform_random_machine());
    }
    return game;
}

}  // namespace bnash::core
