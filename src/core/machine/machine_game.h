// Machine games: Bayesian games where players choose MACHINES and utility
// is charged for the complexity profile (Section 3, after Halpern-Pass).
//
// A machine maps the player's type (the machine's input) to an action and
// exposes a complexity profile; following the paper, complexity is
// associated with the (machine, input) PAIR -- run() reports metrics that
// may depend on the input. Utility = game payoff - cost(complexity).
//
// Nash equilibrium of a machine game quantifies over the machine set
// itself: a player cannot "mix" over machines for free, because a mixture
// IS a randomized machine and pays the randomization surcharge (this is
// exactly why computational roshambo, Example 3.3, has NO equilibrium --
// existence fails once randomness is priced).
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "game/bayesian.h"
#include "game/normal_form.h"
#include "game/payoff_engine.h"
#include "util/rng.h"

namespace bnash::core {

struct MachineMetrics final {
    std::size_t states = 1;
    std::size_t steps = 0;
    std::size_t memory_bits = 0;
    bool randomized = false;
};

struct MachineCost final {
    double base = 0.0;
    double per_state = 0.0;
    double per_step = 0.0;
    double per_memory_bit = 0.0;
    double randomized_surcharge = 0.0;
    [[nodiscard]] double cost(const MachineMetrics& metrics) const noexcept;
};

class Machine {
public:
    virtual ~Machine() = default;
    [[nodiscard]] virtual std::string name() const = 0;
    // Exact action distribution on input `type` (used for exact expected
    // utility; deterministic machines return a point mass).
    [[nodiscard]] virtual std::vector<double> action_distribution(
        std::size_t type, std::size_t num_actions) const = 0;
    // Executes once, recording input-dependent resource use.
    [[nodiscard]] virtual std::size_t run(std::size_t type, util::Rng& rng,
                                          MachineMetrics& metrics) const = 0;
    // Input-independent complexity summary (states, memory, randomized).
    [[nodiscard]] virtual MachineMetrics static_metrics() const = 0;
};

// Plays `action` regardless of type. 1 state, deterministic.
[[nodiscard]] std::shared_ptr<Machine> constant_machine(std::size_t action,
                                                        std::string name = {});
// Plays its own type as the action.
[[nodiscard]] std::shared_ptr<Machine> type_echo_machine();
// Uniform over all actions; randomized.
[[nodiscard]] std::shared_ptr<Machine> uniform_random_machine();
// Arbitrary type -> action table.
[[nodiscard]] std::shared_ptr<Machine> table_machine(std::vector<std::size_t> action_per_type,
                                                     std::string name);

// Wraps a complete-information game as a Bayesian game with single types:
// the game is the only state and shares its payoff store, nothing is
// copied cell by cell (machine games consume Bayesian games; Example
// 3.3's roshambo enters through this lift).
[[nodiscard]] game::BayesianGame lift_to_bayesian(const game::NormalFormGame& game);

class MachineGame final {
public:
    MachineGame(game::BayesianGame base, MachineCost cost);

    void add_machine(std::size_t player, std::shared_ptr<Machine> machine);
    [[nodiscard]] std::size_t num_machines(std::size_t player) const;
    [[nodiscard]] const Machine& machine(std::size_t player, std::size_t index) const;
    [[nodiscard]] const game::BayesianGame& base() const noexcept { return base_; }

    // Exact expected utility of the machine profile for `player`:
    // E_types E_actions payoff - cost(static metrics).
    //
    // Machine action distributions are SUPPORTS (deterministic machines
    // are point masses), so the inner expectation runs as a
    // game::SupportPlan walk over the Bayesian action slice — one plan per
    // type profile, prefix-product weights keyed off the walker's
    // lowest-changed digit. Sums are bit-identical to utility_reference's
    // dense double loop (same cells, same order, same association).
    [[nodiscard]] double utility(const std::vector<std::size_t>& machine_profile,
                                 std::size_t player) const;

    // The archived pre-sweep utility: dense product_for_each over the full
    // action tensor with a per-cell `weight *=` loop. Golden baseline for
    // the sparse walk's fuzz cross-validation; not for production call
    // sites.
    [[nodiscard]] double utility_reference(const std::vector<std::size_t>& machine_profile,
                                           std::size_t player) const;

    // True iff no player can gain more than `tol` by switching machines.
    [[nodiscard]] bool is_machine_equilibrium(const std::vector<std::size_t>& machine_profile,
                                              double tol = 1e-9) const;

    // Exhaustive machine-profile scan, parallelized over ranked blocks of
    // the profile odometer (fixed block size: results and work counters
    // are independent of worker count; blocks are merged in rank order,
    // so output matches the serial scan exactly).
    [[nodiscard]] std::vector<std::vector<std::size_t>> machine_equilibria(
        double tol = 1e-9, game::SweepMode mode = game::SweepMode::kAuto) const;

    // Best-response machine indices of `player` against the profile.
    [[nodiscard]] std::vector<std::size_t> best_machines(
        const std::vector<std::size_t>& machine_profile, std::size_t player,
        double tol = 1e-9) const;

    // The best-response dynamic starting from `start`; returns the cycle
    // it falls into (profiles revisited), demonstrating nonexistence
    // constructively for Example 3.3.
    [[nodiscard]] std::vector<std::vector<std::size_t>> best_response_cycle(
        std::vector<std::size_t> start, std::size_t max_steps = 100) const;

private:
    game::BayesianGame base_;
    MachineCost cost_;
    std::vector<std::vector<std::shared_ptr<Machine>>> machines_;
};

// Example 3.3: computational roshambo. Machine sets {rock, paper,
// scissors, uniform-random} for both players; cost: deterministic 1,
// randomized 1 + surcharge.
[[nodiscard]] MachineGame computational_roshambo(double randomized_surcharge = 1.0);

}  // namespace bnash::core
