// Anonymous binary-action games with O(k) robustness checks.
//
// The paper's Section 2 examples (the attack/coordination game and the
// bargaining game) are ANONYMOUS: a player's payoff depends only on its
// own action and on HOW MANY players chose 1, not on who. For such games
// the payoff tensor (2^n entries) never needs materializing, and checking
// k-resilience / t-immunity of a symmetric profile reduces to scanning
// deviation counts -- the benches sweep these games to n = 50 and beyond,
// far past what the generic checkers can store. Cross-validated against
// the exact tensor checkers for small n in the tests.
//
// LARGE-n path: the closed-form scans are the fast path, but at very
// large n the O(k^2) (coalition size, switcher count) pair scan itself
// dominates (each pair costs a PayoffFn call). Both scans run as
// fixed-size blocks through util::first_hit: block 0 inline, and in kAuto
// mode the rest on util::global_pool() only when block 0 found nothing.
// Verdicts, boundaries and PayoffFn exceptions are those of the serial
// scan in both modes (cross-validated in test_robust_fuzz against serial
// scans at large n and against tensor twins at small n). The scans run
// outside any active util::ExecutionGrant: their answers are always
// exact.
#pragma once

#include <cstddef>
#include <functional>

#include "core/robust/robustness.h"
#include "game/normal_form.h"
#include "game/symmetry.h"
#include "util/rational.h"

namespace bnash::core {

class AnonymousBinaryGame final {
public:
    // payoff(action, total_ones, n): utility of a player choosing `action`
    // when `total_ones` players (including itself) chose 1. Must be safe
    // to call concurrently (the pooled large-n scans invoke it from
    // several workers); pure functions of the arguments always are.
    using PayoffFn =
        std::function<util::Rational(std::size_t action, std::size_t total_ones, std::size_t n)>;

    AnonymousBinaryGame(std::size_t num_players, PayoffFn payoff);

    // Section 2's games.
    static AnonymousBinaryGame attack(std::size_t num_players);
    static AnonymousBinaryGame bargaining(std::size_t num_players);

    // Data-driven construction: table[action][total_ones] with
    // total_ones = 0..n (so each row has n+1 entries). The randomized
    // cross-validation harness feeds arbitrary tables through this.
    static AnonymousBinaryGame from_table(std::vector<std::vector<util::Rational>> table);

    [[nodiscard]] std::size_t num_players() const noexcept { return n_; }
    [[nodiscard]] util::Rational payoff(std::size_t action, std::size_t total_ones) const;

    // Checks on the symmetric profile "everyone plays base_action":
    [[nodiscard]] bool all_base_is_nash(std::size_t base_action) const;
    [[nodiscard]] bool all_base_is_k_resilient(
        std::size_t base_action, std::size_t k,
        GainCriterion criterion = GainCriterion::kAnyMemberGains,
        game::SweepMode mode = game::SweepMode::kAuto) const;
    [[nodiscard]] bool all_base_is_t_immune(
        std::size_t base_action, std::size_t t,
        game::SweepMode mode = game::SweepMode::kAuto) const;

    // Smallest coalition size that can profitably deviate from all-base
    // (searching up to max_k); 0 when none found. One (c, j) pair scan —
    // not max_k probe restarts — serial or pooled (identical boundary).
    [[nodiscard]] std::size_t min_breaking_coalition(
        std::size_t base_action, std::size_t max_k,
        game::SweepMode mode = game::SweepMode::kAuto) const;

    // Largest t <= max_t such that all-base is t-immune (0 when not even
    // 1-immune): the anonymous sibling of core::batch_immunity's max_ok,
    // found in ONE O(max_t) scan over switcher counts.
    [[nodiscard]] std::size_t max_immunity(std::size_t base_action, std::size_t max_t,
                                           game::SweepMode mode = game::SweepMode::kAuto) const;

    // Materializes the payoff tensor (small n only; throws above 16).
    [[nodiscard]] game::NormalFormGame to_normal_form() const;

    // The single-class game::QuotientGame of this game — one payoff per
    // (own action, #ones among the other n-1 players) — built from the
    // closed form without any tensor. Pair with
    // game::SymmetryGroup::single_class(n) to run core::OrbitSweep
    // frontiers at n far beyond what to_normal_form() can materialize.
    [[nodiscard]] game::QuotientGame quotient() const;

private:
    [[nodiscard]] std::size_t min_breaking_coalition_impl(std::size_t base_action,
                                                          std::size_t max_k,
                                                          GainCriterion criterion,
                                                          game::SweepMode mode) const;
    [[nodiscard]] std::size_t first_harmful_switchers(std::size_t base_action,
                                                      std::size_t limit,
                                                      game::SweepMode mode) const;

    std::size_t n_;
    PayoffFn payoff_;
};

}  // namespace bnash::core
