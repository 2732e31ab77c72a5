// The CoalitionSweep robustness engine: parallel and serial sweeps must
// return IDENTICAL verdicts and violations, and both must match the PR-1
// serial reference checkers exactly — on the paper's catalog games, on
// random games, for pure and mixed candidate profiles.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/robust/coalition_sweep.h"
#include "core/robust/robustness.h"
#include "game/catalog.h"
#include "game/game_view.h"
#include "util/rng.h"
#include "util/work_counters.h"

namespace bnash::core {
namespace {

using game::ExactMixedProfile;
using game::NormalFormGame;
using game::PureProfile;
using game::SweepMode;
using util::Rational;

void expect_same_violation(const std::optional<RobustnessViolation>& a,
                           const std::optional<RobustnessViolation>& b,
                           const std::string& what) {
    ASSERT_EQ(a.has_value(), b.has_value()) << what;
    if (a && b) EXPECT_TRUE(*a == *b) << what << ": " << a->to_string() << " vs "
                                      << b->to_string();
}

void expect_all_checkers_agree(const NormalFormGame& g, const ExactMixedProfile& profile,
                               std::size_t k, std::size_t t, GainCriterion criterion,
                               const std::string& what) {
    RobustnessOptions serial{criterion, SweepMode::kSerial};
    RobustnessOptions parallel{criterion, SweepMode::kAuto};
    const auto via_serial = find_robustness_violation(g, profile, k, t, serial);
    const auto via_parallel = find_robustness_violation(g, profile, k, t, parallel);
    const auto via_reference =
        reference::find_robustness_violation(g, profile, k, t, RobustnessOptions{criterion});
    expect_same_violation(via_serial, via_parallel, what + " serial-vs-parallel");
    expect_same_violation(via_serial, via_reference, what + " sweep-vs-reference");
}

// ----------------------------------------------------- catalog equivalence

TEST(CoalitionSweep, MatchesReferenceOnCatalogGames) {
    for (const std::size_t n : {3u, 4u, 5u}) {
        const auto attack = game::catalog::attack_coordination_game(n);
        const auto all_zero = as_exact_profile(attack, PureProfile(n, 0));
        const auto bargaining = game::catalog::bargaining_game(n);
        const auto all_stay = as_exact_profile(bargaining, PureProfile(n, 0));
        for (std::size_t k = 0; k <= n; ++k) {
            for (std::size_t t = 0; t <= 2 && t < n; ++t) {
                if (k == 0 && t == 0) continue;
                const auto label = "n=" + std::to_string(n) + " k=" + std::to_string(k) +
                                   " t=" + std::to_string(t);
                expect_all_checkers_agree(attack, all_zero, k, t,
                                          GainCriterion::kAnyMemberGains, "attack " + label);
                expect_all_checkers_agree(bargaining, all_stay, k, t,
                                          GainCriterion::kAnyMemberGains,
                                          "bargaining " + label);
            }
        }
    }
}

TEST(CoalitionSweep, MatchesReferenceOnRandomGamesAndProfiles) {
    util::Rng rng{97};
    for (int trial = 0; trial < 12; ++trial) {
        const std::size_t n = 3 + static_cast<std::size_t>(trial % 2);
        std::vector<std::size_t> counts(n);
        for (auto& c : counts) c = static_cast<std::size_t>(rng.next_int(2, 3));
        const auto g = NormalFormGame::random(counts, rng, -4, 4);
        // Random PURE candidate (fast path).
        PureProfile pure(n);
        for (std::size_t i = 0; i < n; ++i) {
            pure[i] = static_cast<std::size_t>(
                rng.next_int(0, static_cast<std::int64_t>(counts[i]) - 1));
        }
        const auto profile = as_exact_profile(g, pure);
        const auto criterion = (trial % 3 == 0) ? GainCriterion::kAllMembersGain
                                                : GainCriterion::kAnyMemberGains;
        expect_all_checkers_agree(g, profile, 2, 1, criterion,
                                  "random pure trial " + std::to_string(trial));
    }
}

TEST(CoalitionSweep, MatchesReferenceOnMixedProfiles) {
    // Mixed candidates exercise the expected-utility fallback path.
    const auto mp = game::catalog::matching_pennies();
    const ExactMixedProfile uniform{{Rational{1, 2}, Rational{1, 2}},
                                    {Rational{1, 2}, Rational{1, 2}}};
    expect_all_checkers_agree(mp, uniform, 1, 1, GainCriterion::kAnyMemberGains,
                              "matching pennies uniform");

    util::Rng rng{101};
    const auto g = NormalFormGame::random({2, 2, 2}, rng, -3, 3);
    const ExactMixedProfile skewed{{Rational{1, 3}, Rational{2, 3}},
                                   {Rational{1}, Rational{0}},
                                   {Rational{3, 4}, Rational{1, 4}}};
    expect_all_checkers_agree(g, skewed, 2, 1, GainCriterion::kAnyMemberGains,
                              "random mixed");
}

// ---------------------------------------------------------- sweep surface

TEST(CoalitionSweep, DirectEngineMatchesFreeFunctions) {
    const auto g = game::catalog::attack_coordination_game(4);
    const auto all_zero = as_exact_profile(g, PureProfile(4, 0));
    const CoalitionSweep sweep(g, all_zero);
    const auto direct = sweep.robustness_violation(2, 1, RobustnessOptions{});
    const auto via_free = find_robustness_violation(g, all_zero, 2, 1);
    expect_same_violation(direct, via_free, "direct-vs-free");
    // Serial and parallel direct calls agree too.
    expect_same_violation(sweep.resilience_violation(2, 0, GainCriterion::kAnyMemberGains,
                                                     SweepMode::kSerial),
                          sweep.resilience_violation(2, 0, GainCriterion::kAnyMemberGains,
                                                     SweepMode::kAuto),
                          "direct serial-vs-parallel");
}

TEST(CoalitionSweep, ViolationPayloadPinsThePaperExample)
{
    // The attack game's first breaking pair in enumeration order is {0,1}
    // jointly switching to 1, earning 2 over the candidate 1.
    const auto g = game::catalog::attack_coordination_game(5);
    const auto all_zero = as_exact_profile(g, PureProfile(5, 0));
    const auto violation = find_resilience_violation(g, all_zero, 2);
    ASSERT_TRUE(violation.has_value());
    EXPECT_EQ(violation->coalition, (std::vector<std::size_t>{0, 1}));
    EXPECT_EQ(violation->coalition_deviation, (PureProfile{1, 1}));
    EXPECT_TRUE(violation->faulty.empty());
    EXPECT_EQ(violation->payoff_before, 1.0);
    EXPECT_EQ(violation->payoff_after, 2.0);
}

TEST(CoalitionSweep, EdgeCasesReturnNoViolation) {
    const auto pd = game::catalog::prisoners_dilemma();
    const auto both_defect = as_exact_profile(pd, {1, 1});
    const CoalitionSweep sweep(pd, both_defect);
    EXPECT_FALSE(sweep.immunity_violation(0).has_value());
    EXPECT_FALSE(
        sweep.resilience_violation(0, 1, GainCriterion::kAnyMemberGains).has_value());
}

// --------------------------------------------- degenerate batch frontiers
//
// The shifted violations[k-1]/[t-1] indexing in the batch verdicts must
// stay correct at the degenerate corners: empty budgets (max_k == 0,
// max_t == 0), single-profile games, and 1-player games. Every cell is
// pinned against the independent probe it stands in for.

void expect_frontier_matches_probes(const NormalFormGame& g, const ExactMixedProfile& profile,
                                    std::size_t max_k, std::size_t max_t,
                                    const std::string& what) {
    for (const auto mode : {SweepMode::kSerial, SweepMode::kAuto}) {
        const RobustnessOptions options{GainCriterion::kAnyMemberGains, mode};
        const auto frontier = batch_robustness_frontier(g, profile, max_k, max_t, options);
        ASSERT_EQ(frontier.cells.size(), (max_k + 1) * (max_t + 1)) << what;
        for (std::size_t k = 0; k <= max_k; ++k) {
            for (std::size_t t = 0; t <= max_t; ++t) {
                const auto independent = find_robustness_violation(g, profile, k, t, options);
                expect_same_violation(independent, frontier.violation(k, t),
                                      what + " cell k=" + std::to_string(k) +
                                          " t=" + std::to_string(t));
            }
        }
        // The boundary walk agrees with the grid cell for cell and never
        // resolves more cells than the grid holds.
        const auto walk = max_kt(g, profile, max_k, max_t, options);
        for (std::size_t k = 0; k <= max_k; ++k) {
            for (std::size_t t = 0; t <= max_t; ++t) {
                EXPECT_EQ(walk.robust(k, t), frontier.robust(k, t))
                    << what << " max_kt cell k=" << k << " t=" << t;
            }
        }
        EXPECT_LE(walk.cells_resolved, (max_k + 1) * (max_t + 1)) << what;
        // Batch verdict boundaries against their probe loops.
        const auto resilience = batch_resilience(g, profile, max_k, options);
        ASSERT_EQ(resilience.violations.size(), max_k) << what;
        for (std::size_t k = 1; k <= max_k; ++k) {
            expect_same_violation(find_resilience_violation(g, profile, k, options),
                                  resilience.violations[k - 1],
                                  what + " batch k=" + std::to_string(k));
        }
        const auto immunity = batch_immunity(g, profile, max_t, mode);
        ASSERT_EQ(immunity.violations.size(), max_t) << what;
        for (std::size_t t = 1; t <= max_t; ++t) {
            expect_same_violation(find_immunity_violation(g, profile, t),
                                  immunity.violations[t - 1],
                                  what + " batch t=" + std::to_string(t));
        }
    }
}

TEST(CoalitionSweep, DegenerateFrontierBudgets) {
    const auto g = game::catalog::attack_coordination_game(4);
    for (const std::size_t base : {0u, 1u}) {
        const auto profile = as_exact_profile(g, PureProfile(4, base));
        const std::string what = "attack base=" + std::to_string(base);
        expect_frontier_matches_probes(g, profile, 0, 0, what + " (0,0)");
        expect_frontier_matches_probes(g, profile, 0, 3, what + " (0,3)");
        expect_frontier_matches_probes(g, profile, 3, 0, what + " (3,0)");
    }
}

TEST(CoalitionSweep, DegenerateSingleProfileAndOnePlayerGames) {
    // Every player has ONE action: no deviation exists, so every cell of
    // every frontier is robust and every boundary sits at its budget.
    NormalFormGame single({1, 1, 1});
    for (std::size_t p = 0; p < 3; ++p) single.set_payoff({0, 0, 0}, p, Rational{p + 1});
    const auto single_profile = as_exact_profile(single, PureProfile(3, 0));
    expect_frontier_matches_probes(single, single_profile, 3, 2, "single-profile");
    const auto walk = max_kt(single, single_profile, 3, 2);
    EXPECT_EQ(walk.immunity_ok, 2u);
    EXPECT_EQ(walk.k_of_t, (std::vector<std::size_t>{3, 3, 3}));
    ASSERT_EQ(walk.maximal.size(), 1u);
    EXPECT_EQ(walk.maximal.front(), (std::pair<std::size_t, std::size_t>{3, 2}));

    // 1-player game: coalitions of size 1 exist, faulty sets leave no
    // outsiders to hurt.
    NormalFormGame solo({3});
    for (std::size_t a = 0; a < 3; ++a) solo.set_payoff({a}, 0, Rational{(a == 1) ? 5 : 2});
    const auto best = as_exact_profile(solo, PureProfile{1});
    const auto worst = as_exact_profile(solo, PureProfile{0});
    expect_frontier_matches_probes(solo, best, 1, 1, "solo best");
    expect_frontier_matches_probes(solo, worst, 1, 1, "solo worst");
    EXPECT_TRUE(is_kt_robust(solo, best, 1, 1));
    EXPECT_FALSE(is_k_resilient(solo, worst, 1));
}

// ------------------------------------------- exact order on rational payoffs

// Payoffs that stress the exact order: unequal denominators, near-equal
// rationals (1/3 vs 333333/1000000, 2/7 vs 285714/1000000), and values
// near +-2^62 where comparisons need 128-bit cross products — including
// two rationals just above 1 that differ by about 2^-124, so their
// doubles are equal while their order is not.
std::vector<Rational> stress_payoffs() {
    const std::int64_t big = (std::int64_t{1} << 62) - 1;
    return {Rational{1, 3},        Rational{333333, 1000000}, Rational{-1, 3},
            Rational{-333333, 1000000}, Rational{2, 7},       Rational{285714, 1000000},
            Rational{0},           Rational{1, 2},            Rational{1},
            Rational{big},         Rational{-big},            Rational{big, 3},
            Rational{-big, 7},     Rational{big - 1, big},    Rational{big, big - 1},
            Rational{big - 1, big - 2}};
}

NormalFormGame stress_game(util::Rng& rng, const std::vector<std::size_t>& counts) {
    const std::vector<Rational> pool = stress_payoffs();
    NormalFormGame g(counts);
    std::vector<Rational> values(g.payoffs_flat().size());
    for (Rational& value : values) value = pool[rng.next_below(pool.size())];
    g.assign_payoffs(std::move(values));
    return g;
}

// FNV-1a over a violation (or its absence) and the serial work counters,
// so one constant pins every verdict, witness and counter of the corpus.
struct Digest final {
    std::uint64_t hash = 14695981039346656037ULL;
    void mix(std::uint64_t value) {
        for (int byte = 0; byte < 8; ++byte) {
            hash ^= (value >> (8 * byte)) & 0xffU;
            hash *= 1099511628211ULL;
        }
    }
    void mix(const std::optional<RobustnessViolation>& v) {
        mix(v.has_value() ? 1 : 0);
        if (!v) return;
        for (const auto* list : {&v->coalition, &v->faulty, &v->coalition_deviation,
                                 &v->faulty_deviation}) {
            mix(list->size());
            for (const std::size_t x : *list) mix(x);
        }
        mix(v->witness_player);
        mix(std::bit_cast<std::uint64_t>(v->payoff_before));
        mix(std::bit_cast<std::uint64_t>(v->payoff_after));
    }
};

// Pure candidates on rational, near-tied and near-2^62 payoffs, on the
// full game and on restricted and permuted views: the serial sweep and
// the pool sweep both equal the reference checker on the materialized
// game, and the serial verdicts, witnesses
// (before/after doubles included) and work counters hash to the value
// the exact-Rational kernels produced.
TEST(CoalitionSweep, PureKernelsMatchReferenceOnRationalPayoffs) {
    const std::int64_t big = (std::int64_t{1} << 62) - 1;
    util::Rng rng{20261017};
    Digest digest;
    int broken = 0;
    for (int trial = 0; trial < 36; ++trial) {
        const std::size_t n = 3 + static_cast<std::size_t>(trial % 2);
        std::vector<std::size_t> counts(n);
        for (auto& c : counts) c = static_cast<std::size_t>(rng.next_int(2, 3));
        NormalFormGame g = stress_game(rng, counts);
        // The candidate never plays action 0, which the restricted views
        // drop for one player. Every third game pays the candidate cell
        // the pool's maximum to everyone (no coalition gains: full
        // resilience scans) and every third the minimum (no outsider is
        // hurt: full immunity scans).
        PureProfile candidate(n);
        for (std::size_t p = 0; p < n; ++p) candidate[p] = 1 + rng.next_below(counts[p] - 1);
        if (trial % 3 != 0) {
            const Rational extreme{trial % 3 == 1 ? big : -big};
            g.set_payoffs(candidate, std::vector<Rational>(n, extreme));
        }
        const std::size_t dropped = static_cast<std::size_t>(trial) % n;
        std::vector<std::vector<std::size_t>> kept(n);
        for (std::size_t p = 0; p < n; ++p) {
            for (std::size_t a = p == dropped ? 1 : 0; a < counts[p]; ++a) kept[p].push_back(a);
        }
        std::vector<std::size_t> order(n);
        for (std::size_t p = 0; p < n; ++p) order[p] = n - 1 - p;
        const std::vector<game::GameView> views{
            game::GameView::full(g), game::GameView::restrict(g, kept),
            game::GameView::permute(g, order).restrict(
                std::vector<std::vector<std::size_t>>(kept.rbegin(), kept.rend()))};
        for (std::size_t v = 0; v < views.size(); ++v) {
            const game::GameView& view = views[v];
            const NormalFormGame flat = view.materialize();
            PureProfile pure(n);
            for (std::size_t p = 0; p < n; ++p) {
                const std::size_t parent = view.parent_player(p);
                pure[p] = candidate[parent] - (v > 0 && parent == dropped ? 1 : 0);
            }
            const ExactMixedProfile profile = as_exact_profile(flat, pure);
            const GainCriterion criterion = trial % 4 == 0 ? GainCriterion::kAllMembersGain
                                                           : GainCriterion::kAnyMemberGains;
            const std::size_t k = 1 + static_cast<std::size_t>(trial) % 2;
            const std::size_t t = static_cast<std::size_t>(trial / 3) % 2;
            const std::string what = "trial " + std::to_string(trial) + " view " +
                                     std::to_string(v) + " k=" + std::to_string(k) +
                                     " t=" + std::to_string(t);
            const CoalitionSweep sweep(view, profile);
            const auto expected = reference::find_robustness_violation(flat, profile, k, t,
                                                                       RobustnessOptions{criterion});
            util::work_counters_reset();
            const auto serial =
                sweep.robustness_violation(k, t, RobustnessOptions{criterion, SweepMode::kSerial});
            const util::WorkCounters work = util::work_counters_snapshot();
            expect_same_violation(serial, expected, what + " serial-vs-reference");
            expect_same_violation(sweep.robustness_violation(k, t, RobustnessOptions{criterion}),
                                  expected, what + " auto-vs-reference");
            util::work_counters_reset();
            const auto immunity = sweep.immunity_violation(2, SweepMode::kSerial);
            const util::WorkCounters immunity_work = util::work_counters_snapshot();
            expect_same_violation(immunity, reference::find_immunity_violation(flat, profile, 2),
                                  what + " immunity-vs-reference");
            digest.mix(serial);
            digest.mix(work.cells_visited);
            digest.mix(work.offsets_advanced);
            digest.mix(immunity);
            digest.mix(immunity_work.cells_visited);
            digest.mix(immunity_work.offsets_advanced);
            broken += serial.has_value() ? 1 : 0;
            broken += immunity.has_value() ? 1 : 0;
        }
    }
    // Both outcomes occur, so the corpus exercises witnesses and full
    // sweeps alike.
    EXPECT_GT(broken, 0);
    EXPECT_LT(broken, 36 * 3 * 2);
    EXPECT_EQ(digest.hash, 9499134786432498641ULL);
}

}  // namespace
}  // namespace bnash::core
