// Tests for the Nash solvers: verification oracles, iterated elimination,
// support enumeration, Lemke-Howson, zero-sum LP, and learning dynamics.
// Cross-validation property: every equilibrium any solver returns must
// pass the independent verification oracle.
#include <gtest/gtest.h>

#include <algorithm>

#include "game/catalog.h"
#include "game/payoff_engine.h"
#include "solver/iterated_elimination.h"
#include "solver/learning.h"
#include "solver/lemke_howson.h"
#include "solver/support_enumeration.h"
#include "solver/verification.h"
#include "solver/zero_sum.h"
#include "util/rng.h"

namespace bnash::solver {
namespace {

using game::MixedProfile;
using game::PureProfile;
using game::catalog::attack_coordination_game;
using game::catalog::bargaining_game;
using game::catalog::battle_of_the_sexes;
using game::catalog::chicken;
using game::catalog::coordination;
using game::catalog::matching_pennies;
using game::catalog::prisoners_dilemma;
using game::catalog::roshambo;
using game::catalog::stag_hunt;
using util::Rational;

// ------------------------------------------------------------ verification

TEST(Verification, PrisonersDilemmaDefectIsUniquePureNash) {
    const auto pd = prisoners_dilemma();
    const auto equilibria = pure_nash_equilibria(pd);
    ASSERT_EQ(equilibria.size(), 1u);
    EXPECT_EQ(equilibria[0], (PureProfile{1, 1}));
    EXPECT_TRUE(is_pure_nash(pd, {1, 1}));
    EXPECT_FALSE(is_pure_nash(pd, {0, 0}));
}

TEST(Verification, DefectDefectIsParetoDominatedByCooperate) {
    // The paper: "(C,C) gives both players a better payoff than (D,D)".
    const auto pd = prisoners_dilemma();
    EXPECT_TRUE(is_pareto_dominated(pd, {1, 1}));
    EXPECT_FALSE(is_pareto_dominated(pd, {0, 0}));
}

// The pure questions read ordinal ranks; this oracle reads the exact
// payoffs and knows nothing of the store.
struct PureOracle {
    const game::NormalFormGame& g;

    [[nodiscard]] const Rational& u(const PureProfile& profile, std::size_t player) const {
        return g.payoff(profile, player);
    }
    [[nodiscard]] bool nash(const PureProfile& profile) const {
        for (std::size_t p = 0; p < g.num_players(); ++p) {
            PureProfile deviated = profile;
            for (std::size_t a = 0; a < g.num_actions(p); ++a) {
                deviated[p] = a;
                if (u(deviated, p) > u(profile, p)) return false;
            }
        }
        return true;
    }
    [[nodiscard]] bool pareto_dominated(const PureProfile& profile) const {
        for (std::uint64_t rank = 0; rank < g.num_profiles(); ++rank) {
            const PureProfile other = g.profile_unrank(rank);
            bool all_at_least = true;
            bool some_better = false;
            for (std::size_t p = 0; p < g.num_players(); ++p) {
                all_at_least = all_at_least && u(other, p) >= u(profile, p);
                some_better = some_better || u(other, p) > u(profile, p);
            }
            if (all_at_least && some_better) return true;
        }
        return false;
    }
    // Some other action of `player` beats `action` against every opponent
    // profile (strict), or never loses and once wins (weak).
    [[nodiscard]] bool dominated(std::size_t player, std::size_t action, bool strict) const {
        for (std::size_t b = 0; b < g.num_actions(player); ++b) {
            if (b == action) continue;
            bool holds = true;
            bool somewhere_better = false;
            for (std::uint64_t rank = 0; rank < g.num_profiles() && holds; ++rank) {
                PureProfile profile = g.profile_unrank(rank);
                if (profile[player] != action) continue;
                const Rational& mine = u(profile, player);
                profile[player] = b;
                const Rational& theirs = u(profile, player);
                holds = strict ? theirs > mine : theirs >= mine;
                somewhere_better = somewhere_better || theirs > mine;
            }
            if (holds && (strict || somewhere_better)) return true;
        }
        return false;
    }
};

// Every answer of the pure questions on one game, in a fixed order.
std::vector<bool> pure_answers(const game::NormalFormGame& g) {
    std::vector<bool> out;
    for (std::uint64_t rank = 0; rank < g.num_profiles(); ++rank) {
        const PureProfile profile = g.profile_unrank(rank);
        out.push_back(is_pure_nash(g, profile));
        out.push_back(is_pareto_dominated(g, profile));
    }
    for (std::size_t p = 0; p < g.num_players(); ++p) {
        for (std::size_t a = 0; a < g.num_actions(p); ++a) {
            out.push_back(is_dominated(g, p, a, DominanceKind::kStrictPure));
            out.push_back(is_dominated(g, p, a, DominanceKind::kWeakPure));
        }
    }
    return out;
}

TEST(Verification, OrdinalPureQuestionsMatchExactOracleWithTies) {
    util::Rng rng{3119};
    for (int trial = 0; trial < 60; ++trial) {
        std::vector<std::size_t> counts(2 + rng.next_below(4));
        for (std::size_t& count : counts) count = 2 + rng.next_below(3);
        game::NormalFormGame g(counts);
        const std::size_t n = counts.size();
        // Non-integer payoffs drawn from a few values per player, so ties
        // are common; then a quarter of the cells copy the payoff the same
        // player gets at action 0 against the same opponents.
        std::vector<Rational> values(g.num_profiles() * n);
        for (Rational& value : values) value = Rational{2 * rng.next_int(-2, 2) + 1, 6};
        for (std::uint64_t rank = 0; rank < g.num_profiles(); ++rank) {
            PureProfile profile = g.profile_unrank(rank);
            for (std::size_t p = 0; p < n; ++p) {
                if (!rng.next_bool(0.25)) continue;
                PureProfile first = profile;
                first[p] = 0;
                values[rank * n + p] = values[g.profile_rank(first) * n + p];
            }
        }
        g.assign_payoffs(values);
        const std::string label = "trial " + std::to_string(trial);

        const PureOracle oracle{g};
        std::vector<PureProfile> want_nash;
        for (std::uint64_t rank = 0; rank < g.num_profiles(); ++rank) {
            const PureProfile profile = g.profile_unrank(rank);
            if (oracle.nash(profile)) want_nash.push_back(profile);
            EXPECT_EQ(is_pure_nash(g, profile), oracle.nash(profile)) << label;
            EXPECT_EQ(is_pareto_dominated(g, profile), oracle.pareto_dominated(profile)) << label;
        }
        EXPECT_EQ(pure_nash_equilibria(g), want_nash) << label;
        for (std::size_t p = 0; p < n; ++p) {
            for (std::size_t a = 0; a < counts[p]; ++a) {
                EXPECT_EQ(is_dominated(g, p, a, DominanceKind::kStrictPure),
                          oracle.dominated(p, a, true))
                    << label << " player " << p << " action " << a;
                EXPECT_EQ(is_dominated(g, p, a, DominanceKind::kWeakPure),
                          oracle.dominated(p, a, false))
                    << label << " player " << p << " action " << a;
            }
        }

        // A strictly increasing remap of each player's levels keeps every
        // answer.
        std::vector<std::vector<Rational>> remapped(n);
        for (std::size_t p = 0; p < n; ++p) {
            Rational level{rng.next_int(-20, 20), 7};
            for (std::size_t r = 0; r < g.levels(p).size(); ++r) {
                remapped[p].push_back(level);
                level += Rational{rng.next_int(1, 5), rng.next_int(2, 9)};
            }
        }
        const game::NormalFormGame moved = g.with_levels(std::move(remapped));
        EXPECT_EQ(pure_nash_equilibria(moved), want_nash) << label;
        EXPECT_EQ(pure_answers(moved), pure_answers(g)) << label;
    }
}

TEST(Verification, MatchingPenniesHasNoPureNash) {
    EXPECT_TRUE(pure_nash_equilibria(matching_pennies()).empty());
}

TEST(Verification, AttackGameAllZeroIsNash) {
    // Section 2: "Clearly everyone playing 0 is a Nash equilibrium".
    const auto g = attack_coordination_game(5);
    EXPECT_TRUE(is_pure_nash(g, PureProfile(5, 0)));
}

TEST(Verification, BargainingAllStayIsNash) {
    const auto g = bargaining_game(4);
    EXPECT_TRUE(is_pure_nash(g, PureProfile(4, 0)));
}

TEST(Verification, MixedNashVerifiedApproximately) {
    const auto mp = matching_pennies();
    const MixedProfile uniform{game::uniform_strategy(2), game::uniform_strategy(2)};
    EXPECT_TRUE(is_nash(mp, uniform));
    // Row is indifferent when col is uniform, but col now strictly prefers
    // to exploit the skew: not an equilibrium.
    const MixedProfile skewed{{0.6, 0.4}, {0.5, 0.5}};
    EXPECT_FALSE(is_nash(mp, skewed));
    EXPECT_TRUE(is_epsilon_nash(mp, skewed, 0.21));  // col's gain is 0.2
    const MixedProfile bad{{0.6, 0.4}, {0.9, 0.1}};
    EXPECT_FALSE(is_nash(mp, bad));
}

TEST(Verification, ExactNashCheck) {
    const auto mp = matching_pennies();
    const game::ExactMixedProfile uniform{{Rational{1, 2}, Rational{1, 2}},
                                          {Rational{1, 2}, Rational{1, 2}}};
    EXPECT_TRUE(is_nash_exact(mp, uniform));
    const game::ExactMixedProfile off{{Rational{1, 2}, Rational{1, 2}},
                                      {Rational{1, 3}, Rational{2, 3}}};
    EXPECT_FALSE(is_nash_exact(mp, off));
}

// ----------------------------------------------------- iterated elimination

TEST(Elimination, PrisonersDilemmaSolvesByStrictDominance) {
    const auto result = iterated_elimination(prisoners_dilemma(), DominanceKind::kStrictPure);
    EXPECT_EQ(result.reduced.num_actions(0), 1u);
    EXPECT_EQ(result.reduced.num_actions(1), 1u);
    EXPECT_EQ(result.kept[0], (std::vector<std::size_t>{1}));  // only D survives
    EXPECT_EQ(result.kept[1], (std::vector<std::size_t>{1}));
    EXPECT_EQ(result.trace.size(), 2u);
}

TEST(Elimination, MatchingPenniesIrreducible) {
    const auto result = iterated_elimination(matching_pennies(), DominanceKind::kStrictPure);
    EXPECT_EQ(result.reduced.num_actions(0), 2u);
    EXPECT_EQ(result.reduced.num_actions(1), 2u);
    EXPECT_TRUE(result.trace.empty());
}

TEST(Elimination, MixedDominanceBeatsPureOnlyTest) {
    // Row actions: T (4,0), M (0,4), B (1,1) against two columns; B is not
    // pure-dominated but is strictly dominated by the mixture (1/2, 1/2).
    game::NormalFormGame g({3, 2});
    g.set_payoffs({0, 0}, {4, 0});
    g.set_payoffs({0, 1}, {0, 0});
    g.set_payoffs({1, 0}, {0, 0});
    g.set_payoffs({1, 1}, {4, 0});
    g.set_payoffs({2, 0}, {1, 0});
    g.set_payoffs({2, 1}, {1, 0});
    EXPECT_FALSE(is_dominated(g, 0, 2, DominanceKind::kStrictPure));
    EXPECT_TRUE(is_dominated(g, 0, 2, DominanceKind::kStrictMixed));
    const auto result = iterated_elimination(g, DominanceKind::kStrictMixed);
    EXPECT_EQ(result.kept[0], (std::vector<std::size_t>{0, 1}));
}

TEST(Elimination, WeakDominanceExample) {
    // Column 1 weakly dominates column 0 (ties in row 0, better in row 1).
    game::NormalFormGame g({2, 2});
    g.set_payoffs({0, 0}, {1, 1});
    g.set_payoffs({0, 1}, {1, 1});
    g.set_payoffs({1, 0}, {0, 0});
    g.set_payoffs({1, 1}, {0, 2});
    EXPECT_TRUE(is_dominated(g, 1, 0, DominanceKind::kWeakPure));
    EXPECT_FALSE(is_dominated(g, 1, 0, DominanceKind::kStrictPure));
}

// Property: strict iterated elimination never removes an action that any
// Nash equilibrium plays with positive probability (the classical
// survival theorem) -- random 2-player games.
class EliminationPreservesNash : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EliminationPreservesNash, NashSupportsSurviveStrictIesds) {
    util::Rng rng{GetParam() * 6151};
    const auto g = game::NormalFormGame::random({4, 4}, rng, -6, 6);
    const auto result = iterated_elimination(g, DominanceKind::kStrictPure);
    for (const auto& eq : support_enumeration(g)) {
        for (std::size_t player = 0; player < 2; ++player) {
            for (std::size_t action = 0; action < 4; ++action) {
                if (eq.profile[player][action].is_zero()) continue;
                const auto& kept = result.kept[player];
                EXPECT_NE(std::find(kept.begin(), kept.end(), action), kept.end())
                    << "player " << player << " action " << action
                    << " eliminated despite equilibrium support";
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EliminationPreservesNash,
                         ::testing::Range<std::uint64_t>(1, 31));

// ------------------------------------------------------ support enumeration

TEST(SupportEnumeration, MatchingPenniesUniqueUniform) {
    const auto pennies = matching_pennies();
    const auto equilibria = support_enumeration(pennies);
    ASSERT_EQ(equilibria.size(), 1u);
    const auto& eq = equilibria[0];
    EXPECT_EQ(eq.profile[0], (game::ExactMixedStrategy{Rational{1, 2}, Rational{1, 2}}));
    EXPECT_EQ(eq.profile[1], (game::ExactMixedStrategy{Rational{1, 2}, Rational{1, 2}}));
    EXPECT_EQ(eq.payoffs[0], Rational{0});
}

TEST(SupportEnumeration, RoshamboUniqueUniformThirds) {
    // Example 3.3: "the unique Nash equilibrium has the players randomizing
    // uniformly between 0, 1, and 2".
    const auto rps = roshambo();
    const auto equilibria = support_enumeration(rps);
    ASSERT_EQ(equilibria.size(), 1u);
    for (std::size_t player = 0; player < 2; ++player) {
        for (std::size_t action = 0; action < 3; ++action) {
            EXPECT_EQ(equilibria[0].profile[player][action], Rational(1, 3));
        }
    }
}

TEST(SupportEnumeration, BattleOfTheSexesHasThreeEquilibria) {
    const auto bos = battle_of_the_sexes();
    const auto equilibria = support_enumeration(bos);
    EXPECT_EQ(equilibria.size(), 3u);  // two pure + one mixed
    int pure_count = 0;
    for (const auto& eq : equilibria) {
        const bool pure = std::all_of(eq.profile.begin(), eq.profile.end(),
                                      [](const game::ExactMixedStrategy& s) {
                                          return std::any_of(
                                              s.begin(), s.end(),
                                              [](const Rational& p) { return p == Rational{1}; });
                                      });
        pure_count += pure;
    }
    EXPECT_EQ(pure_count, 2);
}

TEST(SupportEnumeration, PrisonersDilemmaOnlyDefect) {
    const auto pd = prisoners_dilemma();
    const auto equilibria = support_enumeration(pd);
    ASSERT_EQ(equilibria.size(), 1u);
    EXPECT_EQ(equilibria[0].profile[0][1], Rational{1});
    EXPECT_EQ(equilibria[0].payoffs[0], Rational{-3});
}

class SupportEnumerationProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SupportEnumerationProperty, AllReturnedEquilibriaVerifyExactly) {
    util::Rng rng{GetParam()};
    const auto g = game::NormalFormGame::random({3, 3}, rng, -5, 5);
    const auto equilibria = support_enumeration(g);
    for (const auto& eq : equilibria) {
        EXPECT_TRUE(is_nash_exact(g, eq.profile));
        EXPECT_TRUE(game::is_exact_distribution(eq.profile[0]));
        EXPECT_TRUE(game::is_exact_distribution(eq.profile[1]));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SupportEnumerationProperty,
                         ::testing::Range<std::uint64_t>(1, 41));

// ------------------------------------------------------------ Lemke-Howson

TEST(LemkeHowson, FindsMatchingPenniesEquilibrium) {
    const auto pennies = matching_pennies();
    const auto eq = lemke_howson(pennies, 0);
    ASSERT_TRUE(eq.has_value());
    EXPECT_TRUE(is_nash_exact(pennies, eq->profile));
    EXPECT_EQ(eq->profile[0][0], Rational(1, 2));
}

TEST(LemkeHowson, FindsRoshamboEquilibrium) {
    const auto rps = roshambo();
    const auto eq = lemke_howson(rps, 0);
    ASSERT_TRUE(eq.has_value());
    for (std::size_t action = 0; action < 3; ++action) {
        EXPECT_EQ(eq->profile[0][action], Rational(1, 3));
        EXPECT_EQ(eq->profile[1][action], Rational(1, 3));
    }
}

TEST(LemkeHowson, AllLabelsOnBattleOfTheSexes) {
    const auto bos = battle_of_the_sexes();
    const auto equilibria = lemke_howson_all_labels(bos);
    // LH reaches the two pure equilibria from different labels (the mixed
    // one has index 2 and may or may not be reached); all must verify.
    EXPECT_GE(equilibria.size(), 2u);
    for (const auto& eq : equilibria) {
        EXPECT_TRUE(is_nash_exact(bos, eq.profile));
    }
}

TEST(LemkeHowson, ReportsPivotStats) {
    LemkeHowsonStats stats;
    const auto rps = roshambo();
    const auto eq = lemke_howson(rps, 0, 1000, &stats);
    ASSERT_TRUE(eq.has_value());
    EXPECT_GT(stats.pivots, 0u);
}

class LemkeHowsonProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LemkeHowsonProperty, AgreesWithVerifierOnRandomGames) {
    util::Rng rng{GetParam() * 7919};
    const auto g = game::NormalFormGame::random({4, 4}, rng, -9, 9);
    for (std::size_t label = 0; label < 8; ++label) {
        const auto eq = lemke_howson(g, label);
        if (!eq) continue;  // degenerate cap: allowed
        EXPECT_TRUE(is_nash_exact(g, eq->profile))
            << "label " << label << " produced a non-equilibrium";
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LemkeHowsonProperty,
                         ::testing::Range<std::uint64_t>(1, 41));

// ----------------------------------------------------------------- ZeroSum

TEST(ZeroSum, RoshamboValueZeroUniform) {
    const auto solution = solve_zero_sum(roshambo());
    EXPECT_NEAR(solution.value, 0.0, 1e-7);
    for (std::size_t a = 0; a < 3; ++a) {
        EXPECT_NEAR(solution.row_strategy[a], 1.0 / 3.0, 1e-6);
        EXPECT_NEAR(solution.col_strategy[a], 1.0 / 3.0, 1e-6);
    }
}

TEST(ZeroSum, RejectsNonZeroSum) {
    EXPECT_THROW((void)solve_zero_sum(prisoners_dilemma()), std::logic_error);
}

TEST(ZeroSum, AsymmetricGameValue) {
    // Row payoffs [[2, -1], [-1, 1]]: value = 1/5 with x = (2/5, 3/5).
    util::MatrixQ a(2, 2);
    a(0, 0) = 2;
    a(0, 1) = -1;
    a(1, 0) = -1;
    a(1, 1) = 1;
    const auto solution = solve_zero_sum(game::NormalFormGame::zero_sum(a));
    EXPECT_NEAR(solution.value, 0.2, 1e-7);
    EXPECT_NEAR(solution.row_strategy[0], 0.4, 1e-6);
}

class ZeroSumAgreesWithExactSolvers : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ZeroSumAgreesWithExactSolvers, ValueMatchesSupportEnumeration) {
    util::Rng rng{GetParam() * 104729};
    util::MatrixQ a(3, 3);
    for (std::size_t r = 0; r < 3; ++r) {
        for (std::size_t c = 0; c < 3; ++c) a(r, c) = rng.next_int(-5, 5);
    }
    const auto g = game::NormalFormGame::zero_sum(a);
    const auto lp = solve_zero_sum(g);
    const auto exact = support_enumeration(g);
    ASSERT_FALSE(exact.empty());
    // All equilibria of a zero-sum game share the same value.
    for (const auto& eq : exact) {
        EXPECT_NEAR(eq.payoffs[0].to_double(), lp.value, 1e-6);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ZeroSumAgreesWithExactSolvers,
                         ::testing::Range<std::uint64_t>(1, 31));

// ---------------------------------------------------------------- learning

TEST(Learning, FictitiousPlayConvergesOnMatchingPennies) {
    LearningOptions options;
    options.max_iterations = 20'000;
    options.target_regret = 5e-3;
    const auto result = fictitious_play(matching_pennies(), options);
    EXPECT_TRUE(result.converged);
    EXPECT_NEAR(result.profile[0][0], 0.5, 0.05);
    EXPECT_NEAR(result.profile[1][0], 0.5, 0.05);
}

TEST(Learning, FictitiousPlaySolvesPrisonersDilemmaImmediately) {
    const auto result = fictitious_play(prisoners_dilemma());
    EXPECT_TRUE(result.converged);
    EXPECT_GT(result.profile[0][1], 0.9);  // mass concentrates on defect
}

TEST(Learning, ReplicatorConvergesOnDominanceSolvableGame) {
    LearningOptions options;
    options.max_iterations = 50'000;
    options.target_regret = 1e-3;
    const auto result = replicator_dynamics(prisoners_dilemma(), options);
    EXPECT_TRUE(result.converged);
    EXPECT_GT(result.profile[0][1], 0.99);
}

TEST(Learning, ReplicatorStaysOnSimplex) {
    LearningOptions options;
    options.max_iterations = 500;
    const auto result = replicator_dynamics(roshambo(), options);
    for (const auto& strategy : result.profile) {
        EXPECT_TRUE(game::is_distribution(strategy, 1e-6));
    }
}

TEST(Learning, RegretTraceIsRecorded) {
    LearningOptions options;
    options.max_iterations = 1000;
    options.trace_every = 100;
    options.target_regret = -1.0;  // unreachable: force the full run
    const auto result = fictitious_play(matching_pennies(), options);
    EXPECT_GE(result.regret_trace.size(), 9u);
}

TEST(Learning, FictitiousPlayOnCoordinationPicksAnEquilibrium) {
    const auto result = fictitious_play(coordination());
    EXPECT_TRUE(result.converged);
    EXPECT_TRUE(is_nash(coordination(), result.profile, 1e-2));
}

// N-player: fictitious play on the bargaining game reaches all-stay or an
// all-leave-ish equilibrium; either way regret must vanish.
TEST(Learning, FictitiousPlayHandlesNPlayerGames) {
    LearningOptions options;
    options.max_iterations = 5000;
    options.target_regret = 1e-2;
    const auto result = fictitious_play(bargaining_game(4), options);
    EXPECT_TRUE(result.converged);
}

// Cross-solver property: on random 2-player games, every support-
// enumeration equilibrium is found "stable" by the verifier, and LH (when
// it succeeds) lands in the same set for nondegenerate draws.
class CrossSolverProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrossSolverProperty, LemkeHowsonEquilibriumIsAmongSupportEnumeration) {
    util::Rng rng{GetParam() * 15485863};
    const auto g = game::NormalFormGame::random({3, 4}, rng, -7, 7);
    const auto all = support_enumeration(g);
    const auto lh = lemke_howson(g, 0);
    if (!lh) return;
    const bool found = std::any_of(all.begin(), all.end(), [&](const MixedEquilibrium& eq) {
        return eq.profile == lh->profile;
    });
    // Degenerate games can have LH land on a component vertex that support
    // enumeration (equal-size supports) misses; the verifier is the final
    // arbiter in that case.
    if (!found) {
        EXPECT_TRUE(is_nash_exact(g, lh->profile));
    } else {
        SUCCEED();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossSolverProperty,
                         ::testing::Range<std::uint64_t>(1, 31));

TEST(Solvers, StagHuntAndChickenEquilibriumCounts) {
    EXPECT_EQ(pure_nash_equilibria(stag_hunt()).size(), 2u);
    EXPECT_EQ(pure_nash_equilibria(chicken()).size(), 2u);
    const auto stag = stag_hunt();
    EXPECT_EQ(support_enumeration(stag).size(), 3u);
}

// ------------------------------------------------------------ view solvers

// Both 2-player solvers accept a GameView: an elimination-reduced game is
// solved WITHOUT materializing its tensor, and the equilibria match
// solving the materialized copy exactly.
TEST(ViewSolvers, SolveEliminationReducedViewWithoutMaterializing) {
    int reduced_games = 0;
    for (std::uint64_t seed = 1; reduced_games < 8 && seed <= 60; ++seed) {
        util::Rng game_rng{seed * 2731};
        const auto g = game::NormalFormGame::random({4, 4}, game_rng, -6, 6);
        const auto by_views = iterated_elimination_view(g, DominanceKind::kStrictPure);
        if (by_views.trace.empty()) continue;  // nothing eliminated: not interesting
        ++reduced_games;
        const auto materialized = by_views.reduced.materialize();

        const auto before = game::NormalFormGame::tensor_allocations();
        const auto via_view = support_enumeration(by_views.reduced);
        const auto lh_view = lemke_howson(by_views.reduced, 0);
        EXPECT_EQ(game::NormalFormGame::tensor_allocations(), before)
            << "seed " << seed << ": view solvers must not allocate a tensor";

        const auto via_copy = support_enumeration(materialized);
        ASSERT_EQ(via_view.size(), via_copy.size()) << "seed " << seed;
        for (std::size_t i = 0; i < via_view.size(); ++i) {
            EXPECT_EQ(via_view[i].profile, via_copy[i].profile) << "seed " << seed;
            EXPECT_EQ(via_view[i].payoffs, via_copy[i].payoffs) << "seed " << seed;
        }
        const auto lh_copy = lemke_howson(materialized, 0);
        ASSERT_EQ(lh_view.has_value(), lh_copy.has_value()) << "seed " << seed;
        if (lh_view && lh_copy) {
            EXPECT_EQ(lh_view->profile, lh_copy->profile) << "seed " << seed;
            EXPECT_EQ(lh_view->payoffs, lh_copy->payoffs) << "seed " << seed;
        }
    }
    EXPECT_EQ(reduced_games, 8) << "random draw produced too few reducible games";
}

// The dynamics' best-response tie tolerance and the verifier's default
// deviation tolerance are ONE shared constant now; a payoff gap below it
// is a tie for both. Previously fictitious play hardcoded its own copy —
// this pins the wiring so they cannot drift apart again.
TEST(Learning, TieToleranceSharedWithNashVerifier) {
    // 1-player, 2-action game with a sub-tolerance payoff gap: action 1
    // "wins" by less than kNashTolerance.
    game::NormalFormGame g({2});
    g.set_payoff({0}, 0, util::Rational{1});
    // 1 + tol/2 exactly: a gap of 5e-10, below the 1e-9 tolerance.
    g.set_payoff({1}, 0, util::Rational{2'000'000'001, 2'000'000'000});

    // At the shared tolerance the two actions tie, and ties break toward
    // the lowest index — exactly the indifference is_nash certifies.
    const auto row = game::deviation_row(g, {game::uniform_strategy(2)}, 0);
    const auto tied = game::best_responses_from(row, kNashTolerance);
    ASSERT_EQ(tied.size(), 2u);
    EXPECT_EQ(tied.front(), 0u);
    EXPECT_TRUE(is_nash(g, {game::pure_as_mixed(0, 2)}));
    // A tolerance tighter than the gap separates them again.
    EXPECT_EQ(game::best_responses_from(row, 0.0).size(), 1u);
    EXPECT_FALSE(is_nash(g, {game::pure_as_mixed(0, 2)}, 0.0));

    // Fictitious play inherits the shared default and therefore keeps
    // playing action 0; an explicit tighter tie_tolerance switches the
    // best response to action 1. Same engine, same game — only the
    // (previously hardcoded) tolerance differs.
    LearningOptions shared;
    shared.max_iterations = 8;
    shared.target_regret = 0.0;
    EXPECT_EQ(shared.tie_tolerance, kNashTolerance);
    const auto with_shared = fictitious_play(g, shared);
    LearningOptions tight = shared;
    tight.tie_tolerance = 0.0;
    const auto with_tight = fictitious_play(g, tight);
    // Counts seed at 1; 8 iterations add 8 plays. Under the shared
    // tolerance all of them tie-break to action 0; under the tight one
    // all go to action 1.
    EXPECT_GT(with_shared.profile[0][0], with_shared.profile[0][1]);
    EXPECT_LT(with_tight.profile[0][0], with_tight.profile[0][1]);
}

TEST(ViewSolvers, FullViewMatchesGameOverloads) {
    const auto game = battle_of_the_sexes();
    const auto view = game::GameView::full(game);
    const auto via_view = support_enumeration(view);
    const auto via_game = support_enumeration(game);
    ASSERT_EQ(via_view.size(), via_game.size());
    for (std::size_t i = 0; i < via_view.size(); ++i) {
        EXPECT_EQ(via_view[i].profile, via_game[i].profile);
    }
    const auto lh_all_view = lemke_howson_all_labels(view);
    const auto lh_all_game = lemke_howson_all_labels(game);
    ASSERT_EQ(lh_all_view.size(), lh_all_game.size());
    for (std::size_t i = 0; i < lh_all_view.size(); ++i) {
        EXPECT_EQ(lh_all_view[i].profile, lh_all_game[i].profile);
    }
}

}  // namespace
}  // namespace bnash::solver
