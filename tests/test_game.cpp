// Tests for the game representations: strategies, normal-form, Bayesian,
// extensive-form, and the paper's game catalog.
#include <gtest/gtest.h>

#include <latch>
#include <thread>
#include <vector>

#include "game/bayesian.h"
#include "game/catalog.h"
#include "game/extensive.h"
#include "game/normal_form.h"
#include "game/strategy.h"
#include "util/rng.h"

namespace bnash::game {
namespace {

using util::Rational;

// ---------------------------------------------------------------- strategy

TEST(Strategy, PureAsMixed) {
    const auto s = pure_as_mixed(1, 3);
    EXPECT_EQ(s, (MixedStrategy{0.0, 1.0, 0.0}));
    EXPECT_THROW((void)pure_as_mixed(3, 3), std::out_of_range);
}

TEST(Strategy, UniformIsDistribution) {
    EXPECT_TRUE(is_distribution(uniform_strategy(7)));
    EXPECT_THROW((void)uniform_strategy(0), std::invalid_argument);
}

TEST(Strategy, SupportFindsPositiveEntries) {
    const MixedStrategy s{0.5, 0.0, 0.5};
    EXPECT_EQ(support(s), (std::vector<std::size_t>{0, 2}));
}

TEST(Strategy, IsDistributionRejectsBadVectors) {
    EXPECT_FALSE(is_distribution({0.5, 0.6}));
    EXPECT_FALSE(is_distribution({-0.1, 1.1}));
    EXPECT_FALSE(is_distribution({}));
}

TEST(Strategy, ExactDistribution) {
    EXPECT_TRUE(is_exact_distribution({Rational{1, 3}, Rational{2, 3}}));
    EXPECT_FALSE(is_exact_distribution({Rational{1, 3}, Rational{1, 3}}));
    EXPECT_FALSE(is_exact_distribution({Rational{-1, 3}, Rational{4, 3}}));
}

TEST(Strategy, SamplingMatchesDistribution) {
    util::Rng rng{5};
    const MixedStrategy s{0.2, 0.8};
    int ones = 0;
    for (int i = 0; i < 10'000; ++i) ones += (sample(s, rng) == 1);
    EXPECT_NEAR(ones, 8000, 300);
}

TEST(Strategy, ProfileDistance) {
    const MixedProfile a{{1.0, 0.0}, {0.5, 0.5}};
    const MixedProfile b{{0.9, 0.1}, {0.5, 0.5}};
    EXPECT_NEAR(profile_distance(a, b), 0.1, 1e-12);
}

// ------------------------------------------------------------- NormalForm

TEST(NormalForm, PrisonersDilemmaPayoffs) {
    const auto pd = catalog::prisoners_dilemma();
    EXPECT_EQ(pd.num_players(), 2u);
    EXPECT_EQ(pd.payoff({0, 0}, 0), Rational{3});
    EXPECT_EQ(pd.payoff({0, 1}, 0), Rational{-5});
    EXPECT_EQ(pd.payoff({0, 1}, 1), Rational{5});
    EXPECT_EQ(pd.payoff({1, 1}, 1), Rational{-3});
    EXPECT_EQ(pd.action_label(0, 1), "D");
}

TEST(NormalForm, ExpectedPayoffMatchesHandComputation) {
    const auto pd = catalog::prisoners_dilemma();
    // Both uniform: E[u0] = (3 - 5 + 5 - 3)/4 = 0.
    const MixedProfile uniform{uniform_strategy(2), uniform_strategy(2)};
    EXPECT_NEAR(pd.expected_payoff(uniform, 0), 0.0, 1e-12);
    EXPECT_NEAR(pd.expected_payoff(uniform, 1), 0.0, 1e-12);
}

TEST(NormalForm, DeviationPayoffAndBestResponse) {
    const auto pd = catalog::prisoners_dilemma();
    const MixedProfile opponent_cooperates{pure_as_mixed(0, 2), pure_as_mixed(0, 2)};
    // Against C, defecting pays 5, cooperating 3: best response is D.
    EXPECT_NEAR(pd.deviation_payoff(opponent_cooperates, 0, 1), 5.0, 1e-12);
    EXPECT_EQ(pd.best_responses(opponent_cooperates, 0), (std::vector<std::size_t>{1}));
}

TEST(NormalForm, RegretZeroAtEquilibrium) {
    const auto pd = catalog::prisoners_dilemma();
    const MixedProfile both_defect{pure_as_mixed(1, 2), pure_as_mixed(1, 2)};
    EXPECT_NEAR(pd.regret(both_defect), 0.0, 1e-12);
    const MixedProfile both_cooperate{pure_as_mixed(0, 2), pure_as_mixed(0, 2)};
    EXPECT_NEAR(pd.regret(both_cooperate), 2.0, 1e-12);  // C->D gains 5-3=2
}

TEST(NormalForm, ExactExpectedPayoff) {
    const auto pd = catalog::prisoners_dilemma();
    const ExactMixedProfile profile{{Rational{1, 2}, Rational{1, 2}},
                                    {Rational{1, 3}, Rational{2, 3}}};
    // E[u0] = 1/2(1/3*3 + 2/3*-5) + 1/2(1/3*5 + 2/3*-3) = 1/2(-7/3) + 1/2(-1/3) = -4/3.
    EXPECT_EQ(pd.expected_payoff_exact(profile, 0), Rational(-4, 3));
}

TEST(NormalForm, RestrictKeepsPayoffs) {
    const auto rps = catalog::roshambo();
    const auto restricted = rps.restrict({{0, 2}, {1}});
    EXPECT_EQ(restricted.num_actions(0), 2u);
    EXPECT_EQ(restricted.num_actions(1), 1u);
    // (scissors, paper): scissors beats paper: +1 for row.
    EXPECT_EQ(restricted.payoff({1, 0}, 0), Rational{1});
    EXPECT_EQ(restricted.action_label(0, 1), "scissors");
}

TEST(NormalForm, ZeroSumConstruction) {
    const auto rps = catalog::roshambo();
    for (std::uint64_t rank = 0; rank < rps.num_profiles(); ++rank) {
        const auto profile = rps.profile_unrank(rank);
        EXPECT_EQ(rps.payoff(profile, 0) + rps.payoff(profile, 1), Rational{0});
    }
}

TEST(NormalForm, RandomGameDeterministicBySeed) {
    util::Rng rng1{11};
    util::Rng rng2{11};
    const auto g1 = NormalFormGame::random({2, 3}, rng1);
    const auto g2 = NormalFormGame::random({2, 3}, rng2);
    for (std::uint64_t rank = 0; rank < g1.num_profiles(); ++rank) {
        const auto profile = g1.profile_unrank(rank);
        EXPECT_EQ(g1.payoff(profile, 0), g2.payoff(profile, 0));
        EXPECT_EQ(g1.payoff(profile, 1), g2.payoff(profile, 1));
    }
}

TEST(NormalForm, AttackGamePayoffStructure) {
    const auto g = catalog::attack_coordination_game(4);
    EXPECT_EQ(g.payoff({0, 0, 0, 0}, 2), Rational{1});
    EXPECT_EQ(g.payoff({1, 1, 0, 0}, 0), Rational{2});
    EXPECT_EQ(g.payoff({1, 1, 0, 0}, 2), Rational{0});
    EXPECT_EQ(g.payoff({1, 1, 1, 0}, 0), Rational{0});
}

TEST(NormalForm, BargainingGamePayoffStructure) {
    const auto g = catalog::bargaining_game(3);
    EXPECT_EQ(g.payoff({0, 0, 0}, 1), Rational{2});
    EXPECT_EQ(g.payoff({0, 1, 0}, 1), Rational{1});
    EXPECT_EQ(g.payoff({0, 1, 0}, 0), Rational{0});
}

TEST(NormalForm, GnutellaFreeRidingDominantWithoutKick) {
    const auto g = catalog::gnutella_sharing_game(3, 1, 3, 0);
    // Sharing costs 3, gives others benefit; free-riding dominates.
    const MixedProfile all_share{pure_as_mixed(1, 2), pure_as_mixed(1, 2),
                                 pure_as_mixed(1, 2)};
    EXPECT_GT(g.deviation_payoff(all_share, 0, 0), g.expected_payoff(all_share, 0));
    // With a large enough "kick" g > c, sharing becomes a best response.
    const auto g_kick = catalog::gnutella_sharing_game(3, 1, 3, 5);
    EXPECT_GT(g_kick.expected_payoff(all_share, 0) + 1e-9,
              g_kick.deviation_payoff(all_share, 0, 0));
}

// Property: expected payoff of a pure profile embedded as mixed equals the
// pure payoff, for random games.
class NormalFormEmbeddingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NormalFormEmbeddingProperty, PureEmbedsIntoMixed) {
    util::Rng rng{GetParam()};
    const auto game = NormalFormGame::random({2, 3, 2}, rng);
    util::Rng sampler{GetParam() + 1000};
    for (int trial = 0; trial < 5; ++trial) {
        PureProfile profile{sampler.next_below(2), sampler.next_below(3),
                            sampler.next_below(2)};
        const auto mixed = pure_profile_as_mixed(profile, game.action_counts());
        for (std::size_t player = 0; player < 3; ++player) {
            EXPECT_NEAR(game.expected_payoff(mixed, player), game.payoff_d(profile, player),
                        1e-12);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NormalFormEmbeddingProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

// ---------------------------------------------------- NormalForm ordinal ranks

// Brute-force dense rank: distinct payoffs of `player` strictly below.
std::uint32_t brute_rank(const NormalFormGame& g, std::uint64_t rank, std::size_t player) {
    std::vector<Rational> below;
    for (std::uint64_t other = 0; other < g.num_profiles(); ++other) {
        const Rational& value = g.payoff_at(other, player);
        if (value < g.payoff_at(rank, player) &&
            std::find(below.begin(), below.end(), value) == below.end()) {
            below.push_back(value);
        }
    }
    return static_cast<std::uint32_t>(below.size());
}

void expect_ranks_match_payoffs(const NormalFormGame& g) {
    const std::vector<std::uint32_t>& ranks = g.ordinal_ranks();
    ASSERT_EQ(ranks.size(), g.payoffs_flat().size());
    for (std::uint64_t rank = 0; rank < g.num_profiles(); ++rank) {
        for (std::size_t player = 0; player < g.num_players(); ++player) {
            EXPECT_EQ(ranks[rank * g.num_players() + player], brute_rank(g, rank, player))
                << "rank " << rank << " player " << player;
        }
    }
}

TEST(NormalFormOrdinal, RanksAreDensePerPlayerOrder) {
    NormalFormGame g({2, 3});
    const std::vector<Rational> values{Rational{1, 3},  Rational{7},        Rational{333333, 1000000},
                                       Rational{7},     Rational{1, 3},     Rational{-2},
                                       Rational{2, 6},  Rational{14, 2},    Rational{-1, 3},
                                       Rational{0},     Rational{1, 3},     Rational{-2}};
    g.assign_payoffs(values);
    expect_ranks_match_payoffs(g);
    util::Rng rng{31};
    expect_ranks_match_payoffs(NormalFormGame::random({3, 2, 3}, rng, -3, 3));
}

// Copies of an unmodified game share one build; each payoff mutator gives
// the mutated copy a fresh build and leaves the other copy's ranks intact.
TEST(NormalFormOrdinal, CopiesShareOneBuildAndMutationsRebuildOnlyTheMutatedCopy) {
    util::Rng rng{7};
    const NormalFormGame original = NormalFormGame::random({3, 3, 2}, rng, -5, 5);
    const std::uint64_t before = NormalFormGame::rank_builds();
    const std::vector<std::uint32_t>& ranks = original.ordinal_ranks();
    const std::vector<std::uint32_t> snapshot = ranks;
    const NormalFormGame copy = original;
    NormalFormGame assigned({1});
    assigned = original;
    EXPECT_EQ(&copy.ordinal_ranks(), &ranks);
    EXPECT_EQ(&assigned.ordinal_ranks(), &ranks);
    EXPECT_EQ(NormalFormGame::rank_builds(), before + 1);

    const NormalFormGame other = NormalFormGame::random({3, 3, 2}, rng, -5, 5);
    const std::vector<std::pair<const char*, void (*)(NormalFormGame&, const NormalFormGame&)>>
        mutators{
            {"set_payoff",
             [](NormalFormGame& g, const NormalFormGame&) {
                 g.set_payoff({2, 1, 0}, 1, Rational{99});
             }},
            {"set_payoffs",
             [](NormalFormGame& g, const NormalFormGame&) {
                 g.set_payoffs({0, 0, 1}, {Rational{-9}, Rational{1, 2}, Rational{9}});
             }},
            {"assign_payoffs",
             [](NormalFormGame& g, const NormalFormGame& from) {
                 g.assign_payoffs(from.payoffs_flat());
             }},
            {"copy-assign", [](NormalFormGame& g, const NormalFormGame& from) { g = from; }},
        };
    for (const auto& [name, mutate] : mutators) {
        NormalFormGame mutated = original;
        EXPECT_EQ(&mutated.ordinal_ranks(), &ranks) << name;
        const std::uint64_t builds = NormalFormGame::rank_builds();
        mutate(mutated, other);
        EXPECT_NE(&mutated.ordinal_ranks(), &ranks) << name;
        expect_ranks_match_payoffs(mutated);
        EXPECT_EQ(NormalFormGame::rank_builds(), builds + 1) << name;
        // The shared build is untouched: same storage, same contents.
        EXPECT_EQ(&original.ordinal_ranks(), &ranks) << name;
        EXPECT_EQ(ranks, snapshot) << name;
        EXPECT_EQ(&copy.ordinal_ranks(), &ranks) << name;
    }
    // Repeated writes to a game whose ranks were never read cost no build.
    NormalFormGame fresh({2, 2});
    const std::uint64_t builds = NormalFormGame::rank_builds();
    for (std::size_t a = 0; a < 2; ++a) fresh.set_payoffs({a, a}, {Rational{1}, Rational{2}});
    EXPECT_EQ(NormalFormGame::rank_builds(), builds);
}

// Four threads reading the ranks of copies of one game for the first time
// at once: exactly one build, and every thread sees it.
TEST(NormalFormOrdinal, ConcurrentFirstUseBuildsOnce) {
    util::Rng rng{11};
    const NormalFormGame game = NormalFormGame::random({4, 4, 4, 4}, rng, -20, 20);
    const std::vector<NormalFormGame> copies(4, game);
    const std::uint64_t before = NormalFormGame::rank_builds();
    std::vector<const std::vector<std::uint32_t>*> seen(4, nullptr);
    std::latch start(4);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < 4; ++i) {
        threads.emplace_back([&, i] {
            start.arrive_and_wait();
            seen[i] = &copies[i].ordinal_ranks();
        });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(NormalFormGame::rank_builds(), before + 1);
    for (const auto* ranks : seen) EXPECT_EQ(ranks, &game.ordinal_ranks());
    expect_ranks_match_payoffs(game);
}

// ---------------------------------------------------------------- Bayesian

TEST(Bayesian, PriorValidation) {
    auto g = catalog::byzantine_agreement_game(3);
    EXPECT_NO_THROW(g.validate_prior());
    BayesianGame bad({2}, {2});
    bad.set_prior({0}, Rational{1, 3});
    EXPECT_THROW(bad.validate_prior(), std::logic_error);
}

TEST(Bayesian, ByzantineAllRetreatIsEquilibrium) {
    const auto g = catalog::byzantine_agreement_game(3);
    // Everyone plays 0 regardless of type: agreement always, matches the
    // general's preference half the time.
    const BayesianPureProfile all_zero{{0, 0}, {0}, {0}};
    EXPECT_TRUE(g.is_bayes_nash(all_zero));
    EXPECT_EQ(g.expected_payoff(all_zero, 1), (Rational{3, 2}));
}

TEST(Bayesian, ByzantineTruthfulGeneralAloneIsNotEquilibrium) {
    const auto g = catalog::byzantine_agreement_game(3);
    // The general follows its preference but nobody can see it: no agreement
    // when the preference is 1, so the general should deviate to constant 0.
    const BayesianPureProfile truthful{{0, 1}, {0}, {0}};
    EXPECT_FALSE(g.is_bayes_nash(truthful));
}

TEST(Bayesian, InterimPayoffConditionsOnOwnType) {
    const auto g = catalog::byzantine_agreement_game(2);
    const BayesianPureProfile all_zero{{0, 0}, {0}};
    // General with type 0 playing 0: agreement + match => 2 (times P(type)=1/2).
    EXPECT_EQ(g.interim_payoff(all_zero, 0, 0, 0), Rational{1});
    // General with type 1 playing 0: agreement, no match => 1 (times 1/2).
    EXPECT_EQ(g.interim_payoff(all_zero, 0, 1, 0), (Rational{1, 2}));
}

TEST(Bayesian, CorrelatedTypesGameAllProfilesAreEquilibria) {
    const auto g = catalog::correlated_types_game();
    // No player observes the other's type, so every strategy yields 1.
    const auto equilibria = g.pure_bayes_nash();
    EXPECT_EQ(equilibria.size(), 16u);
}

TEST(Bayesian, StrategicFormShape) {
    const auto g = catalog::byzantine_agreement_game(3);
    const auto sf = g.to_strategic_form();
    EXPECT_EQ(sf.num_players(), 3u);
    EXPECT_EQ(sf.num_actions(0), 4u);  // 2 types -> 2^2 maps
    EXPECT_EQ(sf.num_actions(1), 2u);
    const auto strategy = g.strategy_unrank(0, 2);  // row-major: type0->1, type1->0
    EXPECT_EQ(strategy, (BayesianPureStrategy{1, 0}));
    EXPECT_EQ(g.strategy_rank(0, strategy), 2u);
}

TEST(Bayesian, StrategicFormPayoffsMatchExpectedPayoffs) {
    const auto g = catalog::correlated_types_game();
    const auto sf = g.to_strategic_form();
    for (std::uint64_t r0 = 0; r0 < 4; ++r0) {
        for (std::uint64_t r1 = 0; r1 < 4; ++r1) {
            const BayesianPureProfile profile{g.strategy_unrank(0, r0),
                                              g.strategy_unrank(1, r1)};
            EXPECT_EQ(sf.payoff({static_cast<std::size_t>(r0), static_cast<std::size_t>(r1)},
                                0),
                      g.expected_payoff(profile, 0));
        }
    }
}

TEST(Bayesian, BehavioralExpectedPayoffMatchesPureWhenDegenerate) {
    const auto g = catalog::correlated_types_game();
    // Behavioral profile with point masses == the pure profile's value.
    const BayesianPureProfile pure{{0, 1}, {1, 0}};
    BayesianBehavioralProfile behavioral(2);
    for (std::size_t player = 0; player < 2; ++player) {
        for (std::size_t type = 0; type < 2; ++type) {
            behavioral[player].push_back(pure_as_mixed(pure[player][type], 2));
        }
    }
    EXPECT_NEAR(g.expected_payoff_d(behavioral, 0), g.expected_payoff(pure, 0).to_double(),
                1e-12);
}

TEST(Bayesian, BehavioralExpectedPayoffMixesTypes) {
    const auto g = catalog::correlated_types_game();
    // Fully mixed behavior: payoff is the prior-weighted average, 1.
    BayesianBehavioralProfile uniform(2);
    for (std::size_t player = 0; player < 2; ++player) {
        uniform[player] = {uniform_strategy(2), uniform_strategy(2)};
    }
    EXPECT_NEAR(g.expected_payoff_d(uniform, 0), 1.0, 1e-12);
    EXPECT_NEAR(g.expected_payoff_d(uniform, 1), 1.0, 1e-12);
}

TEST(Bayesian, SampleTypesRespectsPrior) {
    const auto g = catalog::byzantine_agreement_game(2);
    util::Rng rng{23};
    int ones = 0;
    for (int i = 0; i < 4000; ++i) ones += (g.sample_types(rng)[0] == 1);
    EXPECT_NEAR(ones, 2000, 140);
}

// --------------------------------------------------------------- Extensive

TEST(Extensive, Figure1BackwardInduction) {
    const auto g = catalog::figure1_game();
    const auto result = g.backward_induction();
    // B plays down_B; A anticipates it and plays across_A; payoffs (2,2).
    EXPECT_EQ(result.values, (std::vector<Rational>{2, 2}));
    const auto a_set = g.find_info_set("A");
    const auto b_set = g.find_info_set("B");
    ASSERT_TRUE(a_set && b_set);
    EXPECT_EQ(result.strategy[*a_set], 1u);  // across_A
    EXPECT_EQ(result.strategy[*b_set], 0u);  // down_B
}

TEST(Extensive, Figure1WithoutDownBChangesAsChoice) {
    const auto g = catalog::figure1_game_without_downB();
    const auto result = g.backward_induction();
    // B's only move leads to (0,0); A prefers down_A's (1,1).
    EXPECT_EQ(result.values, (std::vector<Rational>{1, 1}));
}

TEST(Extensive, Figure1NormalForm) {
    const auto nf = catalog::figure1_game().to_normal_form();
    EXPECT_EQ(nf.num_actions(0), 2u);
    EXPECT_EQ(nf.num_actions(1), 2u);
    EXPECT_EQ(nf.payoff({0, 0}, 0), Rational{1});  // down_A regardless of B
    EXPECT_EQ(nf.payoff({0, 1}, 0), Rational{1});
    EXPECT_EQ(nf.payoff({1, 0}, 0), Rational{2});  // across_A, down_B
    EXPECT_EQ(nf.payoff({1, 1}, 0), Rational{0});  // across_A, across_B
}

TEST(Extensive, ExpectedPayoffsUnderUniformPlay) {
    const auto g = catalog::figure1_game();
    const auto payoffs = g.expected_payoffs(g.uniform_profile());
    // 1/2 down_A -> (1,1); 1/4 -> (2,2); 1/4 -> (0,0).
    EXPECT_NEAR(payoffs[0], 1.0, 1e-12);
    EXPECT_NEAR(payoffs[1], 1.0, 1e-12);
}

TEST(Extensive, ReachProbabilities) {
    const auto g = catalog::figure1_game();
    const auto reach = g.reach_probabilities(g.uniform_profile());
    EXPECT_NEAR(reach[g.root()], 1.0, 1e-12);
    const auto b_node = g.node_at({1});
    EXPECT_NEAR(reach[b_node], 0.5, 1e-12);
    EXPECT_NEAR(reach[g.node_at({1, 1})], 0.25, 1e-12);
}

TEST(Extensive, HistoryRoundTrip) {
    const auto g = catalog::figure1_game();
    for (const auto& run : g.runs()) {
        EXPECT_EQ(g.history_of(g.node_at(run)), run);
    }
    EXPECT_EQ(g.runs().size(), 3u);
}

TEST(Extensive, ChanceNodesAverageExactly) {
    ExtensiveGame g(1);
    const auto chance = g.add_chance({Rational{1, 3}, Rational{2, 3}});
    const auto lo = g.add_terminal({Rational{0}});
    const auto hi = g.add_terminal({Rational{3}});
    g.set_child(chance, 0, lo);
    g.set_child(chance, 1, hi);
    g.finalize();
    const auto payoffs = g.expected_payoffs({});
    EXPECT_NEAR(payoffs[0], 2.0, 1e-12);
}

TEST(Extensive, FinalizeRejectsBadChanceProbs) {
    ExtensiveGame g(1);
    const auto chance = g.add_chance({Rational{1, 2}, Rational{1, 3}});
    const auto a = g.add_terminal({Rational{0}});
    const auto b = g.add_terminal({Rational{1}});
    g.set_child(chance, 0, a);
    g.set_child(chance, 1, b);
    EXPECT_THROW(g.finalize(), std::logic_error);
}

TEST(Extensive, FinalizeRejectsMissingChildren) {
    ExtensiveGame g(1);
    (void)g.add_decision(0, "root", {"l", "r"});
    EXPECT_THROW(g.finalize(), std::logic_error);
}

TEST(Extensive, SetChildRejectsReattachment) {
    ExtensiveGame g(1);
    const auto root = g.add_decision(0, "root", {"l", "r"});
    const auto t = g.add_terminal({Rational{0}});
    g.set_child(root, 0, t);
    EXPECT_THROW(g.set_child(root, 1, t), std::invalid_argument);
}

TEST(Extensive, ImperfectInformationDetected) {
    // Matching pennies in extensive form: player 1 cannot see player 0's coin.
    ExtensiveGame g(2);
    const auto root = g.add_decision(0, "P0", {"H", "T"});
    const auto after_h = g.add_decision(1, "P1", {"H", "T"});
    const auto after_t = g.add_decision(1, "P1", {"H", "T"});
    const auto hh = g.add_terminal({1, -1});
    const auto ht = g.add_terminal({-1, 1});
    const auto th = g.add_terminal({-1, 1});
    const auto tt = g.add_terminal({1, -1});
    g.set_child(root, 0, after_h);
    g.set_child(root, 1, after_t);
    g.set_child(after_h, 0, hh);
    g.set_child(after_h, 1, ht);
    g.set_child(after_t, 0, th);
    g.set_child(after_t, 1, tt);
    g.finalize();
    EXPECT_FALSE(g.is_perfect_information());
    EXPECT_THROW((void)g.backward_induction(), std::logic_error);
    // Its strategic form is exactly matching pennies.
    const auto nf = g.to_normal_form();
    const auto mp = catalog::matching_pennies();
    for (std::uint64_t rank = 0; rank < 4; ++rank) {
        const auto profile = nf.profile_unrank(rank);
        EXPECT_EQ(nf.payoff(profile, 0), mp.payoff(profile, 0));
        EXPECT_EQ(nf.payoff(profile, 1), mp.payoff(profile, 1));
    }
}

TEST(Extensive, InfoSetConsistencyEnforced) {
    ExtensiveGame g(2);
    (void)g.add_decision(0, "X", {"l", "r"});
    EXPECT_THROW((void)g.add_decision(1, "X", {"l", "r"}), std::invalid_argument);
    EXPECT_THROW((void)g.add_decision(0, "X", {"l"}), std::invalid_argument);
}

}  // namespace
}  // namespace bnash::game
