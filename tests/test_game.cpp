// Tests for the game representations: strategies, normal-form, Bayesian,
// extensive-form, and the paper's game catalog.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <latch>
#include <limits>
#include <map>
#include <numeric>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/machine/machine_game.h"
#include "game/bayesian.h"
#include "game/catalog.h"
#include "game/extensive.h"
#include "game/game_view.h"
#include "game/normal_form.h"
#include "game/payoff_engine.h"
#include "game/strategy.h"
#include "util/combinatorics.h"
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
    EXPECT_NEAR(expected_payoff(pd, uniform, 0), 0.0, 1e-12);
    EXPECT_NEAR(expected_payoff(pd, uniform, 1), 0.0, 1e-12);
}

TEST(NormalForm, DeviationPayoffAndBestResponse) {
    const auto pd = catalog::prisoners_dilemma();
    const MixedProfile opponent_cooperates{pure_as_mixed(0, 2), pure_as_mixed(0, 2)};
    // Against C, defecting pays 5, cooperating 3: best response is D.
    const std::vector<double> row = deviation_row(pd, opponent_cooperates, 0);
    EXPECT_NEAR(row.at(1), 5.0, 1e-12);
    EXPECT_EQ(best_responses_from(row, 1e-9), (std::vector<std::size_t>{1}));
}

TEST(NormalForm, RegretZeroAtEquilibrium) {
    const auto pd = catalog::prisoners_dilemma();
    const MixedProfile both_defect{pure_as_mixed(1, 2), pure_as_mixed(1, 2)};
    EXPECT_NEAR(regret_from(deviation_payoffs_all(pd, both_defect), both_defect), 0.0, 1e-12);
    const MixedProfile both_cooperate{pure_as_mixed(0, 2), pure_as_mixed(0, 2)};
    // C->D gains 5-3=2
    EXPECT_NEAR(regret_from(deviation_payoffs_all(pd, both_cooperate), both_cooperate), 2.0,
                1e-12);
}

TEST(NormalForm, ExactExpectedPayoff) {
    const auto pd = catalog::prisoners_dilemma();
    const ExactMixedProfile profile{{Rational{1, 2}, Rational{1, 2}},
                                    {Rational{1, 3}, Rational{2, 3}}};
    // E[u0] = 1/2(1/3*3 + 2/3*-5) + 1/2(1/3*5 + 2/3*-3) = 1/2(-7/3) + 1/2(-1/3) = -4/3.
    EXPECT_EQ(expected_payoff_exact(pd, profile, 0), Rational(-4, 3));
}

TEST(NormalForm, RestrictKeepsPayoffs) {
    const auto rps = catalog::roshambo();
    const auto restricted = GameView::restrict(rps, {{0, 2}, {1}}).materialize();
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
    EXPECT_GT(deviation_row(g, all_share, 0).at(0), expected_payoff(g, all_share, 0));
    // With a large enough "kick" g > c, sharing becomes a best response.
    const auto g_kick = catalog::gnutella_sharing_game(3, 1, 3, 5);
    EXPECT_GT(expected_payoff(g_kick, all_share, 0) + 1e-9,
              deviation_row(g_kick, all_share, 0).at(0));
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
            EXPECT_NEAR(expected_payoff(game, mixed, player), game.payoff_d(profile, player),
                        1e-12);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NormalFormEmbeddingProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

// ---------------------------------------------------- NormalForm payoff store

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

// Every invariant of the store: each player's levels sorted and
// distinct with positive counts summing to the profile count, each rank
// the brute-force one, and each cell's double the exact payoff's.
void expect_store_invariants(const NormalFormGame& g, const std::string& label = "") {
    const std::vector<std::uint32_t>& ranks = g.ordinal_ranks();
    ASSERT_EQ(ranks.size(), g.num_profiles() * g.num_players()) << label;
    for (std::size_t player = 0; player < g.num_players(); ++player) {
        const std::vector<Rational>& levels = g.levels(player);
        const std::vector<std::uint32_t>& counts = g.level_counts(player);
        ASSERT_EQ(levels.size(), counts.size()) << label << " player " << player;
        EXPECT_EQ(std::adjacent_find(levels.begin(), levels.end(), std::greater_equal<>()),
                  levels.end())
            << label << " player " << player;
        EXPECT_EQ(std::count(counts.begin(), counts.end(), 0u), 0) << label;
        EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), std::uint64_t{0}),
                  g.num_profiles())
            << label << " player " << player;
    }
    for (std::uint64_t rank = 0; rank < g.num_profiles(); ++rank) {
        for (std::size_t player = 0; player < g.num_players(); ++player) {
            EXPECT_EQ(ranks[rank * g.num_players() + player], brute_rank(g, rank, player))
                << label << " rank " << rank << " player " << player;
            EXPECT_EQ(g.payoff_d_at(rank, player), g.payoff_at(rank, player).to_double())
                << label << " rank " << rank << " player " << player;
        }
    }
}

TEST(NormalFormStore, RanksAreDensePerPlayerOrder) {
    NormalFormGame g({2, 3});
    const std::vector<Rational> values{Rational{1, 3},  Rational{7},        Rational{333333, 1000000},
                                       Rational{7},     Rational{1, 3},     Rational{-2},
                                       Rational{2, 6},  Rational{14, 2},    Rational{-1, 3},
                                       Rational{0},     Rational{1, 3},     Rational{-2}};
    g.assign_payoffs(values);
    expect_store_invariants(g);
    EXPECT_EQ(g.payoffs_flat(), values);
    EXPECT_EQ(g.levels(0),
              (std::vector<Rational>{Rational{-1, 3}, Rational{333333, 1000000}, Rational{1, 3}}));
    EXPECT_EQ(g.level_counts(0), (std::vector<std::uint32_t>{1, 1, 4}));
    EXPECT_EQ(g.levels(1), (std::vector<Rational>{Rational{-2}, Rational{0}, Rational{7}}));
    EXPECT_EQ(g.level_counts(1), (std::vector<std::uint32_t>{2, 1, 3}));
    util::Rng rng{31};
    expect_store_invariants(NormalFormGame::random({3, 2, 3}, rng, -3, 3));
}

// Random sequences of every payoff mutator and of copies, on 2-4 player
// games with values from a narrow range (levels met again, emptied and
// erased) or a wide one (mostly new levels). After every step the
// mutated game holds its invariants and the payoffs of a shadow tensor,
// and every earlier copy still reads what it read when it was taken.
TEST(NormalFormStore, MutationFuzzKeepsLevelsDenseAndCopiesIntact) {
    util::Rng rng{2027};
    for (std::size_t trial = 0; trial < 24; ++trial) {
        const bool narrow = trial % 2 == 0;
        const auto draw = [&] {
            return narrow ? Rational{rng.next_int(-2, 2)}
                          : Rational{rng.next_int(-1000000, 1000000), rng.next_int(1, 997)};
        };
        const std::size_t n = 2 + rng.next_below(3);
        std::vector<std::size_t> counts(n);
        for (std::size_t& count : counts) count = n == 4 ? 2 : 2 + rng.next_below(2);
        NormalFormGame g(counts);
        std::vector<Rational> shadow(g.num_profiles() * n, Rational{0});
        std::vector<std::pair<NormalFormGame, std::vector<Rational>>> copies;
        for (std::size_t step = 0; step < 30; ++step) {
            const std::string label = "trial " + std::to_string(trial) + " step " +
                                      std::to_string(step);
            const PureProfile cell = g.profile_unrank(rng.next_below(g.num_profiles()));
            const std::uint64_t at = g.profile_rank(cell) * n;
            switch (rng.next_below(6)) {
                case 0:
                case 1: {
                    const std::size_t player = rng.next_below(n);
                    const Rational value = draw();
                    g.set_payoff(cell, player, value);
                    shadow[at + player] = value;
                    break;
                }
                case 2: {
                    std::vector<Rational> values(n);
                    for (Rational& value : values) value = draw();
                    g.set_payoffs(cell, values);
                    std::copy(values.begin(), values.end(), shadow.begin() + at);
                    break;
                }
                case 3:
                    for (Rational& value : shadow) value = draw();
                    g.assign_payoffs(shadow);
                    break;
                case 4:
                    copies.emplace_back(g, shadow);
                    break;
                default:
                    if (copies.empty()) {
                        NormalFormGame assigned({1});
                        assigned = g;
                        copies.emplace_back(std::move(assigned), shadow);
                    } else {
                        const auto& [from, values] = copies[rng.next_below(copies.size())];
                        g = from;
                        shadow = values;
                    }
                    break;
            }
            expect_store_invariants(g, label);
            EXPECT_EQ(g.payoffs_flat(), shadow) << label;
            for (std::size_t i = 0; i < copies.size(); ++i) {
                EXPECT_EQ(copies[i].first.payoffs_flat(), copies[i].second)
                    << label << " copy " << i;
            }
            if (::testing::Test::HasFailure()) return;
        }
    }
}

// Copies share their store, and a mutation clones a shared store before
// writing: one construction per clone, none per copy.
TEST(NormalFormStore, CopiesShareTheStoreUntilOneIsMutated) {
    util::Rng rng{7};
    const NormalFormGame original = NormalFormGame::random({3, 3, 2}, rng, -5, 5);
    const std::uint64_t before = NormalFormGame::tensor_allocations();
    NormalFormGame copy = original;
    NormalFormGame assigned({1});
    const std::uint64_t after_construct = NormalFormGame::tensor_allocations();
    assigned = original;
    EXPECT_EQ(after_construct, before + 1);
    EXPECT_EQ(NormalFormGame::tensor_allocations(), after_construct);
    EXPECT_EQ(&copy.ordinal_ranks(), &original.ordinal_ranks());
    EXPECT_EQ(&assigned.ordinal_ranks(), &original.ordinal_ranks());

    copy.set_payoff({2, 1, 0}, 1, Rational{99});
    EXPECT_EQ(NormalFormGame::tensor_allocations(), after_construct + 1);
    EXPECT_NE(&copy.ordinal_ranks(), &original.ordinal_ranks());
    copy.set_payoff({0, 1, 0}, 1, Rational{98});  // unshared now: in place
    EXPECT_EQ(NormalFormGame::tensor_allocations(), after_construct + 1);
    expect_store_invariants(copy);
    expect_store_invariants(original);
    EXPECT_EQ(original.payoff({2, 1, 0}, 1), assigned.payoff({2, 1, 0}, 1));
}

// Four threads read copies while the original is mutated: the first
// write clones the shared store, so no reader ever sees a write.
TEST(NormalFormStore, CopiesReadOnThreadsWhileTheOriginalIsMutated) {
    util::Rng rng{11};
    NormalFormGame game = NormalFormGame::random({4, 4, 4}, rng, -20, 20);
    const std::vector<Rational> snapshot = game.payoffs_flat();
    const std::vector<std::uint32_t> ranks = game.ordinal_ranks();
    const std::vector<NormalFormGame> copies(4, game);
    std::vector<int> intact(copies.size(), 0);
    std::latch start(static_cast<std::ptrdiff_t>(copies.size() + 1));
    std::vector<std::thread> readers;
    for (std::size_t i = 0; i < copies.size(); ++i) {
        readers.emplace_back([&, i] {
            start.arrive_and_wait();
            bool same = true;
            for (int round = 0; round < 16; ++round) {
                same = same && copies[i].payoffs_flat() == snapshot &&
                       copies[i].ordinal_ranks() == ranks;
            }
            intact[i] = same ? 1 : 0;
        });
    }
    start.arrive_and_wait();
    for (std::uint64_t step = 0; step < 256; ++step) {
        game.set_payoff(game.profile_unrank(step % game.num_profiles()), step % 3,
                        Rational{static_cast<std::int64_t>(step % 41) - 20});
    }
    game.assign_payoffs(std::vector<Rational>(snapshot.rbegin(), snapshot.rend()));
    for (std::thread& reader : readers) reader.join();
    for (std::size_t i = 0; i < copies.size(); ++i) EXPECT_EQ(intact[i], 1) << "copy " << i;
    expect_store_invariants(game);
}

// The store a flat payoff vector must build, by the obvious route: sort
// and dedupe each player's column, rank every cell by binary search.
struct ReferenceStore {
    std::vector<std::uint32_t> ranks;
    std::vector<std::vector<Rational>> levels;
    std::vector<std::vector<std::uint32_t>> counts;
    std::vector<double> doubles;  // each cell's to_double, flat order
};

ReferenceStore sort_reference(std::size_t n, const std::vector<Rational>& values) {
    ReferenceStore out{std::vector<std::uint32_t>(values.size()), {}, {}, {}};
    for (std::size_t player = 0; player < n; ++player) {
        std::vector<Rational> column;
        for (std::size_t i = player; i < values.size(); i += n) column.push_back(values[i]);
        std::sort(column.begin(), column.end());
        column.erase(std::unique(column.begin(), column.end()), column.end());
        std::vector<std::uint32_t> counts(column.size(), 0);
        for (std::size_t i = player; i < values.size(); i += n) {
            const auto at = static_cast<std::uint32_t>(
                std::lower_bound(column.begin(), column.end(), values[i]) - column.begin());
            out.ranks[i] = at;
            ++counts[at];
        }
        out.levels.push_back(std::move(column));
        out.counts.push_back(std::move(counts));
    }
    for (const Rational& value : values) out.doubles.push_back(value.to_double());
    return out;
}

// Ranks, levels, counts and every cell's double (bit for bit) against
// the reference.
void expect_store_matches(const NormalFormGame& g, const ReferenceStore& want,
                          const std::string& label) {
    EXPECT_EQ(g.ordinal_ranks(), want.ranks) << label;
    for (std::size_t player = 0; player < g.num_players(); ++player) {
        EXPECT_EQ(g.levels(player), want.levels[player]) << label << " player " << player;
        EXPECT_EQ(g.level_counts(player), want.counts[player]) << label << " player " << player;
    }
    const std::size_t n = g.num_players();
    ASSERT_EQ(g.num_profiles() * n, want.doubles.size()) << label;
    for (std::size_t i = 0; i < want.doubles.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(g.payoff_d_at(i / n, i % n)),
                  std::bit_cast<std::uint64_t>(want.doubles[i]))
            << label << " entry " << i;
    }
}

// assign_payoffs hashes each player's distinct payoffs and sorts only
// those; the store it builds must be the sort-based one in every corner.
TEST(NormalFormStore, HashBuildMatchesSortReference) {
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
    constexpr std::int64_t k53 = std::int64_t{1} << 53;
    util::Rng rng{4049};
    const auto check = [](std::vector<std::size_t> counts, const std::vector<Rational>& values,
                          const std::string& label) {
        NormalFormGame g(std::move(counts));
        g.assign_payoffs(values);
        expect_store_matches(g, sort_reference(g.num_players(), values), label);
    };

    // L = 1: one level per player.
    check({3, 3, 3}, std::vector<Rational>(81, Rational{5, 3}), "one level");

    // L = P: every cell distinct, 625 levels per player, so each table
    // grows from 16 slots to 2048.
    std::vector<Rational> distinct(625 * 4);
    for (std::size_t i = 0; i < distinct.size(); ++i) {
        const auto k = static_cast<std::int64_t>(i);
        distinct[i] = Rational{(k * 7919) % 100003 - 50000, 1 + k % 4};
    }
    rng.shuffle(distinct);
    check({5, 5, 5, 5}, distinct, "all distinct");

    // int64 extremes, parts past 2^53, and levels that a sort by their
    // doubles would misorder: two whose doubles tie (1/3 and p/q with p,
    // q < 2^53) and two whose doubles are in the wrong order.
    const Rational third_twin{3002399751580330, k53 - 1};
    ASSERT_EQ(third_twin.to_double(), Rational(1, 3).to_double());
    const Rational below{864692194070351345, 3};
    const Rational above{1441153656783918909, 5};
    ASSERT_LT(below, above);
    ASSERT_GT(below.to_double(), above.to_double());
    const std::vector<Rational> extremes{
        Rational{kMin},         Rational{kMax},           Rational{kMin + 1},
        Rational{1, kMax},      Rational{-1, kMax},       Rational{kMax, kMax - 1},
        Rational{kMax - 1, kMax}, Rational{kMin, kMax},   Rational{kMax, 3},
        Rational{0},            Rational{k53 + 1},        Rational{k53},
        Rational{1, 3},         third_twin,               below,
        above};
    std::vector<Rational> wide(64 * 3);
    for (Rational& value : wide) value = extremes[rng.next_below(extremes.size())];
    check({4, 4, 4}, wide, "extremes");
    check({extremes.size()}, extremes, "extremes in one column");
    check({4}, {Rational{1, 3}, third_twin, Rational{-1}, Rational{1, 3}}, "tied doubles");
    // The level sort compares doubles and breaks their ties exactly; it
    // compares a value with a part of 2^53 or more exactly throughout.
    const Rational under_third{3000000000000000, 9000000000000001};
    ASSERT_EQ(under_third.to_double(), Rational(1, 3).to_double());
    check({6},
          {Rational{1, 3}, above, under_third, below, Rational{-(k53 + 1), k53}, Rational{1, 3}},
          "tied doubles and wide parts");

    // A shared numerator over different denominators (and one
    // denominator over different numerators).
    const std::vector<Rational> fractions{Rational{1, 2},  Rational{1, 3},  Rational{1, 4},
                                          Rational{-1, 2}, Rational{-1, 3}, Rational{3, 2},
                                          Rational{3, 4},  Rational{3, 5},  Rational{1}};
    std::vector<Rational> shared_num(81 * 4);
    for (Rational& value : shared_num) value = fractions[rng.next_below(fractions.size())];
    check({3, 3, 3, 3}, shared_num, "shared numerators");

    // Random narrow and wide columns on 2-5 player games.
    for (std::size_t trial = 0; trial < 16; ++trial) {
        const std::size_t n = 2 + trial % 4;
        std::vector<std::size_t> counts(n);
        for (std::size_t& count : counts) count = 2 + rng.next_below(2);
        std::uint64_t profiles = 1;
        for (const std::size_t count : counts) profiles *= count;
        std::vector<Rational> values(profiles * n);
        for (Rational& value : values) {
            value = trial % 2 == 0 ? Rational{rng.next_int(-3, 3)}
                                   : Rational{rng.next_int(-1000, 1000), rng.next_int(1, 12)};
        }
        check(counts, values, "random trial " + std::to_string(trial));
    }
}

// A rebuild of a shared store leaves the copy's store as it was, and an
// unshared store is rebuilt in place.
TEST(NormalFormStore, HashBuildOfASharedStoreLeavesTheCopyIntact) {
    util::Rng rng{77};
    NormalFormGame g({3, 4, 2});
    std::vector<Rational> first(g.num_profiles() * 3);
    for (Rational& value : first) value = Rational{rng.next_int(-6, 6), rng.next_int(1, 3)};
    g.assign_payoffs(first);
    const NormalFormGame copy = g;
    const std::vector<std::uint32_t>* copy_ranks = &copy.ordinal_ranks();

    std::vector<Rational> second(first.rbegin(), first.rend());
    second[5] = Rational{99};
    const std::uint64_t before = NormalFormGame::tensor_allocations();
    g.assign_payoffs(second);
    EXPECT_EQ(NormalFormGame::tensor_allocations(), before + 1);
    EXPECT_NE(&g.ordinal_ranks(), copy_ranks);
    expect_store_matches(copy, sort_reference(3, first), "copy");
    expect_store_matches(g, sort_reference(3, second), "rebuilt");

    const std::vector<std::uint32_t>* own = &g.ordinal_ranks();
    g.assign_payoffs(first);
    EXPECT_EQ(NormalFormGame::tensor_allocations(), before + 1);
    EXPECT_EQ(&g.ordinal_ranks(), own);
    expect_store_matches(g, sort_reference(3, first), "in place");
    expect_store_matches(copy, sort_reference(3, first), "copy after");
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

TEST(Bayesian, PureStrategyCountOverflowThrows) {
    // 2^64 type -> action maps do not fit a uint64_t: the count throws
    // instead of wrapping to 0, which left pure_bayes_nash() empty although
    // every one-player game has an equilibrium.
    BayesianGame g({64}, {2});
    g.set_prior({0}, Rational{1});
    EXPECT_THROW((void)g.num_pure_strategies(0), std::overflow_error);
    EXPECT_THROW((void)g.pure_bayes_nash(), std::overflow_error);
    // 3^41 wraps to a wrong nonzero count.
    const BayesianGame wide({41}, {3});
    EXPECT_THROW((void)wide.num_pure_strategies(0), std::overflow_error);
}

// Every cell of `g` against `shadow` (absent cells are zero): the exact
// payoff, and its double bit for bit.
void expect_bayesian_matches(
    const BayesianGame& g,
    const std::map<std::tuple<TypeProfile, PureProfile, std::size_t>, Rational>& shadow,
    const std::string& label) {
    util::product_for_each(g.type_counts(), [&](const TypeProfile& types) {
        util::product_for_each(g.action_counts(), [&](const PureProfile& actions) {
            for (std::size_t player = 0; player < g.num_players(); ++player) {
                const auto it = shadow.find({types, actions, player});
                const Rational expected = it == shadow.end() ? Rational{0} : it->second;
                EXPECT_EQ(g.payoff(types, actions, player), expected) << label;
                EXPECT_EQ(std::bit_cast<std::uint64_t>(g.payoff_d(types, actions, player)),
                          std::bit_cast<std::uint64_t>(expected.to_double()))
                    << label;
            }
            return true;
        });
        return true;
    });
}

// Random set_payoff sequences over odd sixths (few values, so ties are
// planted everywhere) read back exactly through the states, an
// overwrite can empty a level, and a mutated copy leaves the original be.
TEST(BayesianStore, SetPayoffRoundTripsThroughTheStates) {
    util::Rng rng{20261019};
    for (int trial = 0; trial < 40; ++trial) {
        const std::size_t n = 2 + static_cast<std::size_t>(trial % 2);
        std::vector<std::size_t> type_counts(n);
        std::vector<std::size_t> action_counts(n);
        for (std::size_t p = 0; p < n; ++p) {
            type_counts[p] = 1 + rng.next_below(3);
            action_counts[p] = 2 + rng.next_below(2);
        }
        BayesianGame g(type_counts, action_counts);
        std::map<std::tuple<TypeProfile, PureProfile, std::size_t>, Rational> shadow;
        const auto random_tuple = [&](const std::vector<std::size_t>& radices) {
            std::vector<std::size_t> tuple(radices.size());
            for (std::size_t i = 0; i < radices.size(); ++i) tuple[i] = rng.next_below(radices[i]);
            return tuple;
        };
        const std::string label = "trial " + std::to_string(trial);
        for (int step = 0; step < 80; ++step) {
            const TypeProfile types = random_tuple(type_counts);
            const PureProfile actions = random_tuple(action_counts);
            const std::size_t player = rng.next_below(n);
            const Rational value{2 * rng.next_int(-3, 2) + 1, 6};
            g.set_payoff(types, actions, player, value);
            shadow[{types, actions, player}] = value;
        }
        expect_bayesian_matches(g, shadow, label);

        // Overwrite every cell of one level of player 0 at one type
        // profile: the level leaves that state's store.
        const TypeProfile types = random_tuple(type_counts);
        const PureProfile first(n, 0);
        const Rational emptied = g.payoff(types, first, 0);
        util::product_for_each(action_counts, [&](const PureProfile& actions) {
            if (g.payoff(types, actions, 0) != emptied) return true;
            g.set_payoff(types, actions, 0, Rational{7, 6});
            shadow[{types, actions, 0}] = Rational{7, 6};
            return true;
        });
        const auto& levels = g.state(g.type_rank(types)).levels(0);
        EXPECT_EQ(std::find(levels.begin(), levels.end(), emptied), levels.end()) << label;
        expect_bayesian_matches(g, shadow, label + " emptied");

        BayesianGame copy = g;
        copy.set_payoff(types, first, n - 1, Rational{13, 6});
        EXPECT_EQ(copy.payoff(types, first, n - 1), (Rational{13, 6})) << label;
        expect_bayesian_matches(g, shadow, label + " original");
        if (::testing::Test::HasFailure()) return;
    }
}

TEST(BayesianStore, LiftSharesTheNormalFormStore) {
    util::Rng rng{5};
    const NormalFormGame g = NormalFormGame::random({3, 2, 2}, rng, -4, 4);
    const std::uint64_t before = NormalFormGame::tensor_allocations();
    const BayesianGame lifted = core::lift_to_bayesian(g);
    EXPECT_EQ(NormalFormGame::tensor_allocations(), before);
    EXPECT_EQ(&lifted.state(0).ordinal_ranks(), &g.ordinal_ranks());
    const TypeProfile types(3, 0);
    EXPECT_EQ(lifted.prior(types), Rational{1});
    for (std::uint64_t rank = 0; rank < g.num_profiles(); ++rank) {
        for (std::size_t player = 0; player < 3; ++player) {
            EXPECT_EQ(lifted.payoff(types, g.profile_unrank(rank), player),
                      g.payoff_at(rank, player));
        }
    }
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
