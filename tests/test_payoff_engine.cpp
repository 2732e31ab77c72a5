// Golden equivalence tests for the stride-indexed payoff engine: the
// single-sweep deviation/expected kernels must match the seed's naive
// per-(player, action) implementation exactly (Rational path) and to
// floating-point tolerance (double path), and the blocked sweep must be
// deterministic across serial and threaded execution.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "game/payoff_engine.h"
#include "solver/verification.h"
#include "support_restriction.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/work_counters.h"

namespace bnash::game {
namespace {

using util::Rational;

std::vector<std::size_t> random_shape(util::Rng& rng, std::size_t players) {
    std::vector<std::size_t> counts(players);
    for (auto& count : counts) count = static_cast<std::size_t>(rng.next_int(2, 4));
    return counts;
}

MixedProfile random_mixed(const NormalFormGame& game, util::Rng& rng, bool with_zeros) {
    MixedProfile profile(game.num_players());
    for (std::size_t i = 0; i < game.num_players(); ++i) {
        MixedStrategy s(game.num_actions(i), 0.0);
        double total = 0.0;
        for (auto& p : s) {
            p = (with_zeros && rng.next_bool(0.4)) ? 0.0 : rng.next_double() + 1e-3;
            total += p;
        }
        if (total == 0.0) {
            s[0] = 1.0;
            total = 1.0;
        }
        for (auto& p : s) p /= total;
        profile[i] = std::move(s);
    }
    return profile;
}

ExactMixedProfile random_exact(const NormalFormGame& game, util::Rng& rng) {
    ExactMixedProfile profile(game.num_players());
    for (std::size_t i = 0; i < game.num_players(); ++i) {
        ExactMixedStrategy s(game.num_actions(i), Rational{0});
        std::int64_t total = 0;
        std::vector<std::int64_t> weights(s.size());
        for (auto& w : weights) {
            w = rng.next_int(0, 4);
            total += w;
        }
        if (total == 0) {
            weights[0] = 1;
            total = 1;
        }
        for (std::size_t a = 0; a < s.size(); ++a) s[a] = Rational{weights[a], total};
        profile[i] = std::move(s);
    }
    return profile;
}

TEST(PayoffEngine, SingleSweepMatchesNaiveDouble) {
    util::Rng rng{11};
    const auto check = [&](const NormalFormGame& g) {
        for (const bool with_zeros : {false, true}) {
            const auto profile = random_mixed(g, rng, with_zeros);
            const auto fast = deviation_payoffs_all(g, profile);
            const auto slow = naive::deviation_payoffs_all(g, profile);
            ASSERT_EQ(fast.size(), slow.size());
            for (std::size_t i = 0; i < fast.size(); ++i) {
                for (std::size_t a = 0; a < fast[i].size(); ++a) {
                    EXPECT_NEAR(fast[i][a], slow[i][a], 1e-9)
                        << "players=" << g.num_players() << " i=" << i << " a=" << a;
                }
            }
        }
    };
    for (std::size_t players = 2; players <= 4; ++players) {
        for (int trial = 0; trial < 5; ++trial) {
            check(NormalFormGame::random(random_shape(rng, players), rng));
        }
    }
    // More players than the full-game double accessor's level table
    // holds: that sweep reads through the view instead.
    std::vector<std::size_t> wide(17, 1);
    wide[0] = 2;
    wide[8] = 3;
    wide[16] = 2;
    check(NormalFormGame::random(wide, rng));
}

TEST(PayoffEngine, SingleSweepMatchesNaiveExact) {
    util::Rng rng{13};
    for (std::size_t players = 2; players <= 4; ++players) {
        for (int trial = 0; trial < 3; ++trial) {
            const auto g = NormalFormGame::random(random_shape(rng, players), rng);
            const auto profile = random_exact(g, rng);
            const auto fast = deviation_payoffs_all_exact(g, profile);
            for (std::size_t i = 0; i < fast.size(); ++i) {
                for (std::size_t a = 0; a < fast[i].size(); ++a) {
                    // Byte-identical: exact arithmetic admits no tolerance.
                    EXPECT_EQ(fast[i][a], naive::deviation_payoff_exact(g, profile, i, a))
                        << "players=" << players << " i=" << i << " a=" << a;
                }
            }
        }
    }
}

TEST(PayoffEngine, ExpectedPayoffIsTableContraction) {
    util::Rng rng{17};
    const auto g = NormalFormGame::random({3, 4, 3}, rng);
    const auto profile = random_mixed(g, rng, false);
    const auto dev = deviation_payoffs_all(g, profile);
    const auto expected = expected_payoffs(g, profile);
    for (std::size_t i = 0; i < g.num_players(); ++i) {
        double contraction = 0.0;
        for (std::size_t a = 0; a < dev[i].size(); ++a) {
            contraction += profile[i][a] * dev[i][a];
        }
        EXPECT_NEAR(expected[i], contraction, 1e-9);
    }
    // The same identity in exact arithmetic.
    const auto exact_profile = random_exact(g, rng);
    const auto exact_dev = deviation_payoffs_all_exact(g, exact_profile);
    const auto exact_expected = expected_payoffs_exact(g, exact_profile);
    for (std::size_t i = 0; i < g.num_players(); ++i) {
        Rational contraction{0};
        for (std::size_t a = 0; a < exact_dev[i].size(); ++a) {
            contraction += exact_profile[i][a] * exact_dev[i][a];
        }
        EXPECT_EQ(exact_expected[i], contraction);
    }
}

// Support-k profile: exactly `support` actions per player get mass.
MixedProfile random_support_profile(const NormalFormGame& game, util::Rng& rng,
                                    std::size_t support) {
    MixedProfile profile(game.num_players());
    for (std::size_t i = 0; i < game.num_players(); ++i) {
        MixedStrategy s(game.num_actions(i), 0.0);
        std::vector<std::size_t> actions(game.num_actions(i));
        for (std::size_t a = 0; a < actions.size(); ++a) actions[a] = a;
        rng.shuffle(actions);
        const std::size_t width = std::min(support, actions.size());
        double total = 0.0;
        for (std::size_t j = 0; j < width; ++j) {
            s[actions[j]] = rng.next_double() + 0.1;
            total += s[actions[j]];
        }
        for (auto& p : s) p /= total;
        profile[i] = std::move(s);
    }
    return profile;
}

TEST(PayoffEngine, DeviationRowMatchesFullTable) {
    // deviation_row folds each weight as the table does (prefix[i] *
    // suffix[i+1]), so a row equals the table's BITWISE: on every player
    // count, at every support width, whichever walk the table takes and
    // in both sweep modes.
    util::Rng rng{19};
    for (std::size_t players = 2; players <= 6; ++players) {
        for (std::size_t support = 1; support <= 4; ++support) {
            for (int trial = 0; trial < 3; ++trial) {
                const auto g = NormalFormGame::random(random_shape(rng, players), rng);
                const auto profile = random_support_profile(g, rng, support);
                for (const auto mode : {SweepMode::kSerial, SweepMode::kAuto}) {
                    const auto dev = deviation_payoffs_all(g, profile, mode);
                    for (std::size_t i = 0; i < players; ++i) {
                        EXPECT_EQ(deviation_row(g, profile, i), dev[i])
                            << "players=" << players << " support=" << support
                            << " trial=" << trial << " i=" << i;
                    }
                }
            }
        }
    }
}

TEST(PayoffEngine, BestResponsesAndRegretMatchNaive) {
    util::Rng rng{23};
    const auto g = NormalFormGame::random({5, 5}, rng);
    const auto profile = random_mixed(g, rng, false);
    const auto table = naive::deviation_payoffs_all(g, profile);
    double regret = 0.0;
    for (std::size_t i = 0; i < g.num_players(); ++i) {
        const double best = *std::max_element(table[i].begin(), table[i].end());
        std::vector<std::size_t> responses;
        double current = 0.0;
        for (std::size_t a = 0; a < table[i].size(); ++a) {
            if (table[i][a] >= best - 1e-9) responses.push_back(a);
            current += profile[i][a] * table[i][a];
        }
        EXPECT_EQ(best_responses_from(deviation_row(g, profile, i), 1e-9), responses);
        regret = std::max(regret, best - current);
    }
    EXPECT_NEAR(regret_from(deviation_payoffs_all(g, profile), profile), regret, 1e-12);
}

TEST(PayoffEngine, ThreadedAndSerialSweepsAreBitIdentical) {
    util::Rng rng{29};
    // 32^3 = 32768 profiles: two parallel blocks, so the blocked merge
    // path (and on multi-core hosts the pool dispatch) is exercised.
    const auto g = NormalFormGame::random({32, 32, 32}, rng);
    const auto profile = random_mixed(g, rng, false);
    const auto threaded = deviation_payoffs_all(g, profile, SweepMode::kAuto);
    const auto serial = deviation_payoffs_all(g, profile, SweepMode::kSerial);
    ASSERT_EQ(threaded.size(), serial.size());
    for (std::size_t i = 0; i < threaded.size(); ++i) {
        for (std::size_t a = 0; a < threaded[i].size(); ++a) {
            // Bitwise, not near: block decomposition is fixed and partial
            // tables merge in block order regardless of worker count.
            EXPECT_EQ(threaded[i][a], serial[i][a]);
        }
    }
    // Re-running must also be deterministic.
    const auto again = deviation_payoffs_all(g, profile, SweepMode::kAuto);
    for (std::size_t i = 0; i < threaded.size(); ++i) {
        for (std::size_t a = 0; a < threaded[i].size(); ++a) {
            EXPECT_EQ(threaded[i][a], again[i][a]);
        }
    }
    const auto expected_threaded = expected_payoffs(g, profile, SweepMode::kAuto);
    const auto expected_serial = expected_payoffs(g, profile, SweepMode::kSerial);
    for (std::size_t i = 0; i < expected_threaded.size(); ++i) {
        EXPECT_EQ(expected_threaded[i], expected_serial[i]);
    }
}

// --------------------------------------------------- sparse-support sweeps

TEST(PayoffEngine, SparseSweepsAreBitIdenticalToDense) {
    // A profile with zero weights walks only its support. The reference
    // sweeps the support-restricted view with the restricted profile,
    // which walks that view's own columns: the same cells in the same
    // order, so on these single-block games doubles match BITWISE in both
    // sweep modes and at every support width (point masses included).
    util::Rng rng{41};
    for (int trial = 0; trial < 24; ++trial) {
        const std::size_t players = 2 + static_cast<std::size_t>(trial % 5);
        const auto g = NormalFormGame::random(random_shape(rng, players), rng);
        ASSERT_LE(g.num_profiles(), kParallelBlock);
        const std::size_t support = 1 + static_cast<std::size_t>(trial % 4);
        const auto profile = random_support_profile(g, rng, support);
        const std::string label = "trial " + std::to_string(trial);
        const auto cut = restrict_to_support(g, profile);
        for (const auto mode : {SweepMode::kSerial, SweepMode::kAuto}) {
            EXPECT_EQ(expected_payoffs(g, profile, mode),
                      expected_payoffs(cut.view, cut.profile, mode))
                << label;
            const auto dev = deviation_payoffs_all(g, profile, mode);
            for (std::size_t i = 0; i < players; ++i) {
                const auto row_cut = restrict_to_support(g, profile, i);
                EXPECT_EQ(dev[i], deviation_row(row_cut.view, row_cut.profile, i))
                    << label << " player " << i;
            }
        }
        for (std::size_t i = 0; i < players; ++i) {
            EXPECT_EQ(expected_payoff(g, profile, i), expected_payoff(cut.view, cut.profile, i))
                << label << " player " << i;
        }
    }
}

TEST(PayoffEngine, SparseExactSweepsMatchDense) {
    util::Rng rng{43};
    for (int trial = 0; trial < 12; ++trial) {
        const std::size_t players = 2 + static_cast<std::size_t>(trial % 3);
        const auto g = NormalFormGame::random(random_shape(rng, players), rng);
        // random_exact draws weight 0 with probability 1/5 per action, so
        // sparse supports occur naturally; force a point mass sometimes.
        auto profile = random_exact(g, rng);
        if (trial % 3 == 0) {
            for (auto& s : profile) {
                std::fill(s.begin(), s.end(), Rational{0});
                s[0] = Rational{1};
            }
        }
        const auto cut = restrict_to_support(g, profile);
        EXPECT_EQ(expected_payoffs_exact(g, profile),
                  expected_payoffs_exact(cut.view, cut.profile));
        const auto dev = deviation_payoffs_all_exact(g, profile);
        for (std::size_t i = 0; i < players; ++i) {
            EXPECT_EQ(expected_payoff_exact(g, profile, i),
                      expected_payoff_exact(cut.view, cut.profile, i));
            const auto row_cut = restrict_to_support(g, profile, i);
            EXPECT_EQ(dev[i], deviation_row_exact(row_cut.view, row_cut.profile, i));
            EXPECT_EQ(dev[i], deviation_row_exact(g, profile, i));
        }
    }
}

TEST(PayoffEngine, SparseMultiBlockMatchesDenseBitwise) {
    // 8^6 = 2^18 profiles, sixteen parallel blocks. The deviation table
    // takes one support row per player when those rows walk fewer cells
    // (6 * 8 * s^5 for support s) than marginalization (8^6): at support
    // 2 it takes the rows, at supports 7 and 8 marginalization. Support
    // blocks are cut at the dense block boundaries, so either way the
    // table equals the per-player rows BITWISE, in both modes.
    util::Rng rng{47};
    const auto g = NormalFormGame::random({8, 8, 8, 8, 8, 8}, rng);
    ASSERT_GT(g.num_profiles(), kParallelBlock);
    for (const std::uint64_t support : {2u, 7u, 8u}) {
        const auto profile = random_support_profile(g, rng, support);
        std::uint64_t rows = 6 * 8;
        for (int i = 0; i < 5; ++i) rows *= support;
        const std::uint64_t cells = std::min(rows, g.num_profiles());
        for (const auto mode : {SweepMode::kSerial, SweepMode::kAuto}) {
            util::work_counters_reset();
            const auto dev = deviation_payoffs_all(g, profile, mode);
            EXPECT_EQ(util::work_counters_snapshot().cells_visited, cells)
                << "support " << support;
            for (std::size_t i = 0; i < g.num_players(); ++i) {
                EXPECT_EQ(deviation_row(g, profile, i), dev[i])
                    << "support " << support << " player " << i;
            }
        }
        EXPECT_EQ(expected_payoffs(g, profile, SweepMode::kSerial),
                  expected_payoffs(g, profile, SweepMode::kAuto))
            << "support " << support;
    }
}

TEST(PayoffEngine, SparseSweepVisitsOnlyTheSupport) {
    // The work counters certify the claimed asymptotics: on a 3x3x3 game
    // the expected sweep of a point mass visits 1 row and of a
    // full-support profile all 27; the point mass's deviation table takes
    // one support row per player, 3 rows each.
    util::Rng rng{53};
    const auto g = NormalFormGame::random({3, 3, 3}, rng);
    MixedProfile point(3, MixedStrategy(3, 0.0));
    for (auto& s : point) s[1] = 1.0;
    const auto cells_of = [](const auto& sweep) {
        util::work_counters_reset();
        (void)sweep();
        return util::work_counters_snapshot().cells_visited;
    };
    EXPECT_EQ(cells_of([&] { return expected_payoffs(g, point, SweepMode::kSerial); }), 1u);
    EXPECT_EQ(cells_of([&] { return deviation_payoffs_all(g, point, SweepMode::kSerial); }),
              9u);
    const auto interior = random_mixed(g, rng, false);
    EXPECT_EQ(cells_of([&] { return expected_payoffs(g, interior, SweepMode::kSerial); }), 27u);
    EXPECT_EQ(cells_of([&] { return deviation_payoffs_all(g, interior, SweepMode::kSerial); }),
              27u);
}

TEST(PayoffEngine, ValidatesProfileShape) {
    util::Rng rng{31};
    const auto g = NormalFormGame::random({2, 3}, rng);
    EXPECT_THROW((void)deviation_payoffs_all(g, {{0.5, 0.5}}), std::invalid_argument);
    EXPECT_THROW((void)deviation_payoffs_all(g, {{0.5, 0.5}, {1.0}}),
                 std::invalid_argument);
    // A player index past the view reads no payoff.
    const MixedProfile uniform{{0.5, 0.5}, {1.0 / 3, 1.0 / 3, 1.0 / 3}};
    EXPECT_THROW((void)expected_payoff(g, uniform, 2), std::out_of_range);
    EXPECT_THROW((void)deviation_row(g, uniform, 2), std::out_of_range);
}

TEST(PayoffEngine, VerificationAgreesWithEngine) {
    // pure_nash_equilibria walks a running flat row of ordinal ranks; the
    // result must agree with a per-profile is_pure_nash check.
    util::Rng rng{37};
    const auto g = NormalFormGame::random({3, 3, 3}, rng);
    const auto equilibria = solver::pure_nash_equilibria(g);
    std::size_t count = 0;
    for (std::uint64_t rank = 0; rank < g.num_profiles(); ++rank) {
        const auto profile = g.profile_unrank(rank);
        if (solver::is_pure_nash(g, profile)) {
            ASSERT_LT(count, equilibria.size());
            EXPECT_EQ(equilibria[count], profile);
            ++count;
        }
    }
    EXPECT_EQ(count, equilibria.size());
}

TEST(ThreadPool, RunsEveryBlockExactlyOnce) {
    auto& pool = util::global_pool();
    constexpr std::size_t kBlocks = 257;
    std::vector<std::atomic<int>> hits(kBlocks);
    pool.run_blocks(kBlocks, [&](std::size_t block) { hits[block].fetch_add(1); });
    for (std::size_t block = 0; block < kBlocks; ++block) {
        EXPECT_EQ(hits[block].load(), 1) << "block " << block;
    }
    // Reuse must work (the pool is a long-lived process-wide resource).
    pool.run_blocks(3, [&](std::size_t block) { hits[block].fetch_add(1); });
    for (std::size_t block = 0; block < 3; ++block) {
        EXPECT_EQ(hits[block].load(), 2);
    }
}

}  // namespace
}  // namespace bnash::game
