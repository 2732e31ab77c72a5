// Symmetry layer: OrbitWalker combinatorics, SymmetryGroup detection /
// declaration / refinement, orbit-native payoff entry points, and the
// OrbitSweep robustness engine cross-validated against the dense
// CoalitionSweep on ~100 seeded symmetric games — verdict grids and
// max_kt boundary structs must MATCH the dense engine's, and every
// orbit witness must re-verify on the expanded tensor. Degenerate
// (all-singleton) groups must route to the dense sweep observationally
// unchanged, witnesses included. Large-n declared groups (the anonymous
// games' single class) run frontiers no tensor could hold, checked
// against the anonymous closed-form boundaries.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/robust/anonymous.h"
#include "core/robust/coalition_sweep.h"
#include "core/robust/orbit_sweep.h"
#include "core/robust/robustness.h"
#include "game/catalog.h"
#include "game/game_view.h"
#include "game/normal_form.h"
#include "game/payoff_engine.h"
#include "game/strategy.h"
#include "game/symmetry.h"
#include "symmetric_corpus.h"
#include "util/orbit_walker.h"
#include "util/rng.h"

namespace bnash::core {
namespace {

using game::ExactMixedProfile;
using game::GameView;
using game::NormalFormGame;
using game::PureProfile;
using game::QuotientGame;
using game::SweepMode;
using game::SymmetryGroup;
using util::OrbitWalker;
using util::Rational;

// ----------------------------------------------------- OrbitWalker units

TEST(OrbitWalkerTest, CompositionRankUnrankRoundTrip) {
    const std::size_t total = 4, parts = 3;
    const std::uint64_t count = util::composition_count(total, parts);
    EXPECT_EQ(count, 15u);  // C(6, 2)
    std::vector<std::size_t> counts;
    std::vector<std::size_t> prev;
    for (std::uint64_t rank = 0; rank < count; ++rank) {
        util::composition_unrank(total, parts, rank, counts);
        EXPECT_EQ(util::composition_rank(total, counts), rank);
        std::size_t sum = 0;
        for (const std::size_t c : counts) sum += c;
        EXPECT_EQ(sum, total);
        if (rank == 0) {
            EXPECT_EQ(counts, (std::vector<std::size_t>{4, 0, 0}));
        } else {
            EXPECT_TRUE(counts < prev);  // descending lex
        }
        prev = counts;
    }
}

TEST(OrbitWalkerTest, MultiplicitiesAreMultinomials) {
    EXPECT_EQ(util::orbit_multiplicity({2, 1, 1}), 12u);
    EXPECT_EQ(util::orbit_multiplicity({4, 0, 0}), 1u);
    EXPECT_EQ(util::orbit_multiplicity({2, 2}), 6u);
}

TEST(OrbitWalkerTest, AdvanceCoversAllOrbitsAndSeekAgrees) {
    OrbitWalker walker;
    walker.add_class(2, 2);  // 3 compositions
    walker.add_class(3, 2);  // 4 compositions
    ASSERT_EQ(walker.num_orbits(), 12u);

    // Record the advance() trajectory and the summed multiplicities.
    std::vector<std::vector<std::size_t>> first_digit, second_digit;
    std::uint64_t total_tuples = 0;
    walker.reset();
    std::uint64_t rank = 0;
    do {
        EXPECT_EQ(walker.rank(), rank);
        first_digit.push_back(walker.counts(0));
        second_digit.push_back(walker.counts(1));
        total_tuples += walker.orbit_size();
        ++rank;
    } while (walker.advance());
    ASSERT_EQ(rank, 12u);
    // Orbit multiplicities partition the raw tuple space 2^2 * 2^3.
    EXPECT_EQ(total_tuples, 32u);

    // seek(r) lands on the same compositions advance() reaches.
    for (std::uint64_t r = 0; r < 12; ++r) {
        OrbitWalker fresh;
        fresh.add_class(2, 2);
        fresh.add_class(3, 2);
        fresh.seek(r);
        EXPECT_EQ(fresh.rank(), r);
        EXPECT_EQ(fresh.counts(0), first_digit[r]) << "rank " << r;
        EXPECT_EQ(fresh.counts(1), second_digit[r]) << "rank " << r;
    }
}

TEST(OrbitWalkerTest, PinnedDigitsNeverAdvance) {
    OrbitWalker walker;
    walker.add_pinned_class(2, 2, {1, 1});
    walker.add_class(2, 2);
    EXPECT_EQ(walker.num_orbits(), 3u);
    walker.reset();
    std::uint64_t seen = 0;
    do {
        EXPECT_EQ(walker.counts(0), (std::vector<std::size_t>{1, 1}));
        // Pinned multiplicity (2 over {1,1}) scales every orbit.
        EXPECT_EQ(walker.orbit_size() % 2, 0u);
        ++seen;
    } while (walker.advance());
    EXPECT_EQ(seen, 3u);
    EXPECT_GT(walker.digit_moves(), 0u);
}

// ------------------------------------------------ symmetric-game helpers

// Dense re-evaluation of an orbit witness on the expanded tensor: the
// reported violation must be genuine as stated, whatever orbit member it
// names.
void validate_witness(const NormalFormGame& g, const PureProfile& base,
                      const RobustnessViolation& v, std::size_t k, std::size_t t,
                      GainCriterion criterion, const std::string& label) {
    ASSERT_LE(v.coalition.size(), k) << label;
    ASSERT_LE(v.faulty.size(), t) << label;
    ASSERT_EQ(v.coalition.size(), v.coalition_deviation.size()) << label;
    ASSERT_EQ(v.faulty.size(), v.faulty_deviation.size()) << label;
    PureProfile after = base;
    for (std::size_t i = 0; i < v.coalition.size(); ++i) {
        after[v.coalition[i]] = v.coalition_deviation[i];
    }
    for (std::size_t i = 0; i < v.faulty.size(); ++i) {
        after[v.faulty[i]] = v.faulty_deviation[i];
    }
    for (const std::size_t member : v.coalition) {
        EXPECT_TRUE(std::find(v.faulty.begin(), v.faulty.end(), member) == v.faulty.end())
            << label << ": coalition and faulty overlap";
    }
    const Rational post = g.payoff(after, v.witness_player);
    EXPECT_EQ(v.payoff_after, post.to_double()) << label;
    if (v.coalition.empty()) {
        // Immunity violation: an OUTSIDER is hurt relative to the full
        // candidate profile.
        EXPECT_TRUE(std::find(v.faulty.begin(), v.faulty.end(), v.witness_player) ==
                    v.faulty.end())
            << label;
        const Rational before = g.payoff(base, v.witness_player);
        EXPECT_EQ(v.payoff_before, before.to_double()) << label;
        EXPECT_LT(post, before) << label;
    } else {
        // Resilience violation: the reference is the coalition playing
        // the CANDIDATE against the same faulty deviation.
        PureProfile reference = base;
        for (std::size_t i = 0; i < v.faulty.size(); ++i) {
            reference[v.faulty[i]] = v.faulty_deviation[i];
        }
        EXPECT_TRUE(std::find(v.coalition.begin(), v.coalition.end(), v.witness_player) !=
                    v.coalition.end())
            << label;
        const Rational before = g.payoff(reference, v.witness_player);
        EXPECT_EQ(v.payoff_before, before.to_double()) << label;
        EXPECT_GT(post, before) << label;
        if (criterion == GainCriterion::kAllMembersGain) {
            for (const std::size_t member : v.coalition) {
                EXPECT_GT(g.payoff(after, member), g.payoff(reference, member)) << label;
            }
        }
    }
}

void expect_same_verdict_grid(const FrontierVerdict& a, const FrontierVerdict& b,
                              const std::string& label) {
    ASSERT_EQ(a.max_k, b.max_k) << label;
    ASSERT_EQ(a.max_t, b.max_t) << label;
    for (std::size_t k = 0; k <= a.max_k; ++k) {
        for (std::size_t t = 0; t <= a.max_t; ++t) {
            EXPECT_EQ(a.verdict(k, t), b.verdict(k, t))
                << label << " cell (" << k << "," << t << ")";
        }
    }
}

// ------------------------------------------------- SymmetryGroup basics

TEST(SymmetryGroupTest, DeclaredValidatesPartitions) {
    EXPECT_THROW((void)SymmetryGroup::declared({{0, 1}, {1, 2}}, 3), std::invalid_argument);
    EXPECT_THROW((void)SymmetryGroup::declared({{0, 1}}, 3), std::invalid_argument);
    const SymmetryGroup group = SymmetryGroup::declared({{2, 0}, {1}}, 3);
    EXPECT_EQ(group.num_classes(), 2u);
    EXPECT_EQ(group.class_of(0), group.class_of(2));
    EXPECT_NE(group.class_of(0), group.class_of(1));
    EXPECT_FALSE(group.is_trivial());
    EXPECT_TRUE(SymmetryGroup::trivial(3).is_trivial());
}

TEST(SymmetryGroupTest, DetectFindsDeclaredStructureAndVerifies) {
    util::Rng rng{7101};
    std::vector<std::size_t> sizes;
    const SymmetryGroup declared = random_group(rng, 5, sizes);
    std::vector<std::size_t> actions(sizes.size());
    for (auto& a : actions) a = 2;
    const QuotientGame quotient = random_quotient(rng, sizes, actions);
    const NormalFormGame g = expand_quotient(quotient, declared);
    const GameView view = GameView::full(g);

    EXPECT_TRUE(declared.verify(view));
    const SymmetryGroup detected = SymmetryGroup::detect(view);
    EXPECT_TRUE(detected.verify(view));
    // Detection recovers at least the declared exchangeability: players
    // sharing a declared class are detected together.
    for (std::size_t i = 0; i < 5; ++i) {
        for (std::size_t j = i + 1; j < 5; ++j) {
            if (declared.class_of(i) == declared.class_of(j)) {
                EXPECT_EQ(detected.class_of(i), detected.class_of(j));
            }
        }
    }
}

TEST(SymmetryGroupTest, RefinedBySplitsOnStrategies) {
    const SymmetryGroup group = SymmetryGroup::single_class(4);
    ExactMixedProfile profile(4);
    for (std::size_t i = 0; i < 4; ++i) {
        profile[i] = game::ExactMixedStrategy{Rational{i < 2 ? 1 : 0}, Rational{i < 2 ? 0 : 1}};
    }
    EXPECT_FALSE(group.class_constant(profile));
    const SymmetryGroup refined = group.refined_by(profile);
    EXPECT_EQ(refined.num_classes(), 2u);
    EXPECT_TRUE(refined.class_constant(profile));
    EXPECT_EQ(refined.class_of(0), refined.class_of(1));
    EXPECT_EQ(refined.class_of(2), refined.class_of(3));
    EXPECT_NE(refined.class_of(0), refined.class_of(2));
}

// ------------------------------------- orbit-vs-dense robustness fuzzing

TEST(OrbitSweepFuzz, VerdictsMatchDenseOnSeededSymmetricGames) {
    util::Rng rng{20260808};
    for (int trial = 0; trial < 100; ++trial) {
        const std::size_t n = 4 + static_cast<std::size_t>(trial % 3);
        std::vector<std::size_t> sizes;
        const SymmetryGroup group = random_group(rng, n, sizes);
        std::vector<std::size_t> actions(sizes.size());
        for (auto& a : actions) a = 2 + static_cast<std::size_t>(rng.next_int(0, 1));
        const QuotientGame quotient = random_quotient(rng, sizes, actions);
        const NormalFormGame g = expand_quotient(quotient, group);
        const GameView view = GameView::full(g);
        ASSERT_TRUE(group.verify(view)) << "trial " << trial;

        // Class-constant pure candidate (the orbit-applicable shape);
        // every 7th trial breaks class-constancy to pin the dense
        // fallback's exactness.
        PureProfile base(n, 0);
        for (std::size_t i = 0; i < n; ++i) {
            const std::size_t cls = group.class_of(i);
            base[i] = static_cast<std::size_t>(rng.next_int(0, 0)) +
                      (static_cast<std::size_t>(trial + static_cast<int>(cls)) % actions[cls]);
        }
        const bool breaking = trial % 7 == 3 && sizes.size() < n;
        if (breaking) {
            // Flip one member of the first non-singleton class.
            for (std::size_t c = 0; c < sizes.size(); ++c) {
                if (sizes[c] < 2) continue;
                std::size_t member = 0;
                for (std::size_t i = 0; i < n; ++i) {
                    if (group.class_of(i) == c) {
                        member = i;
                        break;
                    }
                }
                base[member] = (base[member] + 1) % actions[c];
                break;
            }
        }
        const ExactMixedProfile profile = as_exact_profile(g, base);
        const auto criterion = (trial % 3 == 0) ? GainCriterion::kAllMembersGain
                                                : GainCriterion::kAnyMemberGains;
        const std::size_t max_k = 1 + static_cast<std::size_t>(trial % static_cast<int>(n));
        const std::size_t max_t = static_cast<std::size_t>(trial % 3);
        const RobustnessOptions options{criterion, SweepMode::kAuto};
        const std::string label = "trial " + std::to_string(trial) + " n=" + std::to_string(n) +
                                  " k=" + std::to_string(max_k) + " t=" + std::to_string(max_t) +
                                  (breaking ? " (fallback)" : "");

        EXPECT_EQ(orbit_applicable(group, profile), !breaking && !group.is_trivial()) << label;

        const FrontierVerdict dense =
            batch_robustness_frontier(view, profile, max_k, max_t, options);
        const FrontierVerdict routed =
            batch_robustness_frontier(view, profile, max_k, max_t, options, &group);
        if (breaking || group.is_trivial()) {
            // Dense fallback must be observationally identical, witnesses
            // included.
            EXPECT_TRUE(dense == routed) << label;
        } else {
            expect_same_verdict_grid(dense, routed, label);
            for (std::size_t k = 0; k <= max_k; ++k) {
                for (std::size_t t = 0; t <= max_t; ++t) {
                    const auto& violation = routed.violation(k, t);
                    ASSERT_EQ(violation.has_value(), dense.violation(k, t).has_value())
                        << label << " cell (" << k << "," << t << ")";
                    if (violation) {
                        validate_witness(g, base, *violation, k, t, criterion,
                                         label + " cell (" + std::to_string(k) + "," +
                                             std::to_string(t) + ")");
                    }
                }
            }
        }

        const MaxKtResult dense_walk = max_kt(view, profile, max_k, max_t, options);
        const MaxKtResult routed_walk = max_kt(view, profile, max_k, max_t, options, &group);
        EXPECT_TRUE(dense_walk == routed_walk) << label;

        const auto dense_find =
            core::find_robustness_violation(view, profile, max_k, max_t, options);
        const auto routed_find =
            core::find_robustness_violation(view, profile, max_k, max_t, options, &group);
        ASSERT_EQ(dense_find.has_value(), routed_find.has_value()) << label;
        EXPECT_EQ(is_kt_robust(view, profile, max_k, max_t, options, &group),
                  !dense_find.has_value())
            << label;
        if (routed_find && !breaking && !group.is_trivial()) {
            validate_witness(g, base, *routed_find, max_k, max_t, criterion, label + " find");
        } else if (routed_find) {
            EXPECT_TRUE(*dense_find == *routed_find) << label;
        }

        // A mixed class-constant candidate never takes the orbit route.
        if (trial % 5 == 0) {
            ExactMixedProfile mixed(n);
            for (std::size_t i = 0; i < n; ++i) {
                const std::size_t width = actions[group.class_of(i)];
                mixed[i].assign(width, Rational{1, static_cast<std::int64_t>(width)});
            }
            EXPECT_TRUE(batch_robustness_frontier(view, mixed, 1, 1, options) ==
                        batch_robustness_frontier(view, mixed, 1, 1, options, &group))
                << label << " mixed";
        }
    }
}

TEST(OrbitSweepTest, DegenerateGroupRoutesToDenseUnchanged) {
    util::Rng rng{5511};
    for (int trial = 0; trial < 10; ++trial) {
        const std::size_t n = 3;
        std::vector<std::size_t> counts(n, 2);
        NormalFormGame g(counts);
        for (std::uint64_t rank = 0; rank < g.num_profiles(); ++rank) {
            const PureProfile cell = g.profile_unrank(rank);
            for (std::size_t p = 0; p < n; ++p) {
                g.set_payoff(cell, p, Rational{rng.next_int(-6, 6), rng.next_int(1, 3)});
            }
        }
        const GameView view = GameView::full(g);
        const SymmetryGroup trivial = SymmetryGroup::trivial(n);
        PureProfile base(n, 0);
        for (std::size_t i = 0; i < n; ++i) {
            base[i] = static_cast<std::size_t>(rng.next_int(0, 1));
        }
        const ExactMixedProfile profile = as_exact_profile(g, base);
        const RobustnessOptions options{GainCriterion::kAnyMemberGains, SweepMode::kAuto};

        EXPECT_FALSE(orbit_applicable(trivial, profile));
        EXPECT_TRUE(batch_robustness_frontier(view, profile, n, 1, options) ==
                    batch_robustness_frontier(view, profile, n, 1, options, &trivial))
            << "trial " << trial;
        EXPECT_TRUE(max_kt(view, profile, n, 1, options) ==
                    max_kt(view, profile, n, 1, options, &trivial))
            << "trial " << trial;
        const auto dense_find = core::find_robustness_violation(view, profile, 2, 1, options);
        const auto routed_find =
            core::find_robustness_violation(view, profile, 2, 1, options, &trivial);
        ASSERT_EQ(dense_find.has_value(), routed_find.has_value());
        if (dense_find) {
            EXPECT_TRUE(*dense_find == *routed_find);
        }
    }
}

TEST(OrbitSweepTest, SymmetryArgumentStillValidatesTheCandidate) {
    // The prisoner's dilemma with candidate (C,C), each strategy padded
    // with a trailing 0: not a profile of the game. With a group, the pure
    // part is class-constant, so only validation BEFORE routing refuses it.
    const NormalFormGame pd = game::catalog::prisoners_dilemma();
    const GameView view(pd);
    const SymmetryGroup group = SymmetryGroup::detect(view);
    ASSERT_FALSE(group.is_trivial());
    const ExactMixedProfile padded(2, {Rational{1}, Rational{0}, Rational{0}});
    const RobustnessOptions options;
    const SymmetryGroup* sym = &group;
    EXPECT_THROW((void)find_robustness_violation(view, padded, 1, 0, options, sym),
                 std::invalid_argument);
    EXPECT_THROW((void)is_kt_robust(view, padded, 1, 0, options, sym), std::invalid_argument);
    EXPECT_THROW((void)batch_robustness_frontier(view, padded, 1, 1, options, sym),
                 std::invalid_argument);
    EXPECT_THROW((void)max_kt(view, padded, 1, 1, options, sym), std::invalid_argument);
}

// ------------------------------------------------ anonymous large-n path

TEST(OrbitSweepTest, SmallAnonymousQuotientMatchesDenseTensor) {
    const auto abg = AnonymousBinaryGame::attack(6);
    const NormalFormGame g = abg.to_normal_form();
    const GameView view = GameView::full(g);
    const SymmetryGroup group = SymmetryGroup::single_class(6);
    ASSERT_TRUE(group.verify(view));
    const PureProfile base(6, 0);
    const ExactMixedProfile profile = as_exact_profile(g, base);
    const RobustnessOptions options{};

    const OrbitSweep sweep(abg.quotient(), group, {0});
    const FrontierVerdict dense = batch_robustness_frontier(view, profile, 4, 2, options);
    const FrontierVerdict orbit = sweep.batch_robustness_frontier(4, 2);
    expect_same_verdict_grid(dense, orbit, "attack(6)");
    EXPECT_TRUE(max_kt(view, profile, 4, 2, options) == sweep.max_kt(4, 2)) << "attack(6)";
    for (std::size_t k = 0; k <= 4; ++k) {
        for (std::size_t t = 0; t <= 2; ++t) {
            const auto& violation = orbit.violation(k, t);
            if (violation) {
                validate_witness(g, base, *violation, k, t, GainCriterion::kAnyMemberGains,
                                 "attack(6) cell");
            }
        }
    }
}

TEST(OrbitSweepTest, LargeAnonymousFrontierMatchesClosedForms) {
    for (const bool attack : {true, false}) {
        const auto abg = attack ? AnonymousBinaryGame::attack(60)
                                : AnonymousBinaryGame::bargaining(60);
        const OrbitSweep sweep(abg.quotient(), SymmetryGroup::single_class(60), {0});
        const std::size_t max_k = 4, max_t = 2;
        const FrontierVerdict frontier = sweep.batch_robustness_frontier(max_k, max_t);
        EXPECT_TRUE(frontier.complete());

        const std::size_t breaking = abg.min_breaking_coalition(0, max_k);
        const std::size_t immunity = abg.max_immunity(0, max_t);
        ASSERT_EQ(immunity, 0u);  // both Section 2 games break 1-immunity
        for (std::size_t k = 0; k <= max_k; ++k) {
            for (std::size_t t = 0; t <= max_t; ++t) {
                const bool expect_robust = t == 0 && (breaking == 0 || k < breaking);
                EXPECT_EQ(frontier.robust(k, t), expect_robust)
                    << (attack ? "attack" : "bargaining") << " cell (" << k << "," << t << ")";
            }
        }
        // The boundary walk agrees with the grid cell for cell.
        const MaxKtResult walk = sweep.max_kt(max_k, max_t);
        for (std::size_t k = 0; k <= max_k; ++k) {
            for (std::size_t t = 0; t <= max_t; ++t) {
                EXPECT_EQ(walk.robust(k, t), frontier.robust(k, t));
            }
        }
    }
}

// ------------------------------------------------ ranged-block split

// planted_split_quotient's (coalition 2, faulty 2) pair scan spans two
// ranged blocks, so a kAuto sweep splits it; with the planted gain in
// block 0, in block 1 or nowhere, the split frontier and boundary walk
// equal the serial ones and the dense engine's verdicts.
TEST(OrbitSweepTest, SplitPairScanIsBitIdenticalToSerial) {
    for (const std::size_t lead : {0u, 2u, 5u}) {
        const QuotientGame quotient = planted_split_quotient(lead);
        const SymmetryGroup group = planted_split_group();
        const OrbitSweep sweep(quotient, group, {0, 0});
        const std::string label = "lead " + std::to_string(lead);
        const FrontierVerdict serial = sweep.batch_robustness_frontier(
            2, 2, GainCriterion::kAnyMemberGains, SweepMode::kSerial);
        const FrontierVerdict split = sweep.batch_robustness_frontier(
            2, 2, GainCriterion::kAnyMemberGains, SweepMode::kAuto);
        EXPECT_TRUE(serial == split) << label;
        EXPECT_TRUE(sweep.max_kt(2, 2, GainCriterion::kAnyMemberGains, SweepMode::kSerial) ==
                    sweep.max_kt(2, 2, GainCriterion::kAnyMemberGains, SweepMode::kAuto))
            << label;
        // Only the planted gain breaks a cell: (2, 2).
        EXPECT_EQ(serial.robust(2, 2), lead == 0) << label;
        EXPECT_TRUE(serial.robust(2, 1)) << label;

        const NormalFormGame dense_game = expand_quotient(quotient, group);
        const ExactMixedProfile profile = as_exact_profile(dense_game, PureProfile(4, 0));
        const FrontierVerdict dense = CoalitionSweep(dense_game, profile)
                                          .batch_robustness_frontier(2, 2);
        for (std::size_t k = 0; k <= 2; ++k) {
            for (std::size_t t = 0; t <= 2; ++t) {
                EXPECT_EQ(split.verdict(k, t), dense.verdict(k, t))
                    << label << " cell (" << k << "," << t << ")";
            }
        }
    }
}

}  // namespace
}  // namespace bnash::core
