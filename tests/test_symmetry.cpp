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
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
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
#include "orbit_checks.h"
#include "resume_chains.h"
#include "symmetric_corpus.h"
#include "util/combinatorics.h"
#include "util/execution_grant.h"
#include "util/matrix.h"
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

// Each class is (members, actions). The raw tuples of all the players,
// bucketed by their per-class action histograms, must be exactly the
// orbits advance() visits, each visited once; and seek(r) must land on
// the orbit advance() reaches at rank r.
void expect_walk_visits_each_orbit_once(
    const std::vector<std::pair<std::size_t, std::size_t>>& classes) {
    const auto make_walker = [&] {
        OrbitWalker walker;
        for (const auto& [members, actions] : classes) walker.add_class(members, actions);
        return walker;
    };
    using Histograms = std::vector<std::vector<std::size_t>>;
    std::vector<std::size_t> radices;
    for (const auto& [members, actions] : classes) radices.insert(radices.end(), members, actions);
    std::map<Histograms, int> visits;
    util::product_for_each(radices, [&](const std::vector<std::size_t>& tuple) {
        Histograms key;
        std::size_t player = 0;
        for (const auto& [members, actions] : classes) {
            std::vector<std::size_t> counts(actions, 0);
            for (std::size_t i = 0; i < members; ++i) ++counts[tuple[player++]];
            key.push_back(std::move(counts));
        }
        visits.emplace(std::move(key), 0);
        return true;
    });

    OrbitWalker walker = make_walker();
    ASSERT_EQ(walker.num_orbits(), visits.size());
    std::vector<Histograms> trajectory;
    walker.reset();
    std::uint64_t rank = 0;
    do {
        EXPECT_EQ(walker.rank(), rank);
        Histograms key;
        for (std::size_t d = 0; d < classes.size(); ++d) key.push_back(walker.counts(d));
        const auto bucket = visits.find(key);
        ASSERT_NE(bucket, visits.end()) << "rank " << rank << " is no tuple's histograms";
        EXPECT_EQ(++bucket->second, 1) << "rank " << rank << " revisits an orbit";
        trajectory.push_back(std::move(key));
        ++rank;
    } while (walker.advance());
    EXPECT_EQ(rank, visits.size());

    for (std::uint64_t r = 0; r < trajectory.size(); ++r) {
        OrbitWalker fresh = make_walker();
        fresh.seek(r);
        EXPECT_EQ(fresh.rank(), r);
        for (std::size_t d = 0; d < classes.size(); ++d) {
            EXPECT_EQ(fresh.counts(d), trajectory[r][d]) << "rank " << r;
        }
    }
}

TEST(OrbitWalkerTest, AdvanceCoversAllOrbitsAndSeekAgrees) {
    // 3 * 4 = 12 orbits over 2^2 * 2^3 raw tuples.
    expect_walk_visits_each_orbit_once({{2, 2}, {3, 2}});
    // 6 * 10 * 3 = 180 orbits over 3^6 raw tuples.
    expect_walk_visits_each_orbit_once({{2, 3}, {3, 3}, {1, 3}});
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

// ------------------------------------------------ rank-native detection

// The Rational detection the rank-native one replaced, kept as its
// oracle: players bucketed by action count and sorted payoff multiset,
// classes grown greedily in player order by transposition checks that
// compare the view's Rationals.
SymmetryGroup rational_detect(const GameView& view) {
    const std::size_t n = view.num_players();
    const auto multiset = [&](std::size_t p) {
        std::vector<Rational> values;
        for (std::uint64_t r = 0; r < view.num_profiles(); ++r) {
            values.push_back(view.payoff_at(r, p));
        }
        std::sort(values.begin(), values.end());
        return values;
    };
    const auto exchangeable = [&](std::size_t i, std::size_t j) {
        for (std::uint64_t r = 0; r < view.num_profiles(); ++r) {
            const PureProfile a = util::product_unrank(view.action_counts(), r);
            PureProfile swapped = a;
            std::swap(swapped[i], swapped[j]);
            for (std::size_t q = 0; q < n; ++q) {
                const std::size_t tq = q == i ? j : (q == j ? i : q);
                if (view.payoff(a, q) != view.payoff(swapped, tq)) return false;
            }
        }
        return true;
    };
    std::vector<std::vector<std::size_t>> classes;
    for (std::size_t p = 0; p < n; ++p) {
        bool joined = false;
        for (auto& cls : classes) {
            const std::size_t rep = cls.front();
            if (view.num_actions(rep) == view.num_actions(p) && multiset(rep) == multiset(p) &&
                exchangeable(rep, p)) {
                cls.push_back(p);
                joined = true;
                break;
            }
        }
        if (!joined) classes.push_back({p});
    }
    return SymmetryGroup::declared(std::move(classes), n);
}

void expect_detection_matches_oracle(const NormalFormGame& g, const std::string& label) {
    EXPECT_EQ(SymmetryGroup::detect(g).classes(), rational_detect(g).classes()) << label;
    // A permuted view detects on a copy of its subgame.
    std::vector<std::size_t> order(g.num_players());
    for (std::size_t p = 0; p < order.size(); ++p) order[p] = order.size() - 1 - p;
    const GameView reversed = GameView::permute(g, order);
    EXPECT_EQ(SymmetryGroup::detect(reversed).classes(), rational_detect(reversed).classes())
        << label << " (reversed view)";
}

// `g` with one cell's payoffs of players i and j exchanged: both keep
// their payoff multisets when the two values are levels of both.
NormalFormGame with_cell_swapped(const NormalFormGame& g, std::uint64_t rank, std::size_t i,
                                 std::size_t j) {
    NormalFormGame out = g;
    const PureProfile cell = g.profile_unrank(rank);
    out.set_payoff(cell, i, g.payoff_at(rank, j));
    out.set_payoff(cell, j, g.payoff_at(rank, i));
    return out;
}

TEST(SymmetryGroupTest, RankDetectionMatchesTheRationalOracle) {
    util::Rng rng{60613};
    // Symmetric corpus games, with 1..3 classes of shuffled members.
    for (int trial = 0; trial < 24; ++trial) {
        const std::size_t n = 3 + static_cast<std::size_t>(trial % 3);
        std::vector<std::size_t> sizes;
        const SymmetryGroup group = random_group(rng, n, sizes);
        std::vector<std::size_t> actions(sizes.size());
        for (auto& a : actions) a = 2 + static_cast<std::size_t>(rng.next_int(0, 1));
        const NormalFormGame g = expand_quotient(random_quotient(rng, sizes, actions), group);
        const std::string label = "corpus trial " + std::to_string(trial);
        expect_detection_matches_oracle(g, label);
        // One cell's payoffs exchanged between two players: the two keep
        // their multisets (random_quotient's values are shared levels)
        // but usually stop being exchangeable.
        expect_detection_matches_oracle(
            with_cell_swapped(g, rng.next_below(g.num_profiles()), 0, n - 1), label + " swapped");
    }
    // Seeded random games, over a small value range so payoffs collide,
    // with mixed action counts.
    for (int trial = 0; trial < 24; ++trial) {
        std::vector<std::size_t> counts(2 + static_cast<std::size_t>(trial % 3));
        for (auto& c : counts) c = 2 + static_cast<std::size_t>(rng.next_int(0, trial % 2));
        expect_detection_matches_oracle(NormalFormGame::random(counts, rng, -1, 1),
                                        "random trial " + std::to_string(trial));
    }
    // Symmetric bimatrix games (B = A^T), exchangeable; then player 1's
    // payoffs shifted by 1, which keeps every level count but moves the
    // levels; then two of player 1's payoffs exchanged, which keeps the
    // multiset but not the exchangeability.
    for (int trial = 0; trial < 12; ++trial) {
        const std::size_t m = 2 + static_cast<std::size_t>(trial % 3);
        util::MatrixQ a(m, m);
        for (std::size_t r = 0; r < m; ++r) {
            for (std::size_t c = 0; c < m; ++c) a(r, c) = Rational{rng.next_int(-3, 3)};
        }
        util::MatrixQ b(m, m);
        util::MatrixQ shifted(m, m);
        for (std::size_t r = 0; r < m; ++r) {
            for (std::size_t c = 0; c < m; ++c) {
                b(r, c) = a(c, r);
                shifted(r, c) = a(c, r) + 1;
            }
        }
        const std::string label = "bimatrix trial " + std::to_string(trial);
        const NormalFormGame symmetric = NormalFormGame::from_bimatrix(a, b);
        EXPECT_EQ(SymmetryGroup::detect(symmetric).num_classes(), 1u) << label;
        expect_detection_matches_oracle(symmetric, label);
        const NormalFormGame moved = NormalFormGame::from_bimatrix(a, shifted);
        EXPECT_EQ(moved.level_counts(0), moved.level_counts(1)) << label;
        expect_detection_matches_oracle(moved, label + " shifted");
        NormalFormGame exchanged = symmetric;
        exchanged.set_payoff({0, 0}, 1, b(m - 1, 1));
        exchanged.set_payoff({m - 1, 1}, 1, b(0, 0));
        expect_detection_matches_oracle(exchanged, label + " exchanged");
    }
}

// build_quotient against one view lookup per (class, action, others'
// orbit): the members of each class (less the evaluated representative)
// take the orbit's actions in ascending order. Each class keeps the
// representative's level table.
void expect_quotient_reads_the_view(const GameView& view, const SymmetryGroup& group,
                                    const std::string& label) {
    const QuotientGame q = game::build_quotient(view, group);
    PureProfile profile(view.num_players(), 0);
    for (std::size_t c = 0; c < q.num_classes(); ++c) {
        const std::size_t rep = group.classes()[c].front();
        EXPECT_EQ(q.levels[c], view.levels(rep)) << label;
        OrbitWalker walker = q.others_walker(c);
        std::uint64_t r = 0;
        do {
            for (std::size_t d = 0; d < q.num_classes(); ++d) {
                const std::vector<std::size_t>& players = group.classes()[d];
                std::size_t member = d == c ? 1 : 0;
                for (std::size_t a = 0; a < walker.counts(d).size(); ++a) {
                    for (std::size_t i = 0; i < walker.counts(d)[a]; ++i) {
                        profile[players[member++]] = a;
                    }
                }
            }
            for (std::size_t a = 0; a < q.class_actions[c]; ++a) {
                profile[rep] = a;
                ASSERT_EQ(q.at(c, a, r), view.payoff(profile, rep))
                    << label << " class " << c << " action " << a << " orbit " << r;
            }
            ++r;
        } while (walker.advance());
        EXPECT_EQ(r, q.others_orbits(c)) << label;
    }
}

// The quotient of store ranks reads every entry a Rational tabulation
// would: on expanded corpus games (1..3 classes of shuffled members, one
// to three actions), full and reversed views, and on the lifted 7-player
// games under their candidates' refined groups.
TEST(SymmetryGroupTest, QuotientRanksReadTheViewsPayoffs) {
    util::Rng rng{36037};
    for (int trial = 0; trial < 24; ++trial) {
        const std::size_t n = 2 + static_cast<std::size_t>(trial % 5);
        std::vector<std::size_t> sizes;
        const SymmetryGroup group = random_group(rng, n, sizes);
        std::vector<std::size_t> actions(sizes.size());
        for (auto& a : actions) a = 1 + rng.next_below(3);
        const NormalFormGame g = expand_quotient(random_quotient(rng, sizes, actions), group);
        const std::string label = "corpus trial " + std::to_string(trial);
        expect_quotient_reads_the_view(GameView(g), group, label);
        // View player p is game player n - 1 - p.
        std::vector<std::size_t> order(n);
        for (std::size_t p = 0; p < n; ++p) order[p] = n - 1 - p;
        std::vector<std::vector<std::size_t>> mirrored = group.classes();
        for (auto& cls : mirrored) {
            for (std::size_t& p : cls) p = n - 1 - p;
        }
        expect_quotient_reads_the_view(GameView::permute(g, order),
                                       SymmetryGroup::declared(std::move(mirrored), n),
                                       label + " (reversed view)");
    }
    namespace catalog = game::catalog;
    for (const NormalFormGame& g :
         {lifted_catalog(catalog::attack_coordination_game(7), 0, 1),
          lifted_catalog(catalog::bargaining_game(7), 0, 1)}) {
        for (const PureProfile& base :
             {PureProfile(7, 0), PureProfile{0, 0, 0, 0, 1, 1, 1}, PureProfile{1, 0, 1, 0, 1, 0, 1}}) {
            const SymmetryGroup group =
                SymmetryGroup::detect(g).refined_by(as_exact_profile(g, base));
            expect_quotient_reads_the_view(GameView(g), group, "lifted");
        }
    }
}

TEST(SymmetryGroupTest, DetectionIsMemoizedPerStore) {
    util::Rng rng{8831};
    const NormalFormGame g =
        expand_quotient(random_quotient(rng, {4}, {3}), SymmetryGroup::single_class(4));
    EXPECT_FALSE(g.detected_symmetry());
    // Copies share the store, and with it one detection.
    const NormalFormGame copy = g;
    const SymmetryGroup detected = SymmetryGroup::detect(copy);
    ASSERT_EQ(detected.num_classes(), 1u);
    ASSERT_TRUE(g.detected_symmetry());
    EXPECT_EQ(g.detected_symmetry(), copy.detected_symmetry());
    EXPECT_EQ(SymmetryGroup::detect(g).classes(), detected.classes());

    // A write to a store that shares its memo clones the store, memo left
    // behind: the written game detects afresh, the others keep theirs.
    NormalFormGame written = g;
    const PureProfile cell{0, 1, 2, 0};
    written.set_payoff(cell, 0, g.payoff(cell, 0) + 100);
    EXPECT_FALSE(written.detected_symmetry());
    EXPECT_EQ(g.detected_symmetry(), copy.detected_symmetry());
    const SymmetryGroup redetected = SymmetryGroup::detect(written);
    EXPECT_EQ(redetected.classes(), rational_detect(written).classes());
    EXPECT_NE(redetected.classes(), detected.classes());
    ASSERT_TRUE(written.detected_symmetry());
    EXPECT_NE(written.detected_symmetry(), g.detected_symmetry());

    // A store written in place by its sole owner drops its memo too, by a
    // single payoff or by a bulk assignment.
    written.set_payoff(cell, 0, g.payoff(cell, 0));
    EXPECT_FALSE(written.detected_symmetry());
    EXPECT_EQ(SymmetryGroup::detect(written).classes(), detected.classes());
    std::vector<Rational> values = written.payoffs_flat();
    values[1] += 100;
    written.assign_payoffs(values);
    EXPECT_FALSE(written.detected_symmetry());
    EXPECT_EQ(SymmetryGroup::detect(written).classes(), rational_detect(written).classes());

    // Copies on several threads may detect at once: each gets the answer,
    // and one of theirs stays in the shared memo.
    const NormalFormGame fresh = expand_quotient(random_quotient(rng, {3, 2}, {2, 2}),
                                                 SymmetryGroup::declared({{0, 1, 2}, {3, 4}}, 5));
    std::vector<std::vector<std::vector<std::size_t>>> seen(4);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < seen.size(); ++i) {
        threads.emplace_back([&fresh, &seen, i] {
            const NormalFormGame copy = fresh;
            seen[i] = SymmetryGroup::detect(copy).classes();
        });
    }
    for (std::thread& thread : threads) thread.join();
    const std::vector<std::vector<std::size_t>> expected = rational_detect(fresh).classes();
    for (const auto& classes : seen) EXPECT_EQ(classes, expected);
    ASSERT_TRUE(fresh.detected_symmetry());
    EXPECT_EQ(fresh.detected_symmetry()->classes(), expected);
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

// ------------------------------------------------ pooled pair tasks

// A symmetric game and the pure candidates its orbit sweeps are checked
// on.
struct PooledCase final {
    std::string name;
    NormalFormGame game;
    std::vector<PureProfile> candidates;
    std::size_t max_k = 0;
    std::size_t max_t = 0;
};

// The three lifted 7-player games the serving benchmark uploads (each
// sweep of theirs pools its pair tasks: none of their composition scans
// splits), each with seeded candidates on the safe actions, and seeded
// games from the symmetric corpus with class-constant candidates.
std::vector<PooledCase> pooled_cases() {
    namespace catalog = game::catalog;
    std::vector<PooledCase> out;
    out.push_back({"lifted attack(7)",
                   lifted_catalog(catalog::attack_coordination_game(7), 0, 1), {}, 5, 2});
    out.push_back(
        {"lifted bargaining(7)", lifted_catalog(catalog::bargaining_game(7), 0, 1), {}, 5, 2});
    out.push_back({"lifted gnutella(7)",
                   lifted_catalog(catalog::gnutella_sharing_game(7, 1, 3, 4), 1, 0), {}, 5, 2});
    util::Rng rng{36036};
    for (PooledCase& lifted : out) {
        lifted.candidates.emplace_back(7, 0);
        for (int i = 0; i < 3; ++i) {
            PureProfile base(7);
            for (std::size_t& action : base) action = rng.next_below(2);
            lifted.candidates.push_back(std::move(base));
        }
    }
    for (std::size_t trial = 0; trial < 12; ++trial) {
        const std::size_t n = 4 + trial % 3;
        std::vector<std::size_t> sizes;
        const SymmetryGroup group = random_group(rng, n, sizes);
        std::vector<std::size_t> actions(sizes.size());
        for (auto& a : actions) a = 2 + rng.next_below(2);
        PooledCase corpus{"corpus " + std::to_string(trial),
                          expand_quotient(random_quotient(rng, sizes, actions), group),
                          {},
                          n - 1,
                          trial % 3};
        PureProfile base(n);
        for (std::size_t i = 0; i < n; ++i) {
            base[i] = (trial + group.class_of(i)) % actions[group.class_of(i)];
        }
        corpus.candidates.push_back(std::move(base));
        out.push_back(std::move(corpus));
    }
    return out;
}

// Every kAuto orbit sweep — pair tasks claimed on the pool, tasks above
// the winner yielding — returns the serial orbit sweep's asks, frontier
// and boundary walk bit for bit, witnesses included. The suite runs again
// at BNASH_THREADS=4 (test_symmetry_four_threads), so the pooled path runs
// even on a one-CPU host.
TEST(OrbitSweepTest, PooledSweepsMatchSerialBitForBit) {
    std::size_t swept = 0;
    for (const PooledCase& c : pooled_cases()) {
        for (const PureProfile& base : c.candidates) {
            const ExactMixedProfile profile = as_exact_profile(c.game, base);
            const SymmetryGroup group = SymmetryGroup::detect(c.game).refined_by(profile);
            if (!orbit_applicable(group, profile)) continue;
            ++swept;
            const auto sweep = make_sweep(c.game, profile, &group);
            for (const GainCriterion criterion :
                 {GainCriterion::kAnyMemberGains, GainCriterion::kAllMembersGain}) {
                const std::string label =
                    c.name + (criterion == GainCriterion::kAllMembersGain ? " all" : " any");
                const FrontierVerdict serial = sweep->batch_robustness_frontier(
                    c.max_k, c.max_t, criterion, SweepMode::kSerial);
                EXPECT_TRUE(sweep->batch_robustness_frontier(c.max_k, c.max_t, criterion,
                                                             SweepMode::kAuto) == serial)
                    << label;
                EXPECT_TRUE(sweep->max_kt(c.max_k, c.max_t, criterion, SweepMode::kAuto) ==
                            sweep->max_kt(c.max_k, c.max_t, criterion, SweepMode::kSerial))
                    << label;
                for (std::size_t k = 0; k <= c.max_k; ++k) {
                    for (std::size_t t = 0; t <= c.max_t; ++t) {
                        const auto pooled = sweep->robustness_violation(
                            k, t, RobustnessOptions{criterion, SweepMode::kAuto});
                        const auto in_order = sweep->robustness_violation(
                            k, t, RobustnessOptions{criterion, SweepMode::kSerial});
                        ASSERT_EQ(pooled.has_value(), in_order.has_value())
                            << label << " ask (" << k << "," << t << ")";
                        if (pooled) {
                            EXPECT_TRUE(*pooled == *in_order)
                                << label << " ask (" << k << "," << t << ")";
                        }
                    }
                }
            }
        }
    }
    EXPECT_GE(swept, 20u) << "too few orbit-applicable candidates";
}

// Budgeted kAuto chains on the same sweeps, from a one-cell budget up to
// an unbudgeted one, resume to the unbudgeted result.
TEST(OrbitSweepTest, PooledBudgetChainsResumeToUnbudgeted) {
    std::size_t swept = 0;
    for (const PooledCase& c : pooled_cases()) {
        const PureProfile& base = c.candidates.back();
        const ExactMixedProfile profile = as_exact_profile(c.game, base);
        const SymmetryGroup group = SymmetryGroup::detect(c.game).refined_by(profile);
        if (!orbit_applicable(group, profile)) continue;
        ++swept;
        const auto sweep = make_sweep(c.game, profile, &group);
        const GainCriterion criterion = GainCriterion::kAnyMemberGains;
        const RobustnessOptions options{criterion, SweepMode::kAuto};
        const auto full_cell = sweep->robustness_violation(c.max_k, c.max_t, options);
        const FrontierVerdict full_grid =
            sweep->batch_robustness_frontier(c.max_k, c.max_t, criterion, SweepMode::kAuto);
        const MaxKtResult full_walk =
            sweep->max_kt(c.max_k, c.max_t, criterion, SweepMode::kAuto);
        std::uint64_t full_cost = 0;
        {
            util::ExecutionGrant unlimited;
            util::GrantScope scope(&unlimited);
            (void)sweep->batch_robustness_frontier(c.max_k, c.max_t, criterion,
                                                   SweepMode::kAuto);
            full_cost = unlimited.charged();
        }
        for (const std::uint64_t budget :
             {std::uint64_t{1}, std::max<std::uint64_t>(full_cost / 9, 1),
              std::max<std::uint64_t>(full_cost / 2, 1), full_cost + 1}) {
            const ChainEnds ends =
                run_chains(*sweep, c.max_k, c.max_t, criterion, SweepMode::kAuto, budget);
            const std::string label = c.name + " budget=" + std::to_string(budget);
            ASSERT_EQ(ends.cell.has_value(), full_cell.has_value()) << label;
            if (ends.cell) {
                EXPECT_TRUE(*ends.cell == *full_cell) << label;
            }
            EXPECT_TRUE(ends.grid == full_grid) << label;
            EXPECT_TRUE(ends.walk == full_walk) << label;
        }
    }
    EXPECT_GE(swept, 10u) << "too few orbit-applicable candidates";
}

}  // namespace
}  // namespace bnash::core
