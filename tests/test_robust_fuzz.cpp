// Randomized cross-validation harness for the batch robustness engine.
//
// Every checker path must return BIT-IDENTICAL verdicts and violation
// witnesses on seeded random games:
//   - the PR-1 serial reference checkers (core::reference),
//   - the CoalitionSweep engine, serial and parallel,
//   - the view-native checkers (identity views, random restrictions, and
//     iterated-elimination reductions — all without a single tensor
//     allocation),
//   - the shared-sweep batch probes (per-k witnesses vs independent
//     probes),
//   - the anonymous-game O(k) checkers vs their to_normal_form() tensor
//     twins on random anonymous payoff tables.
#include <gtest/gtest.h>

#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/robust/anonymous.h"
#include "core/robust/coalition_sweep.h"
#include "core/robust/orbit_sweep.h"
#include "core/robust/robustness.h"
#include "game/game_view.h"
#include "game/normal_form.h"
#include "solver/iterated_elimination.h"
#include "support_restriction.h"
#include "symmetric_corpus.h"
#include "util/execution_grant.h"
#include "util/rng.h"
#include "util/work_counters.h"

namespace bnash::core {
namespace {

using game::ExactMixedProfile;
using game::GameView;
using game::NormalFormGame;
using game::PureProfile;
using game::SweepMode;
using util::Rational;

NormalFormGame random_rational_game(util::Rng& rng, const std::vector<std::size_t>& counts) {
    NormalFormGame g(counts);
    for (std::uint64_t rank = 0; rank < g.num_profiles(); ++rank) {
        const auto profile = g.profile_unrank(rank);
        for (std::size_t p = 0; p < counts.size(); ++p) {
            g.set_payoff(profile, p, Rational{rng.next_int(-6, 6), rng.next_int(1, 3)});
        }
    }
    return g;
}

std::vector<std::size_t> random_counts(util::Rng& rng, std::size_t players) {
    std::vector<std::size_t> counts(players);
    for (auto& c : counts) c = static_cast<std::size_t>(rng.next_int(2, 3));
    return counts;
}

PureProfile random_pure(util::Rng& rng, const std::vector<std::size_t>& counts) {
    PureProfile out(counts.size());
    for (std::size_t i = 0; i < counts.size(); ++i) {
        out[i] = static_cast<std::size_t>(
            rng.next_int(0, static_cast<std::int64_t>(counts[i]) - 1));
    }
    return out;
}

ExactMixedProfile random_mixed_exact(util::Rng& rng, const std::vector<std::size_t>& counts) {
    ExactMixedProfile profile(counts.size());
    for (std::size_t i = 0; i < counts.size(); ++i) {
        game::ExactMixedStrategy s(counts[i], Rational{0});
        std::int64_t total = 0;
        std::vector<std::int64_t> weights(s.size());
        for (auto& w : weights) {
            w = rng.next_int(0, 3);
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

void expect_same(const std::optional<RobustnessViolation>& a,
                 const std::optional<RobustnessViolation>& b, const std::string& what) {
    ASSERT_EQ(a.has_value(), b.has_value()) << what;
    if (a && b) {
        EXPECT_TRUE(*a == *b) << what << ": " << a->to_string() << " vs " << b->to_string();
    }
}

// ------------------------------------------------ all checker paths agree

TEST(RobustFuzz, AllCheckerPathsAgreeOnRandomGames) {
    util::Rng rng{20260730};
    for (int trial = 0; trial < 100; ++trial) {
        const std::size_t n = 2 + static_cast<std::size_t>(trial % 3);
        const auto counts = random_counts(rng, n);
        const auto g = random_rational_game(rng, counts);
        // Mostly pure candidates (the fast path); every 5th trial a mixed
        // one to exercise the expected-utility fallback.
        const ExactMixedProfile profile =
            (trial % 5 == 4) ? random_mixed_exact(rng, counts)
                             : as_exact_profile(g, random_pure(rng, counts));
        const std::size_t k = 1 + static_cast<std::size_t>(trial) % n;
        const std::size_t t = static_cast<std::size_t>(trial % 2);
        const auto criterion = (trial % 3 == 0) ? GainCriterion::kAllMembersGain
                                                : GainCriterion::kAnyMemberGains;
        const std::string label = "trial " + std::to_string(trial) + " n=" +
                                  std::to_string(n) + " k=" + std::to_string(k) +
                                  " t=" + std::to_string(t);

        const auto via_reference = reference::find_robustness_violation(
            g, profile, k, t, RobustnessOptions{criterion});
        const auto via_serial = find_robustness_violation(
            g, profile, k, t, RobustnessOptions{criterion, SweepMode::kSerial});
        const auto via_parallel = find_robustness_violation(
            g, profile, k, t, RobustnessOptions{criterion, SweepMode::kAuto});
        expect_same(via_reference, via_serial, label + " reference-vs-serial");
        expect_same(via_reference, via_parallel, label + " reference-vs-parallel");

        // View-native on the identity view: zero tensor allocations.
        const auto view = GameView::full(g);
        const auto allocs_before = NormalFormGame::tensor_allocations();
        const auto via_view_serial = find_robustness_violation(
            view, profile, k, t, RobustnessOptions{criterion, SweepMode::kSerial});
        const auto via_view_parallel = find_robustness_violation(
            view, profile, k, t, RobustnessOptions{criterion, SweepMode::kAuto});
        EXPECT_EQ(NormalFormGame::tensor_allocations(), allocs_before) << label;
        expect_same(via_reference, via_view_serial, label + " reference-vs-view");
        expect_same(via_reference, via_view_parallel, label + " reference-vs-view-parallel");
    }
}

// -------------------------------------- restricted views vs materialized

TEST(RobustFuzz, ViewNativeMatchesMaterializeThenCheckOnRestrictions) {
    util::Rng rng{411};
    for (int trial = 0; trial < 40; ++trial) {
        const std::size_t n = 2 + static_cast<std::size_t>(trial % 3);
        std::vector<std::size_t> counts(n);
        for (auto& c : counts) c = static_cast<std::size_t>(rng.next_int(2, 4));
        const auto g = random_rational_game(rng, counts);
        // Random non-empty kept subsets per player.
        std::vector<std::vector<std::size_t>> kept(n);
        for (std::size_t p = 0; p < n; ++p) {
            for (std::size_t a = 0; a < counts[p]; ++a) {
                if (rng.next_bool(0.6)) kept[p].push_back(a);
            }
            if (kept[p].empty()) {
                kept[p].push_back(static_cast<std::size_t>(
                    rng.next_int(0, static_cast<std::int64_t>(counts[p]) - 1)));
            }
        }
        const auto view = GameView::restrict(g, kept);
        const auto materialized = view.materialize();
        const auto profile = as_exact_profile(view, random_pure(rng, view.action_counts()));
        const std::size_t k = 1 + static_cast<std::size_t>(trial) % n;
        const std::size_t t = static_cast<std::size_t>(trial % 2);
        const std::string label = "restriction trial " + std::to_string(trial);

        const auto allocs_before = NormalFormGame::tensor_allocations();
        const auto via_view = find_robustness_violation(view, profile, k, t);
        EXPECT_EQ(NormalFormGame::tensor_allocations(), allocs_before) << label;
        const auto via_copy = find_robustness_violation(materialized, profile, k, t);
        expect_same(via_copy, via_view, label);
        EXPECT_EQ(is_kt_robust(materialized, profile, k, t),
                  is_kt_robust(view, profile, k, t))
            << label;
    }
}

TEST(RobustFuzz, EliminationReducedViewChecksWithZeroAllocations) {
    util::Rng rng{877};
    for (int trial = 0; trial < 25; ++trial) {
        const std::size_t n = 2 + static_cast<std::size_t>(trial % 2);
        std::vector<std::size_t> counts(n);
        for (auto& c : counts) c = static_cast<std::size_t>(rng.next_int(2, 4));
        const auto g = random_rational_game(rng, counts);
        const auto by_views =
            solver::iterated_elimination_view(g, solver::DominanceKind::kStrictPure);
        const auto profile =
            as_exact_profile(by_views.reduced, random_pure(rng, by_views.reduced.action_counts()));
        const std::size_t k = 1 + static_cast<std::size_t>(trial) % n;
        const std::size_t t = static_cast<std::size_t>(trial % 2);
        const std::string label = "elimination trial " + std::to_string(trial);

        // Reduce-then-check, all on views: ZERO tensor allocations.
        const auto allocs_before = NormalFormGame::tensor_allocations();
        const auto probe =
            solver::iterated_elimination_view(g, solver::DominanceKind::kStrictPure);
        const bool via_view = is_kt_robust(probe.reduced, profile, k, t);
        EXPECT_EQ(NormalFormGame::tensor_allocations(), allocs_before) << label;

        // Materialize-then-check agrees, witness for witness.
        const auto materialized = by_views.reduced.materialize();
        EXPECT_EQ(is_kt_robust(materialized, profile, k, t), via_view) << label;
        expect_same(find_robustness_violation(materialized, profile, k, t),
                    find_robustness_violation(by_views.reduced, profile, k, t), label);
    }
}

// ----------------------------------------- batch probes vs independent

TEST(RobustFuzz, BatchVerdictsMatchIndependentProbes) {
    util::Rng rng{5519};
    for (int trial = 0; trial < 40; ++trial) {
        const std::size_t n = 2 + static_cast<std::size_t>(trial % 3);
        const auto counts = random_counts(rng, n);
        const auto g = random_rational_game(rng, counts);
        const ExactMixedProfile profile =
            (trial % 7 == 6) ? random_mixed_exact(rng, counts)
                             : as_exact_profile(g, random_pure(rng, counts));
        const auto criterion = (trial % 2 == 0) ? GainCriterion::kAnyMemberGains
                                                : GainCriterion::kAllMembersGain;
        const RobustnessOptions serial{criterion, SweepMode::kSerial};
        const RobustnessOptions parallel{criterion, SweepMode::kAuto};
        const std::string label = "batch trial " + std::to_string(trial);

        const auto batch = batch_resilience(g, profile, n, serial);
        EXPECT_EQ(batch, batch_resilience(g, profile, n, parallel))
            << label << " serial-vs-parallel batch";
        ASSERT_EQ(batch.violations.size(), n) << label;
        std::size_t expected_max_ok = n;
        for (std::size_t k = 1; k <= n; ++k) {
            // The independent probe this k would have run on its own.
            const auto independent = find_resilience_violation(g, profile, k, serial);
            expect_same(independent, batch.violations[k - 1],
                        label + " k=" + std::to_string(k));
            if (independent && expected_max_ok == n) expected_max_ok = k - 1;
        }
        EXPECT_EQ(batch.max_ok, expected_max_ok) << label;
        EXPECT_EQ(max_resilience(g, profile, n, serial), expected_max_ok) << label;

        const std::size_t max_t = n - 1;
        if (max_t > 0) {
            const auto immunity = batch_immunity(g, profile, max_t, SweepMode::kSerial);
            EXPECT_EQ(immunity, batch_immunity(g, profile, max_t, SweepMode::kAuto))
                << label << " immunity serial-vs-parallel";
            std::size_t expected_immunity = max_t;
            for (std::size_t t = 1; t <= max_t; ++t) {
                const auto independent = find_immunity_violation(g, profile, t);
                expect_same(independent, immunity.violations[t - 1],
                            label + " t=" + std::to_string(t));
                if (independent && expected_immunity == max_t) expected_immunity = t - 1;
            }
            EXPECT_EQ(immunity.max_ok, expected_immunity) << label;
            EXPECT_EQ(max_immunity(g, profile, max_t), expected_immunity) << label;
        }
    }
}

// ------------------------------------ frontier batch vs independent grid

TEST(RobustFuzz, FrontierMatchesIndependentProbesOnRandomGames) {
    util::Rng rng{6079};
    for (int trial = 0; trial < 30; ++trial) {
        const std::size_t n = 2 + static_cast<std::size_t>(trial % 3);
        const auto counts = random_counts(rng, n);
        const auto g = random_rational_game(rng, counts);
        // Mixed candidates every 6th trial exercise the serial fallback.
        const ExactMixedProfile profile =
            (trial % 6 == 5) ? random_mixed_exact(rng, counts)
                             : as_exact_profile(g, random_pure(rng, counts));
        const auto criterion = (trial % 2 == 0) ? GainCriterion::kAnyMemberGains
                                                : GainCriterion::kAllMembersGain;
        const std::size_t max_k = n;
        const std::size_t max_t = n - 1;
        const RobustnessOptions serial{criterion, SweepMode::kSerial};
        const RobustnessOptions parallel{criterion, SweepMode::kAuto};
        const std::string label = "frontier trial " + std::to_string(trial);

        const auto frontier = batch_robustness_frontier(g, profile, max_k, max_t, serial);
        EXPECT_EQ(frontier, batch_robustness_frontier(g, profile, max_k, max_t, parallel))
            << label << " serial-vs-parallel";
        ASSERT_EQ(frontier.cells.size(), (max_k + 1) * (max_t + 1)) << label;
        for (std::size_t k = 0; k <= max_k; ++k) {
            for (std::size_t t = 0; t <= max_t; ++t) {
                // The probe this cell would have run on its own.
                const auto independent =
                    find_robustness_violation(g, profile, k, t, serial);
                expect_same(independent, frontier.violation(k, t),
                            label + " k=" + std::to_string(k) + " t=" + std::to_string(t));
                EXPECT_EQ(frontier.robust(k, t), !independent.has_value()) << label;
            }
        }
    }
}

TEST(RobustFuzz, FrontierOnViewsMatchesMaterializedGrid) {
    util::Rng rng{7411};
    for (int trial = 0; trial < 15; ++trial) {
        const std::size_t n = 2 + static_cast<std::size_t>(trial % 2);
        std::vector<std::size_t> counts(n);
        for (auto& c : counts) c = static_cast<std::size_t>(rng.next_int(2, 4));
        const auto g = random_rational_game(rng, counts);
        std::vector<std::vector<std::size_t>> kept(n);
        for (std::size_t p = 0; p < n; ++p) {
            for (std::size_t a = 0; a < counts[p]; ++a) {
                if (rng.next_bool(0.6)) kept[p].push_back(a);
            }
            if (kept[p].empty()) {
                kept[p].push_back(static_cast<std::size_t>(
                    rng.next_int(0, static_cast<std::int64_t>(counts[p]) - 1)));
            }
        }
        const auto view = GameView::restrict(g, kept);
        const auto profile = as_exact_profile(view, random_pure(rng, view.action_counts()));
        const std::string label = "view frontier trial " + std::to_string(trial);

        // Zero-copy frontier on the view == frontier on the materialized
        // subgame, cell for cell.
        const auto allocs_before = NormalFormGame::tensor_allocations();
        const auto via_view = batch_robustness_frontier(view, profile, n, n - 1);
        EXPECT_EQ(NormalFormGame::tensor_allocations(), allocs_before) << label;
        const auto materialized = view.materialize();
        const auto via_copy = batch_robustness_frontier(materialized, profile, n, n - 1);
        EXPECT_EQ(via_view, via_copy) << label;
    }
}

// ------------------------------------------- sparse-support view sweeps

TEST(RobustFuzz, SparseViewSweepsMatchDenseOnRandomRestrictions) {
    util::Rng rng{8317};
    for (int trial = 0; trial < 30; ++trial) {
        const std::size_t n = 2 + static_cast<std::size_t>(trial % 3);
        std::vector<std::size_t> counts(n);
        for (auto& c : counts) c = static_cast<std::size_t>(rng.next_int(2, 4));
        const auto g = random_rational_game(rng, counts);
        std::vector<std::vector<std::size_t>> kept(n);
        for (std::size_t p = 0; p < n; ++p) {
            for (std::size_t a = 0; a < counts[p]; ++a) {
                if (rng.next_bool(0.7)) kept[p].push_back(a);
            }
            if (kept[p].empty()) kept[p].push_back(0);
        }
        const auto view = GameView::restrict(g, kept);
        // Degenerate single-support (point-mass) profiles every 3rd
        // trial; sparse random supports otherwise.
        ExactMixedProfile profile;
        if (trial % 3 == 0) {
            profile = as_exact_profile(view, random_pure(rng, view.action_counts()));
        } else {
            profile = random_mixed_exact(rng, view.action_counts());
        }
        const std::string label = "sparse view trial " + std::to_string(trial);

        // Reference: the same sweeps over the view cut down to the
        // support (a row keeps its deviator's whole range), which walk
        // that view's own columns instead of a support plan.
        const auto cut = game::restrict_to_support(view, profile);
        EXPECT_EQ(game::expected_payoffs_exact(view, profile),
                  game::expected_payoffs_exact(cut.view, cut.profile))
            << label;
        const auto dev = game::deviation_payoffs_all_exact(view, profile);
        for (std::size_t p = 0; p < n; ++p) {
            EXPECT_EQ(game::expected_payoff_exact(view, profile, p),
                      game::expected_payoff_exact(cut.view, cut.profile, p))
                << label << " player " << p;
            const auto row_cut = game::restrict_to_support(view, profile, p);
            EXPECT_EQ(dev[p], game::deviation_row_exact(row_cut.view, row_cut.profile, p))
                << label << " player " << p;
        }
        // Doubles: bitwise equality (same cells, same order, one
        // block).
        const auto mixed = game::to_double(profile);
        const auto mixed_cut = game::restrict_to_support(view, mixed);
        EXPECT_EQ(game::expected_payoffs(view, mixed),
                  game::expected_payoffs(mixed_cut.view, mixed_cut.profile))
            << label;
        const auto dev_d = game::deviation_payoffs_all(view, mixed);
        for (std::size_t p = 0; p < n; ++p) {
            const auto row_cut = game::restrict_to_support(view, mixed, p);
            EXPECT_EQ(dev_d[p], game::deviation_row(row_cut.view, row_cut.profile, p))
                << label << " player " << p;
        }
    }
}

// ------------------------- intra-coalition ranged blocks vs serial dense
//
// A kAuto scan of at least 2 x kIntraBlock cells splits into ranged
// blocks on its own. Own-action chain games reach that size with few
// players: each player's payoff falls with its OWN action only, so the
// all-0 profile survives every deviation (full scans, no early exit)
// until a cell planted on top of the chain breaks it.

NormalFormGame own_action_chain(const std::vector<std::size_t>& counts) {
    NormalFormGame g(counts);
    for (std::uint64_t rank = 0; rank < g.num_profiles(); ++rank) {
        const auto profile = g.profile_unrank(rank);
        for (std::size_t p = 0; p < counts.size(); ++p) {
            g.set_payoff(profile, p, -static_cast<std::int64_t>(profile[p]));
        }
    }
    return g;
}

// Chain games on 4 and 5 players with random planted gains and losses:
// the scans where four players deviate (4096 cells) split — resilience
// scans on both sizes, immunity scans of four faulty players on five —
// and every kAuto verdict and witness must equal the serial nested
// scan's.
TEST(RobustFuzz, IntraRangedBlockScanBitIdenticalToSerial) {
    util::Rng rng{1'290'731};
    for (int trial = 0; trial < 24; ++trial) {
        const std::size_t n = 4 + static_cast<std::size_t>(trial % 2);
        std::vector<std::size_t> counts(n, 8);
        if (n == 5) counts[4] = 2;
        NormalFormGame g = own_action_chain(counts);
        // Even plants pay one player more than its candidate payoff 0;
        // odd ones hurt a player that still plays its candidate action.
        for (int plant = 0; plant < 3; ++plant) {
            PureProfile cell = random_pure(rng, counts);
            const std::size_t p = rng.next_below(n);
            if (plant % 2 == 1) cell[p] = 0;
            g.set_payoff(cell, p, Rational{plant % 2 == 0 ? 1 : -100});
        }
        // Every fourth candidate is random: early exits in block 0.
        const PureProfile candidate = trial % 4 == 3 ? random_pure(rng, counts) : PureProfile(n, 0);
        const auto profile = as_exact_profile(g, candidate);
        const std::size_t k = 2 + static_cast<std::size_t>(trial) % (n - 1);
        const std::size_t t = n - k;
        const auto criterion = (trial % 3 == 0) ? GainCriterion::kAllMembersGain
                                                : GainCriterion::kAnyMemberGains;
        const std::string label = "intra trial " + std::to_string(trial);
        const RobustnessOptions serial_opts{criterion, SweepMode::kSerial};
        const RobustnessOptions auto_opts{criterion, SweepMode::kAuto};

        expect_same(find_robustness_violation(g, profile, k, t, serial_opts),
                    find_robustness_violation(g, profile, k, t, auto_opts),
                    label + " robustness");
        const CoalitionSweep sweep(g, profile);
        expect_same(sweep.immunity_violation(n - 1, SweepMode::kSerial),
                    sweep.immunity_violation(n - 1, SweepMode::kAuto), label + " immunity");
        // The batch probes drive the same tasks through the split path.
        EXPECT_EQ(batch_resilience(g, profile, n, serial_opts),
                  batch_resilience(g, profile, n, auto_opts))
            << label;
        EXPECT_EQ(batch_robustness_frontier(g, profile, n, n - 1, serial_opts),
                  batch_robustness_frontier(g, profile, n, n - 1, auto_opts))
            << label;
    }
}

// The all-player coalition owns the largest scan of a 4-player, 9-action
// chain game (6561 cells: four ranged blocks). One planted gain where
// every player deviates is reachable only there, and lands in block 0, in
// a later block, or nowhere: both modes report the planted cell.
TEST(RobustFuzz, IntraRangedBlocksOnCoalitionDominatedGames) {
    const std::vector<std::size_t> counts(4, 9);
    util::Rng rng{552'200'731};
    for (int trial = 0; trial < 12; ++trial) {
        NormalFormGame g = own_action_chain(counts);
        const int where = trial % 3;  // block 0, a later block, nowhere
        PureProfile cell(4);
        std::uint64_t rank = 0;
        do {
            for (auto& a : cell) a = 1 + rng.next_below(8);
            rank = ((cell[0] * 9 + cell[1]) * 9 + cell[2]) * 9 + cell[3];
        } while ((rank < kIntraBlock) != (where == 0));
        const std::size_t gainer = rng.next_below(4);
        if (where != 2) g.set_payoff(cell, gainer, Rational{1});
        const auto profile = as_exact_profile(g, PureProfile(4, 0));
        const std::string label = "dominated trial " + std::to_string(trial);
        const auto serial = find_resilience_violation(
            g, profile, 4, RobustnessOptions{GainCriterion::kAnyMemberGains, SweepMode::kSerial});
        const auto split = find_resilience_violation(
            g, profile, 4, RobustnessOptions{GainCriterion::kAnyMemberGains, SweepMode::kAuto});
        expect_same(serial, split, label);
        ASSERT_EQ(serial.has_value(), where != 2) << label;
        if (serial) {
            EXPECT_EQ(serial->coalition, (std::vector<std::size_t>{0, 1, 2, 3})) << label;
            EXPECT_EQ(serial->coalition_deviation, cell) << label;
            EXPECT_EQ(serial->witness_player, gainer) << label;
        }
    }
}

// A robust scan that splits does the serial scan's work to the cell and
// the digit move: every block advances past its last cell, as the nested
// serial loop's wrap does.
TEST(RobustFuzz, IntraRangedSplitCountsMatchSerial) {
    const NormalFormGame g = own_action_chain(std::vector<std::size_t>(4, 12));
    const auto profile = as_exact_profile(g, PureProfile(4, 0));
    const auto run = [&](SweepMode mode) {
        util::work_counters_reset();
        EXPECT_FALSE(find_resilience_violation(
                         g, profile, 4, RobustnessOptions{GainCriterion::kAnyMemberGains, mode})
                         .has_value());
        return util::work_counters_snapshot();
    };
    const util::WorkCounters serial = run(SweepMode::kSerial);
    const util::WorkCounters split = run(SweepMode::kAuto);
    EXPECT_EQ(split.cells_visited, serial.cells_visited);
    EXPECT_EQ(split.offsets_advanced, serial.offsets_advanced);
}

// The orbit engine's twin: planted_split_quotient(0)'s (coalition 2,
// faulty 2) pair scan spans two ranged blocks and holds no gain, so a
// kAuto frontier splits it and scans every orbit of both blocks. The
// blocks advance after their last cell as the inline scan does, so the
// counters match.
TEST(RobustFuzz, OrbitIntraRangedSplitCountsMatchSerial) {
    const OrbitSweep sweep(planted_split_quotient(0), planted_split_group(), {0, 0});
    const auto run = [&](SweepMode mode) {
        util::work_counters_reset();
        const FrontierVerdict frontier =
            sweep.batch_robustness_frontier(2, 2, GainCriterion::kAnyMemberGains, mode);
        EXPECT_TRUE(frontier.robust(2, 2));
        return util::work_counters_snapshot();
    };
    const util::WorkCounters serial = run(SweepMode::kSerial);
    const util::WorkCounters split = run(SweepMode::kAuto);
    EXPECT_EQ(split.cells_visited, serial.cells_visited);
    EXPECT_EQ(split.offsets_advanced, serial.offsets_advanced);
}

// --------------------------- sparse coalition scans vs reference checkers

// Mixed candidates now run ONE fused support walk per faulty set instead
// of one expected sweep per evaluation; exact arithmetic must make every
// verdict and witness identical to the PR-1 reference. Profiles include
// degenerate nearly-point-mass shapes (every support size 1 except one
// player) — the sparsest plans the scans can see.
TEST(RobustFuzz, SparseCoalitionScansMatchReferenceOnMixedCandidates) {
    util::Rng rng{88'220'731};
    for (int trial = 0; trial < 100; ++trial) {
        const std::size_t n = 2 + static_cast<std::size_t>(trial % 3);
        std::vector<std::size_t> counts(n);
        for (auto& c : counts) c = static_cast<std::size_t>(rng.next_int(2, 3));
        const auto g = random_rational_game(rng, counts);
        ExactMixedProfile profile;
        if (trial % 3 == 0) {
            // Degenerate single-support except one genuinely mixed player
            // (a full point mass would take the pure fast path instead).
            const auto pure = random_pure(rng, counts);
            profile = as_exact_profile(g, pure);
            const std::size_t mixer = static_cast<std::size_t>(trial) % n;
            game::ExactMixedStrategy s(counts[mixer], Rational{0});
            s[0] = Rational{1, 3};
            s[counts[mixer] - 1] += Rational{2, 3};
            profile[mixer] = std::move(s);
        } else {
            profile = random_mixed_exact(rng, counts);
        }
        const std::size_t k = 1 + static_cast<std::size_t>(trial) % n;
        const std::size_t t = static_cast<std::size_t>(trial % 2);
        const auto criterion = (trial % 2 == 0) ? GainCriterion::kAnyMemberGains
                                                : GainCriterion::kAllMembersGain;
        const std::string label = "sparse scan trial " + std::to_string(trial);

        const auto via_reference = reference::find_robustness_violation(
            g, profile, k, t, RobustnessOptions{criterion});
        const auto via_sparse = find_robustness_violation(
            g, profile, k, t, RobustnessOptions{criterion, SweepMode::kAuto});
        expect_same(via_reference, via_sparse, label);
        expect_same(reference::find_immunity_violation(g, profile, std::max<std::size_t>(t, 1)),
                    find_immunity_violation(g, profile, std::max<std::size_t>(t, 1)),
                    label + " immunity");
    }
}

// A nearly flat game: every payoff is 0 except that a player on its last
// action gets 1 when at least `quorum` players are on theirs. A candidate
// off every last action is immune to any faulty set, and a coalition C
// gains against T exactly when |C| + |T| >= quorum.
NormalFormGame quorum_game(const std::vector<std::size_t>& counts, std::size_t quorum) {
    NormalFormGame g(counts);
    for (std::uint64_t rank = 0; rank < g.num_profiles(); ++rank) {
        const PureProfile cell = g.profile_unrank(rank);
        std::size_t on_last = 0;
        for (std::size_t p = 0; p < counts.size(); ++p) on_last += cell[p] + 1 == counts[p];
        for (std::size_t p = 0; p < counts.size(); ++p) {
            const bool paid = cell[p] + 1 == counts[p] && on_last >= quorum;
            g.set_payoff(cell, p, Rational{paid ? 1 : 0});
        }
    }
    return g;
}

// The mixed-candidate scans' bookkeeping, pinned: the support walk's
// cells and digit moves for a serial frontier and max_kt on three games,
// and the per-leg charge of one budgeted serial frontier chain. Game 0 is
// a seeded random game (its scans stop at early hits); games 1 and 2 are
// quorum games, one under a near point mass and one under a full
// four-action mix on 5^5 cells, where a faulty set's two phases pass a
// grant poll (every util::kGrantCheckCells cells of an immunity task, or
// of one faulty set's phases A and B). A change to a walk's digits, to
// its poll points or to a tally's span moves these numbers.
TEST(RobustFuzz, SparseScanCountsArePinned) {
    struct Counts final {
        std::uint64_t frontier_cells, frontier_moves, max_kt_cells, max_kt_moves;
    };
    const Counts pinned[3] = {
        {72, 114, 72, 114}, {657, 2523, 657, 2523}, {128688, 171338, 128688, 171338}};
    const std::vector<std::uint64_t> pinned_legs = {20416, 21056, 21056, 21056,
                                                    21056, 21776, 20416, 5248};

    util::Rng rng{61'803'398};
    const std::vector<std::size_t> random_counts = {3, 3, 2, 3};
    const NormalFormGame games[3] = {random_rational_game(rng, random_counts),
                                     quorum_game({2, 3, 3, 2, 3}, 3),
                                     quorum_game(std::vector<std::size_t>(5, 5), 3)};
    const Rational quarter{1, 4};
    ExactMixedProfile profiles[3] = {
        random_mixed_exact(rng, random_counts), as_exact_profile(games[1], PureProfile(5, 0)),
        ExactMixedProfile(5, {quarter, quarter, quarter, quarter, Rational{0}})};
    profiles[1][1] = {Rational{1, 3}, Rational{2, 3}, Rational{0}};
    for (std::size_t index = 0; index < 3; ++index) {
        const CoalitionSweep sweep(games[index], profiles[index]);
        const std::string label = "game " + std::to_string(index);
        util::work_counters_reset();
        (void)sweep.batch_robustness_frontier(3, 2, GainCriterion::kAnyMemberGains,
                                              SweepMode::kSerial);
        const util::WorkCounters frontier = util::work_counters_snapshot();
        util::work_counters_reset();
        (void)sweep.max_kt(3, 2, GainCriterion::kAnyMemberGains, SweepMode::kSerial);
        const util::WorkCounters walk = util::work_counters_snapshot();
        EXPECT_EQ(frontier.cells_visited, pinned[index].frontier_cells) << label;
        EXPECT_EQ(frontier.offsets_advanced, pinned[index].frontier_moves) << label;
        EXPECT_EQ(walk.cells_visited, pinned[index].max_kt_cells) << label;
        EXPECT_EQ(walk.offsets_advanced, pinned[index].max_kt_moves) << label;
        if (index != 2) continue;

        const FrontierVerdict unbudgeted = sweep.batch_robustness_frontier(
            2, 1, GainCriterion::kAnyMemberGains, SweepMode::kSerial);
        std::vector<std::uint64_t> legs;
        FrontierVerdict assembled;
        SweepCheckpoint checkpoint;
        for (std::size_t leg = 0; leg < 64 && !checkpoint.finished; ++leg) {
            util::ExecutionGrant grant(20'000);
            SweepCheckpoint next;
            FrontierVerdict part;
            {
                util::GrantScope scope(&grant);
                part = sweep.batch_robustness_frontier(2, 1, GainCriterion::kAnyMemberGains,
                                                       SweepMode::kSerial,
                                                       leg == 0 ? nullptr : &checkpoint, &next);
            }
            legs.push_back(grant.charged());
            if (leg == 0) {
                assembled = part;
            } else {
                merge_frontier(assembled, part);
            }
            checkpoint = next;
        }
        EXPECT_EQ(legs, pinned_legs);
        EXPECT_TRUE(assembled == unbudgeted);
    }
}

// ------------------------------- streamed frontier columns, both modes

// A 6-player, 3-action game immune to every faulty set, with one planted
// coalition of k0 players that gains by jointly playing their last action
// while everyone else plays a non-last one: cell (k, t) breaks iff
// k >= 1 and k + t >= k0. Every non-last action pays the player a fixed
// safe value, every last action pays less, and the coalition's planted
// profile pays one member more.
NormalFormGame planted_game(std::size_t planted_k0, std::uint64_t seed) {
    constexpr std::size_t kPlayers = 6;
    constexpr std::size_t kActions = 3;
    util::Rng rng(seed);
    NormalFormGame g(std::vector<std::size_t>(kPlayers, kActions));
    std::vector<std::int64_t> safe(kPlayers);
    for (std::int64_t& v : safe) v = rng.next_int(4, 12);
    std::vector<std::size_t> players(kPlayers);
    std::iota(players.begin(), players.end(), std::size_t{0});
    rng.shuffle(players);
    std::vector<bool> planted(kPlayers, false);
    for (std::size_t i = 0; i < planted_k0; ++i) planted[players[i]] = true;
    const std::size_t gainer = players[rng.next_below(planted_k0)];
    const std::int64_t bump = rng.next_int(1, 3);
    for (std::uint64_t rank = 0; rank < g.num_profiles(); ++rank) {
        const PureProfile profile = g.profile_unrank(rank);
        bool planted_cell = true;
        for (std::size_t p = 0; p < kPlayers && planted_cell; ++p) {
            planted_cell = planted[p] == (profile[p] + 1 == kActions);
        }
        for (std::size_t p = 0; p < kPlayers; ++p) {
            std::int64_t value = safe[p];
            if (profile[p] + 1 == kActions) value -= rng.next_int(1, 6);
            if (planted_cell && p == gainer) value = safe[p] + bump;
            g.set_payoff(profile, p, Rational{value});
        }
    }
    return g;
}

// on_column reports a broken column the moment its winner is pinned and
// the clean ones at sweep end, so a pooled sweep streams the same
// (t, breaking_k, witness) sequence as a serial one — not merely the same
// grid. Pooling only shows with more than one executor (BNASH_THREADS).
TEST(RobustFuzz, PooledFrontierStreamsLikeSerial) {
    using Column = std::tuple<std::size_t, std::size_t, std::optional<RobustnessViolation>>;
    const auto stream = [](const CoalitionSweep& sweep, SweepMode mode) {
        std::vector<Column> columns;
        (void)sweep.batch_robustness_frontier(
            5, 2, GainCriterion::kAnyMemberGains, mode, nullptr, nullptr,
            [&](std::size_t t, std::size_t breaking_k, const RobustnessViolation* witness) {
                columns.emplace_back(t, breaking_k,
                                     witness != nullptr ? std::optional{*witness} : std::nullopt);
            });
        return columns;
    };
    util::Rng rng{2'718'281};
    for (int seed = 0; seed < 20; ++seed) {
        const std::size_t k0 = 3 + static_cast<std::size_t>(seed % 3);
        const NormalFormGame g = planted_game(k0, rng.next_u64());
        PureProfile candidate(g.num_players());
        for (std::size_t& action : candidate) action = rng.next_below(2);  // never the last
        const ExactMixedProfile profile = as_exact_profile(g, candidate);
        const CoalitionSweep sweep(g, profile);
        const std::string label = "seed " + std::to_string(seed) + " k0=" + std::to_string(k0);

        const std::vector<Column> serial = stream(sweep, SweepMode::kSerial);
        ASSERT_EQ(serial.size(), 3u) << label;
        for (const auto& [t, breaking_k, witness] : serial) {
            EXPECT_EQ(breaking_k, k0 - t) << label << " t=" << t;
            EXPECT_TRUE(witness.has_value()) << label << " t=" << t;
        }
        const std::vector<Column> pooled = stream(sweep, SweepMode::kAuto);
        ASSERT_EQ(pooled.size(), serial.size()) << label;
        for (std::size_t i = 0; i < serial.size(); ++i) {
            const std::string at = label + " column #" + std::to_string(i);
            EXPECT_EQ(std::get<0>(pooled[i]), std::get<0>(serial[i])) << at;
            EXPECT_EQ(std::get<1>(pooled[i]), std::get<1>(serial[i])) << at;
            expect_same(std::get<2>(pooled[i]), std::get<2>(serial[i]), at);
        }
    }
}

// --------------------------------------- max_kt boundary walk vs frontier

TEST(RobustFuzz, MaxKtMatchesFrontierOnRandomGames) {
    util::Rng rng{40'220'731};
    std::uint64_t total_resolved = 0;
    for (int trial = 0; trial < 60; ++trial) {
        const std::size_t n = 2 + static_cast<std::size_t>(trial % 3);
        const auto counts = random_counts(rng, n);
        const auto g = random_rational_game(rng, counts);
        // Mixed candidates every 6th trial drive the sparse scans.
        const ExactMixedProfile profile =
            (trial % 6 == 5) ? random_mixed_exact(rng, counts)
                             : as_exact_profile(g, random_pure(rng, counts));
        const auto criterion = (trial % 2 == 0) ? GainCriterion::kAnyMemberGains
                                                : GainCriterion::kAllMembersGain;
        const std::size_t max_k = n;
        const std::size_t max_t = n - 1;
        const RobustnessOptions serial{criterion, SweepMode::kSerial};
        const RobustnessOptions parallel{criterion, SweepMode::kAuto};
        const std::string label = "max_kt trial " + std::to_string(trial);

        const auto walk = max_kt(g, profile, max_k, max_t, serial);
        EXPECT_EQ(walk, max_kt(g, profile, max_k, max_t, parallel))
            << label << " serial-vs-parallel";
        const auto frontier = batch_robustness_frontier(g, profile, max_k, max_t, serial);
        ASSERT_EQ(walk.k_of_t.size(), walk.immunity_ok + 1) << label;
        for (std::size_t k = 0; k <= max_k; ++k) {
            for (std::size_t t = 0; t <= max_t; ++t) {
                EXPECT_EQ(walk.robust(k, t), frontier.robust(k, t))
                    << label << " cell k=" << k << " t=" << t;
            }
        }
        // The maximal set IS the Pareto frontier of the grid.
        for (const auto& [k, t] : walk.maximal) {
            EXPECT_TRUE(frontier.robust(k, t)) << label;
            if (k < max_k) {
                EXPECT_FALSE(frontier.robust(k + 1, t)) << label;
            }
            if (t < max_t) {
                EXPECT_FALSE(frontier.robust(k, t + 1)) << label;
            }
        }
        EXPECT_LE(walk.cells_resolved, (max_k + 1) * (max_t + 1)) << label;
        total_resolved += walk.cells_resolved;

        // Zero-copy view overload agrees with the materialized walk.
        if (trial % 4 == 0) {
            const auto view = GameView::full(g);
            const auto allocs_before = NormalFormGame::tensor_allocations();
            const auto via_view = max_kt(view, profile, max_k, max_t, serial);
            EXPECT_EQ(NormalFormGame::tensor_allocations(), allocs_before) << label;
            EXPECT_EQ(via_view, walk) << label << " view-vs-dense";
        }
    }
    // The corpus total of the walks' resolved cells, pinned: each walk
    // derives its count from its boundary and k_of_t.
    EXPECT_EQ(total_resolved, 232u);
}

// -------------------------------------- anonymous games vs tensor twins

TEST(RobustFuzz, AnonymousCheckersMatchTensorTwinOnRandomTables) {
    util::Rng rng{90127};
    for (int trial = 0; trial < 30; ++trial) {
        const std::size_t n = 3 + static_cast<std::size_t>(trial % 3);
        // Random anonymous payoff table: payoff(action, total_ones).
        std::vector<std::vector<Rational>> table(2, std::vector<Rational>(n + 1));
        for (std::size_t a = 0; a < 2; ++a) {
            for (std::size_t ones = 0; ones <= n; ++ones) {
                table[a][ones] = Rational{rng.next_int(-4, 4)};
            }
        }
        const auto fast = AnonymousBinaryGame::from_table(table);
        ASSERT_EQ(fast.num_players(), n);
        const auto twin = fast.to_normal_form();
        const std::size_t base = static_cast<std::size_t>(trial % 2);
        const auto all_base = as_exact_profile(twin, PureProfile(n, base));
        const std::string label =
            "anonymous trial " + std::to_string(trial) + " base=" + std::to_string(base);

        for (std::size_t k = 1; k <= n; ++k) {
            for (const auto criterion :
                 {GainCriterion::kAnyMemberGains, GainCriterion::kAllMembersGain}) {
                EXPECT_EQ(fast.all_base_is_k_resilient(base, k, criterion),
                          is_k_resilient(twin, all_base, k, RobustnessOptions{criterion}))
                    << label << " k=" << k;
            }
        }
        for (std::size_t t = 1; t < n; ++t) {
            EXPECT_EQ(fast.all_base_is_t_immune(base, t), is_t_immune(twin, all_base, t))
                << label << " t=" << t;
        }
        // The O(max_t) anonymous immunity boundary == the tensor twin's
        // shared-sweep batch boundary.
        EXPECT_EQ(fast.max_immunity(base, n - 1), batch_immunity(twin, all_base, n - 1).max_ok)
            << label;
        EXPECT_EQ(fast.max_immunity(base, n - 1), max_immunity(twin, all_base, n - 1))
            << label;
        // The twin really is the anonymous game cell for cell.
        for (std::uint64_t rank = 0; rank < twin.num_profiles(); ++rank) {
            const auto profile = twin.profile_unrank(rank);
            std::size_t ones = 0;
            for (const std::size_t a : profile) ones += a;
            for (std::size_t p = 0; p < n; ++p) {
                ASSERT_EQ(twin.payoff_at(rank, p), table[profile[p]][ones]) << label;
            }
        }
    }
}

TEST(RobustFuzz, AnonymousPooledLargeNMatchesSerialScan) {
    // The pooled (c, j) pair scan must return the same verdicts and
    // boundaries as the serial closed-form scan — which the tensor-twin
    // test above already pins to the exact checkers at small n, so the
    // chain serial-twin + serial-pooled covers the pooled path. n is
    // large enough that the coalition scan spans more than one 64-size
    // block, so kAuto can dispatch past block 0.
    util::Rng rng{31337};
    const std::size_t n = 200;
    ASSERT_GT(n, std::size_t{64});
    for (int trial = 0; trial < 12; ++trial) {
        std::vector<std::vector<Rational>> table(2, std::vector<Rational>(n + 1));
        for (std::size_t a = 0; a < 2; ++a) {
            for (std::size_t ones = 0; ones <= n; ++ones) {
                table[a][ones] = Rational{rng.next_int(-5, 5)};
            }
        }
        const auto g = AnonymousBinaryGame::from_table(table);
        const std::size_t base = static_cast<std::size_t>(trial % 2);
        const std::string label = "pooled trial " + std::to_string(trial);
        for (const auto criterion :
             {GainCriterion::kAnyMemberGains, GainCriterion::kAllMembersGain}) {
            EXPECT_EQ(g.all_base_is_k_resilient(base, n, criterion, SweepMode::kSerial),
                      g.all_base_is_k_resilient(base, n, criterion, SweepMode::kAuto))
                << label;
        }
        EXPECT_EQ(g.min_breaking_coalition(base, n, SweepMode::kSerial),
                  g.min_breaking_coalition(base, n, SweepMode::kAuto))
            << label;
        EXPECT_EQ(g.all_base_is_t_immune(base, n - 1, SweepMode::kSerial),
                  g.all_base_is_t_immune(base, n - 1, SweepMode::kAuto))
            << label;
        EXPECT_EQ(g.max_immunity(base, n - 1, SweepMode::kSerial),
                  g.max_immunity(base, n - 1, SweepMode::kAuto))
            << label;
    }
    // The paper's games at large n keep their known closed-form answers
    // through the pooled path.
    const auto attack = AnonymousBinaryGame::attack(5000);
    EXPECT_EQ(attack.min_breaking_coalition(0, 5000, SweepMode::kAuto), 2u);
    // One faulty attacker hurts every bystander: not even 1-immune.
    EXPECT_FALSE(attack.all_base_is_t_immune(0, 1, SweepMode::kAuto));
    EXPECT_EQ(attack.max_immunity(0, 4999, SweepMode::kAuto), 0u);
    const auto bargaining = AnonymousBinaryGame::bargaining(5000);
    EXPECT_TRUE(bargaining.all_base_is_k_resilient(0, 5000, GainCriterion::kAnyMemberGains,
                                                   SweepMode::kAuto));
    EXPECT_EQ(bargaining.max_immunity(0, 4999, SweepMode::kAuto), 0u);

    // A PayoffFn that throws past block 0 surfaces the same exception in
    // both modes: the pooled scans rethrow it on the calling thread.
    const auto throws_at = [](std::size_t n_players, std::size_t bad_ones) {
        return AnonymousBinaryGame(
            n_players, [bad_ones](std::size_t, std::size_t ones, std::size_t) -> Rational {
                if (ones == bad_ones) {
                    throw std::domain_error("payoff undefined at " + std::to_string(ones));
                }
                return 0;
            });
    };
    const auto message_of = [](const auto& call) {
        try {
            call();
        } catch (const std::domain_error& error) {
            return std::string(error.what());
        }
        return std::string("no exception");
    };
    const auto coalition_game = throws_at(256, 150);
    for (const auto mode : {SweepMode::kSerial, SweepMode::kAuto}) {
        EXPECT_EQ(message_of([&] {
                      (void)coalition_game.all_base_is_k_resilient(
                          0, 256, GainCriterion::kAnyMemberGains, mode);
                  }),
                  "payoff undefined at 150");
    }
    // n > 4096: the switcher scan spans more than two 2048-size blocks.
    const auto switcher_game = throws_at(5000, 3000);
    for (const auto mode : {SweepMode::kSerial, SweepMode::kAuto}) {
        EXPECT_EQ(message_of([&] { (void)switcher_game.all_base_is_t_immune(0, 4999, mode); }),
                  "payoff undefined at 3000");
    }
}

}  // namespace
}  // namespace bnash::core
