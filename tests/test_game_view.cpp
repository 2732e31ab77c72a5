// GameView: zero-copy restriction/permutation views must agree exactly
// with a restriction copied cell by cell, the engine sweeps over views must be
// bit-identical to sweeping the materialized subgame, and the view-based
// iterated elimination must allocate exactly ONE payoff tensor (the final
// reduced game).
#include <gtest/gtest.h>

#include <string>
#include <type_traits>
#include <vector>

#include "game/catalog.h"
#include "game/game_view.h"
#include "game/normal_form.h"
#include "game/payoff_engine.h"
#include "solver/iterated_elimination.h"
#include "util/rng.h"

namespace bnash::game {
namespace {

using util::Rational;

// A dense game IS its identity view: it converts implicitly, and a
// temporary game is refused because a view of it would dangle.
static_assert(std::is_convertible_v<const NormalFormGame&, GameView>);
static_assert(!std::is_constructible_v<GameView, NormalFormGame&&>);

std::vector<std::size_t> random_shape(util::Rng& rng, std::size_t players) {
    std::vector<std::size_t> counts(players);
    for (auto& count : counts) count = static_cast<std::size_t>(rng.next_int(2, 4));
    return counts;
}

// Non-empty random subset of 0..count-1, ascending (restrict's contract).
std::vector<std::size_t> random_kept(util::Rng& rng, std::size_t count) {
    std::vector<std::size_t> kept;
    for (std::size_t a = 0; a < count; ++a) {
        if (rng.next_bool(0.6)) kept.push_back(a);
    }
    if (kept.empty()) {
        kept.push_back(static_cast<std::size_t>(
            rng.next_int(0, static_cast<std::int64_t>(count) - 1)));
    }
    return kept;
}

MixedProfile random_mixed(const std::vector<std::size_t>& counts, util::Rng& rng) {
    MixedProfile profile(counts.size());
    for (std::size_t i = 0; i < counts.size(); ++i) {
        MixedStrategy s(counts[i]);
        double total = 0.0;
        for (auto& p : s) {
            p = rng.next_double() + 0.05;
            total += p;
        }
        for (auto& p : s) p /= total;
        profile[i] = std::move(s);
    }
    return profile;
}

ExactMixedProfile random_exact(const std::vector<std::size_t>& counts, util::Rng& rng) {
    ExactMixedProfile profile(counts.size());
    for (std::size_t i = 0; i < counts.size(); ++i) {
        ExactMixedStrategy s(counts[i], Rational{0});
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

// The restriction copied cell by cell from the parent's payoffs and
// labels: view profile t is parent profile (kept[0][t_0], ...). An
// independent reference for the view's offsets and materialize().
NormalFormGame restrict_by_hand(const NormalFormGame& g,
                                const std::vector<std::vector<std::size_t>>& kept) {
    std::vector<std::size_t> counts;
    for (const auto& actions : kept) counts.push_back(actions.size());
    NormalFormGame out(counts);
    std::vector<Rational> values;
    for (std::uint64_t rank = 0; rank < out.num_profiles(); ++rank) {
        PureProfile parent = out.profile_unrank(rank);
        for (std::size_t p = 0; p < parent.size(); ++p) parent[p] = kept[p][parent[p]];
        for (std::size_t p = 0; p < parent.size(); ++p) values.push_back(g.payoff(parent, p));
    }
    out.assign_payoffs(values);
    for (std::size_t p = 0; p < kept.size(); ++p) {
        if (!g.has_action_labels(p)) continue;
        std::vector<std::string> labels;
        for (const std::size_t action : kept[p]) labels.push_back(g.action_label(p, action));
        out.set_action_labels(p, std::move(labels));
    }
    return out;
}

void expect_games_equal(const NormalFormGame& a, const NormalFormGame& b) {
    ASSERT_EQ(a.action_counts(), b.action_counts());
    for (std::uint64_t rank = 0; rank < a.num_profiles(); ++rank) {
        for (std::size_t p = 0; p < a.num_players(); ++p) {
            EXPECT_EQ(a.payoff_at(rank, p), b.payoff_at(rank, p));
            EXPECT_EQ(a.payoff_d_at(rank, p), b.payoff_d_at(rank, p));
        }
    }
    for (std::size_t p = 0; p < a.num_players(); ++p) {
        for (std::size_t action = 0; action < a.num_actions(p); ++action) {
            EXPECT_EQ(a.action_label(p, action), b.action_label(p, action));
        }
    }
}

// ------------------------------------------------------------- equivalence

TEST(GameView, RestrictViewMatchesRestrictOnRandomGames) {
    util::Rng rng{11};
    for (int trial = 0; trial < 20; ++trial) {
        const std::size_t players = 2 + static_cast<std::size_t>(trial % 3);
        const auto g = NormalFormGame::random(random_shape(rng, players), rng);
        std::vector<std::vector<std::size_t>> kept(players);
        for (std::size_t p = 0; p < players; ++p) kept[p] = random_kept(rng, g.num_actions(p));
        const auto copied = restrict_by_hand(g, kept);
        const auto view = GameView::restrict(g, kept);
        EXPECT_EQ(view.num_profiles(), copied.num_profiles());
        expect_games_equal(copied, view.materialize());
        // Direct rank-indexed lookups agree cell by cell too.
        for (std::uint64_t rank = 0; rank < copied.num_profiles(); ++rank) {
            for (std::size_t p = 0; p < players; ++p) {
                EXPECT_EQ(view.payoff_at(rank, p), copied.payoff_at(rank, p));
                EXPECT_EQ(view.payoff_d_at(rank, p), copied.payoff_d_at(rank, p));
            }
        }
    }
}

TEST(GameView, CarriesActionLabels) {
    const auto rps = catalog::roshambo();
    const auto view = GameView::restrict(rps, {{0, 2}, {1}});
    const auto materialized = view.materialize();
    const auto copied = restrict_by_hand(rps, {{0, 2}, {1}});
    expect_games_equal(copied, materialized);
    EXPECT_EQ(materialized.action_label(0, 1), "scissors");
}

TEST(GameView, FullViewIsIdentity) {
    util::Rng rng{13};
    const auto g = NormalFormGame::random({3, 2, 4}, rng);
    const auto view = GameView::full(g);
    EXPECT_EQ(view.num_profiles(), g.num_profiles());
    for (std::uint64_t rank = 0; rank < g.num_profiles(); ++rank) {
        for (std::size_t p = 0; p < g.num_players(); ++p) {
            EXPECT_EQ(view.payoff_at(rank, p), g.payoff_at(rank, p));
        }
    }
}

TEST(GameView, PermuteSwapsPlayers) {
    util::Rng rng{17};
    const auto g = NormalFormGame::random({2, 3}, rng);
    const auto view = GameView::permute(g, {1, 0});
    EXPECT_EQ(view.num_actions(0), 3u);
    EXPECT_EQ(view.num_actions(1), 2u);
    for (std::size_t a = 0; a < 3; ++a) {
        for (std::size_t b = 0; b < 2; ++b) {
            // View profile (a, b) is parent profile (b, a); view player 0
            // is parent player 1.
            EXPECT_EQ(view.payoff({a, b}, 0), g.payoff({b, a}, 1));
            EXPECT_EQ(view.payoff({a, b}, 1), g.payoff({b, a}, 0));
        }
    }
}

TEST(GameView, ComposedRestrictionMatchesRestrictChain) {
    util::Rng rng{19};
    const auto g = NormalFormGame::random({4, 4, 3}, rng);
    const std::vector<std::vector<std::size_t>> first{{0, 2, 3}, {1, 2, 3}, {0, 2}};
    const std::vector<std::vector<std::size_t>> second{{1, 2}, {0, 2}, {1}};
    const auto copied = restrict_by_hand(restrict_by_hand(g, first), second);
    const auto view = GameView::restrict(g, first).restrict(second);
    expect_games_equal(copied, view.materialize());
}

TEST(GameView, RestrictAndPermuteValidate) {
    const auto pd = catalog::prisoners_dilemma();
    EXPECT_THROW((void)GameView::restrict(pd, {{0}}), std::invalid_argument);
    EXPECT_THROW((void)GameView::restrict(pd, {{}, {0}}), std::invalid_argument);
    EXPECT_THROW((void)GameView::restrict(pd, {{0, 5}, {0}}), std::out_of_range);
    EXPECT_THROW((void)GameView::permute(pd, {0, 0}), std::invalid_argument);
    EXPECT_THROW((void)GameView::permute(pd, {0}), std::invalid_argument);
}

// ------------------------------------------------------- engine view sweeps

TEST(GameView, EngineSweepsOnViewsAreBitIdenticalToMaterialized) {
    util::Rng rng{23};
    for (int trial = 0; trial < 10; ++trial) {
        const auto g = NormalFormGame::random(random_shape(rng, 3), rng);
        std::vector<std::vector<std::size_t>> kept(3);
        for (std::size_t p = 0; p < 3; ++p) kept[p] = random_kept(rng, g.num_actions(p));
        // A restriction keeps the identity player map (contiguous rows); a
        // permuted restriction reads through the player map.
        const std::vector<GameView> views{
            GameView::restrict(g, kept),
            GameView::permute(g, {2, 0, 1}).restrict({kept[2], kept[0], kept[1]})};
        for (const GameView& view : views) {
            const auto materialized = view.materialize();

            const auto mixed = random_mixed(view.action_counts(), rng);
            EXPECT_EQ(expected_payoffs(view, mixed), expected_payoffs(materialized, mixed));
            EXPECT_EQ(deviation_payoffs_all(view, mixed),
                      deviation_payoffs_all(materialized, mixed));
            for (std::size_t p = 0; p < 3; ++p) {
                EXPECT_EQ(deviation_row(view, mixed, p), deviation_row(materialized, mixed, p));
            }

            const auto exact = random_exact(view.action_counts(), rng);
            EXPECT_EQ(expected_payoffs_exact(view, exact),
                      expected_payoffs_exact(materialized, exact));
            EXPECT_EQ(deviation_payoffs_all_exact(view, exact),
                      deviation_payoffs_all_exact(materialized, exact));
        }
    }
}

TEST(GameView, MultiBlockViewSweepsAreBitIdenticalToMaterialized) {
    // Enough view profiles (> kParallelBlock) to split the sweep into
    // several blocks: pins the incremental running-row odometer across
    // block boundaries (each block re-derives its entry row from the
    // unranked tuple, then steps by cell-offset deltas) against the
    // materialized dense sweep, serial and parallel.
    util::Rng rng{37};
    const auto g = NormalFormGame::random({200, 200}, rng, -5, 5);
    std::vector<std::vector<std::size_t>> kept(2);
    for (std::size_t a = 0; a < 200; ++a) {
        if (a % 5 != 0) kept[0].push_back(a);  // 160 kept
        if (a % 3 != 2) kept[1].push_back(a);  // 134 kept
    }
    const auto view = GameView::restrict(g, kept);
    ASSERT_GT(view.num_profiles(), kParallelBlock);
    const auto materialized = view.materialize();
    const auto mixed = random_mixed(view.action_counts(), rng);
    for (const auto mode : {SweepMode::kSerial, SweepMode::kAuto}) {
        EXPECT_EQ(expected_payoffs(view, mixed, mode), expected_payoffs(materialized, mixed, mode));
        EXPECT_EQ(deviation_payoffs_all(view, mixed, mode),
                  deviation_payoffs_all(materialized, mixed, mode));
    }
    for (std::size_t p = 0; p < 2; ++p) {
        EXPECT_EQ(deviation_row(view, mixed, p), deviation_row(materialized, mixed, p));
    }
}

TEST(GameView, ViewSweepValidatesProfileShape) {
    util::Rng rng{29};
    const auto g = NormalFormGame::random({3, 3}, rng);
    const auto view = GameView::restrict(g, {{0, 2}, {1, 2}});
    MixedProfile wrong{{0.5, 0.5, 0.0}, {0.5, 0.5}};  // player 0 has 2 view actions
    EXPECT_THROW((void)expected_payoffs(view, wrong), std::invalid_argument);
}

// -------------------------------------------------- zero-copy elimination

TEST(GameView, IteratedEliminationAllocatesExactlyOneTensor) {
    // A dominance chain: payoff -(own action index) makes action a
    // strictly dominated by a-1 for every player, so elimination walks
    // all the way down to the all-0 profile, one action per round.
    NormalFormGame g({6, 6});
    for (std::uint64_t rank = 0; rank < g.num_profiles(); ++rank) {
        const auto profile = g.profile_unrank(rank);
        for (std::size_t p = 0; p < 2; ++p) {
            g.set_payoff(profile, p, -static_cast<std::int64_t>(profile[p]));
        }
    }
    const auto before = NormalFormGame::tensor_allocations();
    const auto result = solver::iterated_elimination(g, solver::DominanceKind::kStrictPure);
    const auto after = NormalFormGame::tensor_allocations();
    // 10 elimination rounds, ONE materialization: the view loop allocates
    // no intermediate payoff tensors (the seed path allocated one per
    // round plus the working copy).
    EXPECT_EQ(after - before, 1u);
    EXPECT_EQ(result.trace.size(), 10u);
    EXPECT_EQ(result.reduced.num_profiles(), 1u);
    EXPECT_EQ(result.kept[0], (std::vector<std::size_t>{0}));
    EXPECT_EQ(result.kept[1], (std::vector<std::size_t>{0}));
}

TEST(GameView, ViewsThemselvesAllocateNoTensor) {
    util::Rng rng{31};
    const auto g = NormalFormGame::random({4, 4, 4}, rng);
    const auto before = NormalFormGame::tensor_allocations();
    const auto view = GameView::restrict(g, {{0, 1}, {1, 2, 3}, {2}});
    const auto narrowed = view.restrict({{0}, {0, 2}, {0}});
    (void)narrowed.payoff({0, 1, 0}, 2);
    EXPECT_EQ(NormalFormGame::tensor_allocations(), before);
}

}  // namespace
}  // namespace bnash::game
