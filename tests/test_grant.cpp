// util::ExecutionGrant and its threading through the sweep kernels: state
// latching, pool propagation, BNASH_THREADS sizing, bounded budget
// overshoot, and the soundness contract — every cell a budget-limited
// batch_robustness_frontier / max_kt / batch probe RESOLVES is
// bit-identical to the unbudgeted run's, and everything else is
// explicitly kUnknown.
//
// This binary pins BNASH_THREADS=4 (before the lazily-constructed
// util::global_pool() first runs) so the parallel grant paths execute
// even on single-core CI hosts.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/robust/anonymous.h"
#include "core/robust/coalition_sweep.h"
#include "core/robust/orbit_sweep.h"
#include "core/robust/robustness.h"
#include "game/catalog.h"
#include "game/normal_form.h"
#include "game/payoff_engine.h"
#include "util/execution_grant.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/work_counters.h"
#include "symmetric_corpus.h"

namespace bnash {
namespace {

using core::BatchVerdict;
using core::CellVerdict;
using core::CoalitionSweep;
using core::FrontierVerdict;
using core::GainCriterion;
using core::MaxKtResult;
using core::RobustnessOptions;
using game::ExactMixedProfile;
using game::NormalFormGame;
using game::PureProfile;
using game::SweepMode;
using util::ExecutionGrant;
using util::GrantScope;
using util::GrantState;

// Runs before main(), i.e. before the first global_pool() construction.
const bool kEnvPinned = [] {
    ::setenv("BNASH_THREADS", "4", 1);
    return true;
}();

// ----------------------------------------------------------- grant basics

TEST(ExecutionGrant, UnlimitedByDefault) {
    ExecutionGrant grant;
    EXPECT_EQ(grant.state(), GrantState::kLive);
    grant.charge(~std::uint64_t{0} / 2);
    EXPECT_FALSE(grant.expired());
}

TEST(ExecutionGrant, BudgetExhaustionLatches) {
    ExecutionGrant grant = ExecutionGrant::with_budget(100);
    grant.charge(99);
    EXPECT_EQ(grant.state(), GrantState::kLive);
    grant.charge(1);
    EXPECT_EQ(grant.state(), GrantState::kBudgetExhausted);
    // Monotone: a later cancel does not change the latched reason.
    grant.cancel();
    EXPECT_EQ(grant.state(), GrantState::kBudgetExhausted);
    EXPECT_EQ(grant.charged(), 100u);
}

TEST(ExecutionGrant, CancelLatchesFirst) {
    ExecutionGrant grant = ExecutionGrant::with_budget(1);
    grant.cancel();
    EXPECT_EQ(grant.state(), GrantState::kCancelled);
    grant.charge(10);
    EXPECT_EQ(grant.state(), GrantState::kCancelled);
}

TEST(ExecutionGrant, DeadlineExpires) {
    ExecutionGrant grant = ExecutionGrant::with_deadline(std::chrono::nanoseconds{0});
    EXPECT_EQ(grant.state(), GrantState::kDeadlineExpired);
    ExecutionGrant far = ExecutionGrant::with_deadline(std::chrono::hours{24});
    EXPECT_FALSE(far.expired());
}

TEST(ExecutionGrant, ToStringCoversStates) {
    EXPECT_STREQ(util::to_string(GrantState::kLive), "live");
    EXPECT_NE(std::string(util::to_string(GrantState::kCancelled)),
              std::string(util::to_string(GrantState::kBudgetExhausted)));
}

TEST(GrantScope, NestsAndRestores) {
    EXPECT_EQ(util::active_grant(), nullptr);
    ExecutionGrant outer;
    ExecutionGrant inner;
    {
        GrantScope scope_outer(&outer);
        EXPECT_EQ(util::active_grant(), &outer);
        {
            GrantScope scope_inner(&inner);
            EXPECT_EQ(util::active_grant(), &inner);
        }
        EXPECT_EQ(util::active_grant(), &outer);
    }
    EXPECT_EQ(util::active_grant(), nullptr);
}

TEST(GrantScope, WorkCountersChargeActiveGrant) {
    ExecutionGrant grant = ExecutionGrant::with_budget(50);
    {
        GrantScope scope(&grant);
        util::work_counters_add(30, 7);
        EXPECT_EQ(grant.charged(), 30u);
        EXPECT_FALSE(grant.expired());
        util::work_counters_add(30, 0);
    }
    EXPECT_EQ(grant.charged(), 60u);
    EXPECT_EQ(grant.state(), GrantState::kBudgetExhausted);
    // Outside any scope, adds charge nobody.
    util::work_counters_add(10, 0);
    EXPECT_EQ(grant.charged(), 60u);
}

// ----------------------------------------------------- pool sizing + gating

TEST(ThreadPool, PoolWorkersForDefaultsToCores) {
    EXPECT_EQ(util::pool_workers_for(8, nullptr), 7u);
    EXPECT_EQ(util::pool_workers_for(1, nullptr), 0u);
    EXPECT_EQ(util::pool_workers_for(0, nullptr), 0u);
    EXPECT_EQ(util::pool_workers_for(64, nullptr), 15u);  // capped default
}

TEST(ThreadPool, PoolWorkersForEnvOverride) {
    EXPECT_EQ(util::pool_workers_for(8, "1"), 0u);   // 1 executor: submitter only
    EXPECT_EQ(util::pool_workers_for(8, "4"), 3u);   // 4 executors total
    EXPECT_EQ(util::pool_workers_for(2, "32"), 31u);  // env wins over hardware
    EXPECT_EQ(util::pool_workers_for(8, "999"), 63u);  // clamped to 64 executors
}

TEST(ThreadPool, PoolWorkersForRejectsMalformedEnv) {
    EXPECT_EQ(util::pool_workers_for(8, ""), 7u);
    EXPECT_EQ(util::pool_workers_for(8, "abc"), 7u);
    EXPECT_EQ(util::pool_workers_for(8, "4x"), 7u);
    EXPECT_EQ(util::pool_workers_for(8, "0"), 7u);
    EXPECT_EQ(util::pool_workers_for(8, "-3"), 7u);
}

TEST(ThreadPool, GlobalPoolHonorsBnashThreads) {
    // kEnvPinned set BNASH_THREADS=4 before the pool existed.
    ASSERT_TRUE(kEnvPinned);
    EXPECT_EQ(util::global_pool().size(), 4u);
}

TEST(ThreadPool, ExpiredGrantSkipsAllBlocks) {
    ExecutionGrant grant;
    grant.cancel();
    GrantScope scope(&grant);
    std::atomic<int> ran{0};
    util::global_pool().run_blocks(64, [&](std::size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 0);
}

TEST(ThreadPool, GrantPropagatesToWorkerBlocks) {
    ExecutionGrant grant;
    GrantScope scope(&grant);
    std::atomic<int> with_grant{0};
    util::global_pool().run_blocks(64, [&](std::size_t) {
        if (util::active_grant() == &grant) with_grant.fetch_add(1);
    });
    EXPECT_EQ(with_grant.load(), 64);
}

TEST(ThreadPool, MidJobCancelStopsWithinInFlightBlocks) {
    ExecutionGrant grant;
    GrantScope scope(&grant);
    std::atomic<int> ran{0};
    util::global_pool().run_blocks(256, [&](std::size_t block) {
        ran.fetch_add(1);
        if (block == 0) grant.cancel();
    });
    // Every executor checks the grant before each block, so after the
    // cancel at most the blocks already in flight (one per executor) run.
    EXPECT_LE(ran.load(), static_cast<int>(util::global_pool().size()) + 1);
    EXPECT_EQ(grant.state(), GrantState::kCancelled);
}

// ------------------------------------------------- accounting + overshoot

TEST(GrantAccounting, UnlimitedGrantPreservesCounterTotals) {
    util::Rng rng(11);
    const NormalFormGame game = NormalFormGame::random({3, 3, 3}, rng, -4, 4);
    const auto profile = core::as_exact_profile(game, PureProfile(3, 0));
    const RobustnessOptions options{GainCriterion::kAnyMemberGains, SweepMode::kSerial};

    const util::WorkCounters before_bare = util::work_counters_snapshot();
    const FrontierVerdict bare = core::batch_robustness_frontier(game, profile, 2, 2, options);
    const util::WorkCounters after_bare = util::work_counters_snapshot();

    ExecutionGrant grant;
    FrontierVerdict granted;
    {
        GrantScope scope(&grant);
        granted = core::batch_robustness_frontier(game, profile, 2, 2, options);
    }
    const util::WorkCounters after_granted = util::work_counters_snapshot();

    EXPECT_TRUE(granted == bare);
    // Grant integration must not change what the counters tally...
    EXPECT_EQ(after_bare.cells_visited - before_bare.cells_visited,
              after_granted.cells_visited - after_bare.cells_visited);
    EXPECT_EQ(after_bare.offsets_advanced - before_bare.offsets_advanced,
              after_granted.offsets_advanced - after_bare.offsets_advanced);
    // ...and the grant is billed exactly the cells the counters saw.
    EXPECT_EQ(grant.charged(), after_granted.cells_visited - after_bare.cells_visited);
}

TEST(GrantAccounting, SerialBudgetOvershootIsOneCheckpoint) {
    // All-zero payoffs: the candidate is (k,t)-robust for every (k,t), so
    // no early violation exit ever shortcuts the sweep and the frontier
    // pays its full exhaustive cost.
    const NormalFormGame game(std::vector<std::size_t>(5, 3));
    const auto profile = core::as_exact_profile(game, PureProfile(5, 0));
    const RobustnessOptions options{GainCriterion::kAnyMemberGains, SweepMode::kSerial};

    std::uint64_t full_cost = 0;
    {
        ExecutionGrant unlimited;
        GrantScope scope(&unlimited);
        (void)core::batch_robustness_frontier(game, profile, 3, 2, options);
        full_cost = unlimited.charged();
    }
    ASSERT_GT(full_cost, 8192u) << "game too small to exercise truncation";

    const std::uint64_t budget = full_cost / 8;
    ExecutionGrant grant = ExecutionGrant::with_budget(budget);
    FrontierVerdict part;
    {
        GrantScope scope(&grant);
        part = core::batch_robustness_frontier(game, profile, 3, 2, options);
    }
    EXPECT_EQ(grant.state(), GrantState::kBudgetExhausted);
    EXPECT_FALSE(part.complete());
    // A serial sweep polls the grant every <= 2048 charged cells (and
    // before every block/task), so the overshoot is bounded by one
    // checkpoint chunk plus one trailing partial flush.
    EXPECT_LE(grant.charged(), budget + 4096u);
    EXPECT_LT(grant.charged(), full_cost);
}

// ------------------------------------------------------- soundness fuzzing

ExactMixedProfile fuzz_profile(const NormalFormGame& game, util::Rng& rng,
                               bool mixed) {
    ExactMixedProfile profile(game.num_players());
    for (std::size_t player = 0; player < game.num_players(); ++player) {
        const std::size_t actions = game.num_actions(player);
        profile[player].assign(actions, util::Rational(0));
        if (mixed && player == 0 && actions > 1) {
            for (std::size_t a = 0; a < actions; ++a) {
                profile[player][a] =
                    util::Rational(1, static_cast<std::int64_t>(actions));
            }
        } else {
            profile[player][static_cast<std::size_t>(rng.next_below(actions))] = util::Rational(1);
        }
    }
    return profile;
}

// The serving contract, fuzzed over ~100 seeded games, four budgets, both
// sweep modes, and the intra-split path: a grant-limited run may leave
// cells kUnknown but every cell it RESOLVES — verdict and stored witness
// — matches the unbudgeted run bit for bit.
TEST(GrantFuzz, BudgetedResultsAreSoundPrefixes) {
    util::Rng rng(20260807);
    const std::size_t kGames = 100;
    const std::size_t max_k = 2;
    const std::size_t max_t = 2;
    const std::uint64_t saved_split = CoalitionSweep::intra_split_cells();
    const std::uint64_t saved_block = CoalitionSweep::intra_block_cells();
    for (std::size_t trial = 0; trial < kGames; ++trial) {
        std::vector<std::size_t> counts(3, 0);
        for (auto& count : counts) count = 2 + static_cast<std::size_t>(rng.next_below(2));
        const NormalFormGame game = NormalFormGame::random(counts, rng, -4, 4);
        const ExactMixedProfile profile = fuzz_profile(game, rng, trial % 3 == 0);
        const GainCriterion criterion =
            trial % 5 == 0 ? GainCriterion::kAllMembersGain : GainCriterion::kAnyMemberGains;
        const SweepMode mode = trial % 2 == 0 ? SweepMode::kSerial : SweepMode::kAuto;
        const RobustnessOptions options{criterion, mode};
        const bool force_split = trial % 4 == 0;
        if (force_split) {
            CoalitionSweep::set_intra_split_cells(4);
            CoalitionSweep::set_intra_block_cells(2);
            CoalitionSweep::set_intra_split_force(true);
        }

        const FrontierVerdict full = core::batch_robustness_frontier(
            game, profile, max_k, max_t, {criterion, SweepMode::kSerial});
        const BatchVerdict full_res = core::batch_resilience(game, profile, max_k, options);
        const BatchVerdict full_imm = core::batch_immunity(game, profile, max_t, mode);
        const MaxKtResult full_walk = core::max_kt(game, profile, max_k, max_t, options);

        for (const std::uint64_t budget : {std::uint64_t{1}, std::uint64_t{9},
                                           std::uint64_t{60}, std::uint64_t{100000}}) {
            const std::string label = "trial=" + std::to_string(trial) +
                                      " budget=" + std::to_string(budget) +
                                      (mode == SweepMode::kSerial ? " serial" : " auto") +
                                      (force_split ? " split" : "");
            {
                ExecutionGrant grant = ExecutionGrant::with_budget(budget);
                GrantScope scope(&grant);
                const FrontierVerdict part =
                    core::batch_robustness_frontier(game, profile, max_k, max_t, options);
                if (part.complete()) {
                    EXPECT_TRUE(part == full) << label << " complete-but-different";
                } else {
                    std::uint64_t resolved = 0;
                    for (std::size_t k = 0; k <= max_k; ++k) {
                        for (std::size_t t = 0; t <= max_t; ++t) {
                            const CellVerdict verdict = part.verdict(k, t);
                            if (verdict == CellVerdict::kUnknown) continue;
                            ++resolved;
                            EXPECT_EQ(verdict, full.verdict(k, t))
                                << label << " cell k=" << k << " t=" << t;
                            if (verdict == CellVerdict::kBroken) {
                                EXPECT_TRUE(part.violation(k, t) == full.violation(k, t))
                                    << label << " witness k=" << k << " t=" << t;
                            }
                        }
                    }
                    EXPECT_EQ(resolved, part.cells_resolved) << label;
                }
            }
            {
                ExecutionGrant grant = ExecutionGrant::with_budget(budget);
                GrantScope scope(&grant);
                const MaxKtResult walk = core::max_kt(game, profile, max_k, max_t, options);
                for (std::size_t k = 0; k <= max_k; ++k) {
                    for (std::size_t t = 0; t <= max_t; ++t) {
                        const CellVerdict verdict = walk.verdict(k, t);
                        if (verdict == CellVerdict::kUnknown) continue;
                        EXPECT_EQ(verdict, full.verdict(k, t))
                            << label << " max_kt cell k=" << k << " t=" << t;
                    }
                }
                if (walk.complete) {
                    EXPECT_TRUE(walk == full_walk)
                        << label << " complete walk differs from unbudgeted";
                }
            }
            {
                ExecutionGrant grant = ExecutionGrant::with_budget(budget);
                GrantScope scope(&grant);
                const BatchVerdict res = core::batch_resilience(game, profile, max_k, options);
                if (res.complete) {
                    EXPECT_TRUE(res == full_res) << label << " batch_resilience";
                } else {
                    // Truncated: the verified prefix never overclaims.
                    EXPECT_LE(res.max_ok, full_res.max_ok) << label;
                }
            }
            {
                ExecutionGrant grant = ExecutionGrant::with_budget(budget);
                GrantScope scope(&grant);
                const BatchVerdict imm = core::batch_immunity(game, profile, max_t, mode);
                if (imm.complete) {
                    EXPECT_TRUE(imm == full_imm) << label << " batch_immunity";
                } else {
                    EXPECT_LE(imm.max_ok, full_imm.max_ok) << label;
                }
            }
        }
        if (force_split) {
            CoalitionSweep::set_intra_split_cells(saved_split);
            CoalitionSweep::set_intra_block_cells(saved_block);
            CoalitionSweep::set_intra_split_force(false);
        }
        if (HasFatalFailure()) return;
    }
}

// --------------------------------------------------- checkpointed resume

// Runs one budgeted leg of a resume chain: seeks past `resume` (when
// set), sweeps under a fresh budget, and reports the new checkpoint plus
// the cells this leg charged.
template <typename Body>
std::uint64_t run_leg(std::uint64_t budget, const Body& body) {
    ExecutionGrant grant = ExecutionGrant::with_budget(budget);
    GrantScope scope(&grant);
    body();
    return grant.charged();
}

// A budget below the resume floor (the immunity baseline plus one
// task's cells) cannot vouch for any task, so such a leg makes NO
// progress — the checkpoint comes back unchanged. A real client
// retries with a bigger grant; the chains here do the same, growing a
// stuck leg's budget 8x. Starting at budget 1 this exercises both the
// zero-progress rung and the mixed-budget chain.
#define BNASH_GROW_IF_STUCK(leg_budget, progressed)                   \
    if (!(progressed) && (leg_budget) < (std::uint64_t{1} << 40)) {   \
        (leg_budget) *= 8;                                            \
    }

// The resume contract, fuzzed: for every entry point (cell probe, full
// frontier, boundary walk), a chain of budgeted retries — each seeking
// past the previous checkpoint — terminates, costs ~one sweep's work
// over its productive legs, and produces results bit-identical
// (witnesses included) to one unbudgeted run. ~60 seeded games, three
// starting budgets, both sweep modes.
TEST(GrantFuzz, ResumedRetryChainsMatchUnbudgetedRunsBitForBit) {
    util::Rng rng(20260808);
    const std::size_t kGames = 60;
    const std::size_t max_k = 2;
    const std::size_t max_t = 2;
    const std::size_t kMaxLegs = 512;
    for (std::size_t trial = 0; trial < kGames; ++trial) {
        std::vector<std::size_t> counts(3, 0);
        for (auto& count : counts) count = 2 + static_cast<std::size_t>(rng.next_below(2));
        const NormalFormGame game = NormalFormGame::random(counts, rng, -4, 4);
        const ExactMixedProfile profile = fuzz_profile(game, rng, trial % 3 == 0);
        const GainCriterion criterion =
            trial % 5 == 0 ? GainCriterion::kAllMembersGain : GainCriterion::kAnyMemberGains;
        const SweepMode mode = trial % 2 == 0 ? SweepMode::kSerial : SweepMode::kAuto;
        const RobustnessOptions options{criterion, mode};
        const CoalitionSweep sweep(game, profile);

        const auto full_cell = sweep.robustness_violation(max_k, max_t, options);
        const FrontierVerdict full_grid =
            sweep.batch_robustness_frontier(max_k, max_t, criterion, mode);
        std::uint64_t full_grid_cost = 0;
        {
            ExecutionGrant unlimited;
            GrantScope scope(&unlimited);
            (void)sweep.batch_robustness_frontier(max_k, max_t, criterion, mode);
            full_grid_cost = unlimited.charged();
        }
        const MaxKtResult full_walk = sweep.max_kt(max_k, max_t, criterion, mode);

        for (const std::uint64_t budget :
             {std::uint64_t{1}, std::max<std::uint64_t>(full_grid_cost / 7, 1),
              std::max<std::uint64_t>(full_grid_cost / 3, 1)}) {
            const std::string label = "trial=" + std::to_string(trial) +
                                      " budget=" + std::to_string(budget) +
                                      (mode == SweepMode::kSerial ? " serial" : " auto");
            // Cell probe chain.
            {
                core::SweepCheckpoint checkpoint;
                std::optional<core::RobustnessViolation> hit;
                std::uint64_t leg_budget = budget;
                std::size_t legs = 0;
                for (; legs < kMaxLegs; ++legs) {
                    core::SweepCheckpoint next;
                    (void)run_leg(leg_budget, [&] {
                        hit = sweep.robustness_violation(
                            max_k, max_t, options, legs == 0 ? nullptr : &checkpoint, &next);
                    });
                    if (hit || next.finished) break;
                    BNASH_GROW_IF_STUCK(leg_budget, !(next == checkpoint));
                    checkpoint = next;
                }
                ASSERT_LT(legs, kMaxLegs) << label << " cell chain did not terminate";
                ASSERT_EQ(hit.has_value(), full_cell.has_value()) << label;
                if (hit) {
                    EXPECT_TRUE(*hit == *full_cell) << label << " cell witness differs";
                }
            }
            // Frontier chain, merged.
            {
                core::SweepCheckpoint checkpoint;
                FrontierVerdict assembled;
                std::uint64_t leg_budget = budget;
                std::size_t legs = 0;
                for (; legs < kMaxLegs; ++legs) {
                    core::SweepCheckpoint next;
                    FrontierVerdict part;
                    (void)run_leg(leg_budget, [&] {
                        part = sweep.batch_robustness_frontier(
                            max_k, max_t, criterion, mode,
                            legs == 0 ? nullptr : &checkpoint, &next);
                    });
                    if (legs == 0) {
                        assembled = part;
                    } else {
                        core::merge_frontier(assembled, part);
                    }
                    if (next.finished) break;
                    BNASH_GROW_IF_STUCK(leg_budget, !(next == checkpoint));
                    checkpoint = next;
                }
                ASSERT_LT(legs, kMaxLegs) << label << " frontier chain did not terminate";
                EXPECT_TRUE(assembled == full_grid) << label << " assembled grid differs";
            }
            // Boundary-walk chain: the completing leg's result is the
            // unbudgeted result.
            {
                core::SweepCheckpoint checkpoint;
                MaxKtResult walk;
                std::uint64_t leg_budget = budget;
                std::size_t legs = 0;
                for (; legs < kMaxLegs; ++legs) {
                    core::SweepCheckpoint next;
                    (void)run_leg(leg_budget, [&] {
                        walk = sweep.max_kt(max_k, max_t, criterion, mode,
                                            legs == 0 ? nullptr : &checkpoint, &next);
                    });
                    if (walk.complete) break;
                    BNASH_GROW_IF_STUCK(leg_budget, !(next == checkpoint));
                    checkpoint = next;
                }
                ASSERT_LT(legs, kMaxLegs) << label << " walk chain did not terminate";
                EXPECT_TRUE(walk == full_walk) << label << " walk differs";
            }
        }
        if (HasFatalFailure()) return;
    }
}

// The resume-cost acceptance gate on a grid big enough that per-leg
// checkpoint overshoot is noise: >= 3 budgeted retries reassemble the
// frontier bit-identically AND the chain's total cell cost stays within
// 1.15x of one unbudgeted sweep.
TEST(GrantAccounting, ResumedChainCostsAboutOneSweep) {
    // All-zero payoffs: robust everywhere, so no early violation exit
    // shortcuts the sweep (the worst — and deterministic — case). Six
    // players: enough tasks that one re-entered task per leg is noise.
    const NormalFormGame game(std::vector<std::size_t>(6, 3));
    const auto profile = core::as_exact_profile(game, PureProfile(6, 0));
    const GainCriterion criterion = GainCriterion::kAnyMemberGains;
    const SweepMode mode = SweepMode::kSerial;
    const CoalitionSweep sweep(game, profile);

    std::uint64_t full_cost = 0;
    FrontierVerdict full;
    {
        ExecutionGrant unlimited;
        GrantScope scope(&unlimited);
        full = sweep.batch_robustness_frontier(3, 2, criterion, mode);
        full_cost = unlimited.charged();
    }
    ASSERT_GT(full_cost, 8192u);

    const std::uint64_t budget = full_cost / 5;
    core::SweepCheckpoint checkpoint;
    FrontierVerdict assembled;
    std::uint64_t total_cost = 0;
    std::size_t legs = 0;
    for (; legs < 64; ++legs) {
        core::SweepCheckpoint next;
        FrontierVerdict part;
        total_cost += run_leg(budget, [&] {
            part = sweep.batch_robustness_frontier(3, 2, criterion, mode,
                                                   legs == 0 ? nullptr : &checkpoint, &next);
        });
        if (legs == 0) {
            assembled = part;
        } else {
            core::merge_frontier(assembled, part);
        }
        checkpoint = next;
        if (checkpoint.finished) break;
    }
    ASSERT_LT(legs, 64u);
    EXPECT_GE(legs + 1, 3u) << "budget did not force enough retries";
    EXPECT_TRUE(assembled == full);
    // N retries cost ~one sweep, not N: at most one re-entered task plus
    // one checkpoint chunk per leg, gated at 15% total.
    EXPECT_LE(total_cost, full_cost + full_cost * 15 / 100)
        << "total=" << total_cost << " full=" << full_cost;
}

// Runs one budgeted retry chain: `leg(resume, next)` runs a leg under a
// fresh budget (resume is nullptr on the first) and returns true once the
// chain is done. Stuck legs grow their budget as above. Returns every
// checkpoint a leg resumed from.
template <typename Leg>
std::vector<core::SweepCheckpoint> run_chain(std::uint64_t budget, const Leg& leg) {
    std::vector<core::SweepCheckpoint> resumed;
    core::SweepCheckpoint checkpoint;
    std::uint64_t leg_budget = budget;
    for (std::size_t legs = 0; legs < 512; ++legs) {
        core::SweepCheckpoint next;
        bool done = false;
        (void)run_leg(leg_budget, [&] { done = leg(legs == 0 ? nullptr : &checkpoint, next); });
        if (done) return resumed;
        BNASH_GROW_IF_STUCK(leg_budget, !(next == checkpoint));
        checkpoint = next;
        resumed.push_back(checkpoint);
    }
    ADD_FAILURE() << "chain did not terminate";
    return resumed;
}

// The three resumable entry points of a sweep, each driven to completion
// by a budgeted chain.
struct ChainEnds final {
    std::optional<core::RobustnessViolation> cell;
    FrontierVerdict grid;
    MaxKtResult walk;
    // Checkpoints the cell, frontier and walk chains resumed from.
    std::vector<core::SweepCheckpoint> cell_resumes, grid_resumes, walk_resumes;
};

ChainEnds run_chains(const core::SweepDriver& sweep, std::size_t max_k, std::size_t max_t,
                     GainCriterion criterion, SweepMode mode, std::uint64_t budget) {
    ChainEnds ends;
    const RobustnessOptions options{criterion, mode};
    ends.cell_resumes = run_chain(budget, [&](const core::SweepCheckpoint* resume,
                                              core::SweepCheckpoint& next) {
        ends.cell = sweep.robustness_violation(max_k, max_t, options, resume, &next);
        return ends.cell.has_value() || next.finished;
    });
    ends.grid_resumes = run_chain(budget, [&](const core::SweepCheckpoint* resume,
                                              core::SweepCheckpoint& next) {
        const FrontierVerdict part =
            sweep.batch_robustness_frontier(max_k, max_t, criterion, mode, resume, &next);
        if (resume == nullptr) {
            ends.grid = part;
        } else {
            core::merge_frontier(ends.grid, part);
        }
        return next.finished;
    });
    ends.walk_resumes = run_chain(budget, [&](const core::SweepCheckpoint* resume,
                                              core::SweepCheckpoint& next) {
        ends.walk = sweep.max_kt(max_k, max_t, criterion, mode, resume, &next);
        return ends.walk.complete;
    });
    return ends;
}

// The orbit engine's resume points (faulty-size / pair-rank / boundary
// granular) satisfy the same contract: over the attack(6) game and a
// seeded symmetric corpus — several class structures, both criteria,
// serial and forced-split kAuto sweeps — every chain ends on the
// unbudgeted orbit result, which in turn matches the dense verdicts cell
// for cell (and the dense boundary walk field for field).
TEST(GrantFuzz, OrbitResumeChainsMatchUnbudgetedRuns) {
    util::Rng rng(20261016);
    const std::size_t kCorpus = 24;
    for (std::size_t trial = 0; trial <= kCorpus; ++trial) {
        // Trial 0 is the attack(6) game; the rest draw a symmetric game.
        game::QuotientGame quotient;
        game::SymmetryGroup group = game::SymmetryGroup::single_class(6);
        std::vector<std::size_t> base_by_class{0};
        std::size_t max_k = 4;
        std::size_t max_t = 2;
        GainCriterion criterion = GainCriterion::kAnyMemberGains;
        SweepMode mode = SweepMode::kSerial;
        bool force_split = false;
        if (trial == 0) {
            quotient = core::AnonymousBinaryGame::attack(6).quotient();
        } else {
            const std::size_t n = 4 + trial % 3;
            std::vector<std::size_t> sizes;
            group = core::random_group(rng, n, sizes);
            std::vector<std::size_t> actions(sizes.size());
            for (auto& a : actions) a = 2 + static_cast<std::size_t>(rng.next_int(0, 1));
            quotient = core::random_quotient(rng, sizes, actions);
            base_by_class.resize(sizes.size());
            for (std::size_t c = 0; c < sizes.size(); ++c) {
                base_by_class[c] = (trial + c) % actions[c];
            }
            max_k = 1 + trial % n;
            max_t = trial % 3;
            criterion = trial % 4 == 1 ? GainCriterion::kAllMembersGain
                                       : GainCriterion::kAnyMemberGains;
            mode = trial % 3 == 0 ? SweepMode::kSerial : SweepMode::kAuto;
            force_split = mode == SweepMode::kAuto && trial % 2 == 1;
        }
        const std::string label = "trial=" + std::to_string(trial) +
                                  " classes=" + std::to_string(group.num_classes()) +
                                  (mode == SweepMode::kSerial ? " serial" : " auto") +
                                  (force_split ? "+split" : "");
        const NormalFormGame dense_game = core::expand_quotient(quotient, group);
        PureProfile base(group.num_players());
        for (std::size_t i = 0; i < base.size(); ++i) base[i] = base_by_class[group.class_of(i)];
        const ExactMixedProfile profile = core::as_exact_profile(dense_game, base);
        const core::OrbitSweep sweep(quotient, group, base_by_class);
        const CoalitionSweep dense(dense_game, profile);
        const RobustnessOptions options{criterion, mode};

        if (force_split) {
            CoalitionSweep::set_intra_split_cells(4);
            CoalitionSweep::set_intra_block_cells(2);
            CoalitionSweep::set_intra_split_force(true);
        }
        const auto full_cell = sweep.robustness_violation(max_k, max_t, options);
        const FrontierVerdict full_grid =
            sweep.batch_robustness_frontier(max_k, max_t, criterion, mode);
        const MaxKtResult full_walk = sweep.max_kt(max_k, max_t, criterion, mode);
        std::uint64_t full_cost = 0;
        {
            ExecutionGrant unlimited;
            GrantScope scope(&unlimited);
            (void)sweep.batch_robustness_frontier(max_k, max_t, criterion, mode);
            full_cost = unlimited.charged();
        }
        for (const std::uint64_t budget :
             {std::uint64_t{1}, std::max<std::uint64_t>(full_cost / 4, 1),
              std::max<std::uint64_t>(full_cost / 9, 1)}) {
            const ChainEnds ends = run_chains(sweep, max_k, max_t, criterion, mode, budget);
            const std::string leg_label = label + " budget=" + std::to_string(budget);
            ASSERT_EQ(ends.cell.has_value(), full_cell.has_value()) << leg_label;
            if (ends.cell) EXPECT_TRUE(*ends.cell == *full_cell) << leg_label;
            EXPECT_TRUE(ends.grid == full_grid) << leg_label << " orbit grid differs";
            EXPECT_TRUE(ends.walk == full_walk) << leg_label << " orbit walk differs";
        }
        if (force_split) {
            CoalitionSweep::set_intra_split_force(false);
            CoalitionSweep::set_intra_block_cells(CoalitionSweep::kIntraBlock);
            CoalitionSweep::set_intra_split_adaptive();
        }

        // The orbit results carry the dense verdicts.
        EXPECT_EQ(full_cell.has_value(),
                  dense.robustness_violation(max_k, max_t, options).has_value())
            << label;
        const FrontierVerdict dense_grid =
            dense.batch_robustness_frontier(max_k, max_t, criterion, mode);
        for (std::size_t k = 0; k <= max_k; ++k) {
            for (std::size_t t = 0; t <= max_t; ++t) {
                EXPECT_EQ(full_grid.verdict(k, t), dense_grid.verdict(k, t))
                    << label << " cell (" << k << "," << t << ")";
            }
        }
        EXPECT_TRUE(full_walk == dense.max_kt(max_k, max_t, criterion, mode)) << label;
        if (HasFatalFailure()) return;
    }
}

enum class Entry { kCell, kFrontier, kWalk };

// Every variant of checkpoint `c` that its entry point could not have
// written: each must be refused.
std::vector<std::pair<std::string, core::SweepCheckpoint>> invalid_variants(
    const core::SweepCheckpoint& c, Entry entry, std::size_t max_k, std::size_t max_t) {
    std::vector<std::pair<std::string, core::SweepCheckpoint>> out;
    const auto add = [&](const char* what, const auto& mutate) {
        core::SweepCheckpoint variant = c;
        mutate(variant);
        out.emplace_back(what, std::move(variant));
    };
    using Checkpoint = core::SweepCheckpoint;
    constexpr std::uint64_t kFar = std::uint64_t{1} << 40;
    add("immunity_ok beyond max_t", [&](Checkpoint& v) { v.immunity_ok = max_t + 1; });
    if (!c.immunity_done) {
        add("immunity_next beyond the task space", [&](Checkpoint& v) { v.immunity_next = kFar; });
        add("next_task before immunity is done", [](Checkpoint& v) { v.next_task = 1; });
        add("column_done before immunity is done", [](Checkpoint& v) { v.column_done = {0}; });
        add("walk state before immunity is done", [&](Checkpoint& v) {
            v.walk_t = 1;
            v.walk_k_of_t = {max_k};
            v.walk_k_prev = max_k;
        });
        add("walk_cells_resolved before immunity is done",
            [](Checkpoint& v) { v.walk_cells_resolved = 1; });
        return out;
    }
    add("next_task beyond the task space", [&](Checkpoint& v) { v.next_task = kFar; });
    if (c.next_task != 0 || !c.column_done.empty() || c.walk_t != 0) {
        add("phase-(b) state with immunity not done", [](Checkpoint& v) {
            v.immunity_done = false;
            v.immunity_next = 1;
        });
    }
    if (entry != Entry::kFrontier) {
        add("column_done on a non-frontier checkpoint", [](Checkpoint& v) { v.column_done = {0}; });
    }
    if (entry != Entry::kWalk) {
        add("walk state on a non-walk checkpoint",
            [](Checkpoint& v) { v.walk_cells_resolved = 1; });
    }
    if (entry == Entry::kFrontier) {
        add("column_done lengthened", [](Checkpoint& v) { v.column_done.push_back(0); });
        add("column_done shortened", [](Checkpoint& v) { v.column_done.pop_back(); });
    }
    if (entry == Entry::kWalk) {
        add("walk_k_of_t longer than walk_t",
            [](Checkpoint& v) { v.walk_k_of_t.push_back(v.walk_k_prev); });
        add("walk_t past walk_k_of_t", [](Checkpoint& v) { ++v.walk_t; });
        add("walk_k_prev off the last column", [](Checkpoint& v) { ++v.walk_k_prev; });
        add("walk_k_of_t above max_k", [&](Checkpoint& v) {
            v.walk_t = 1;
            v.walk_k_of_t = {max_k + 1};
            v.walk_k_prev = max_k + 1;
        });
        if (c.walk_t >= 1) {
            add("walk_k_of_t increasing", [](Checkpoint& v) {
                v.walk_k_of_t.push_back(v.walk_k_prev + 1);
                ++v.walk_t;
                ++v.walk_k_prev;
            });
        }
        add("walk_t beyond immunity_ok", [](Checkpoint& v) {
            v.walk_t = v.immunity_ok + 1;
            v.walk_k_of_t.resize(v.walk_t, v.walk_k_prev);
        });
        add("walk_cells_resolved beyond the grid", [&](Checkpoint& v) {
            v.walk_cells_resolved = (max_k + 1) * (max_t + 1) + 1;
        });
    }
    return out;
}

// Resume checkpoints are untrusted input. Perturbing a field of a real
// mid-chain checkpoint into state its entry point could not have written
// must throw core::InvalidCheckpoint — on both engines, for all three
// resumable entry points — while the untouched chains still end on the
// unbudgeted results. (An in-range lie, such as a next_task the earlier
// runs never reached, still needs authenticated tokens to catch.)
TEST(GrantFuzz, PerturbedCheckpointFieldsAreRejected) {
    // All-zero payoffs: robust everywhere, so every chain runs through
    // both phases and every walk column.
    const NormalFormGame zero_game(std::vector<std::size_t>(4, 3));
    const ExactMixedProfile zero_profile = core::as_exact_profile(zero_game, PureProfile(4, 0));
    const CoalitionSweep dense(zero_game, zero_profile);
    util::Rng rng(77);
    std::vector<std::size_t> sizes;
    const game::SymmetryGroup group = core::random_group(rng, 6, sizes);
    game::QuotientGame quotient =
        core::random_quotient(rng, sizes, std::vector<std::size_t>(sizes.size(), 2));
    for (auto& row : quotient.payoff) std::fill(row.begin(), row.end(), util::Rational{0});
    const core::OrbitSweep orbit(quotient, group, std::vector<std::size_t>(sizes.size(), 0));

    const GainCriterion criterion = GainCriterion::kAnyMemberGains;
    const SweepMode mode = SweepMode::kSerial;
    for (const bool use_orbit : {false, true}) {
        const core::SweepDriver& sweep =
            use_orbit ? static_cast<const core::SweepDriver&>(orbit) : dense;
        const std::size_t max_k = use_orbit ? 3 : 2;
        const std::size_t max_t = 2;
        const RobustnessOptions options{criterion, mode};
        const std::string engine = use_orbit ? "orbit" : "dense";
        const auto resume = [&](Entry entry, const core::SweepCheckpoint& checkpoint) {
            core::SweepCheckpoint next;
            switch (entry) {
                case Entry::kCell:
                    (void)sweep.robustness_violation(max_k, max_t, options, &checkpoint, &next);
                    break;
                case Entry::kFrontier:
                    (void)sweep.batch_robustness_frontier(max_k, max_t, criterion, mode,
                                                          &checkpoint, &next);
                    break;
                case Entry::kWalk:
                    (void)sweep.max_kt(max_k, max_t, criterion, mode, &checkpoint, &next);
                    break;
            }
        };
        const FrontierVerdict full_grid = sweep.batch_robustness_frontier(max_k, max_t);
        const MaxKtResult full_walk = sweep.max_kt(max_k, max_t);
        std::uint64_t full_cost = 0;
        {
            ExecutionGrant unlimited;
            GrantScope scope(&unlimited);
            (void)sweep.batch_robustness_frontier(max_k, max_t, criterion, mode);
            full_cost = unlimited.charged();
        }
        std::set<std::string> rejected;
        for (const std::uint64_t budget :
             {std::uint64_t{1}, std::max<std::uint64_t>(full_cost / 5, 1)}) {
            const ChainEnds ends = run_chains(sweep, max_k, max_t, criterion, mode, budget);
            EXPECT_FALSE(ends.cell.has_value()) << engine;
            EXPECT_TRUE(ends.grid == full_grid) << engine << " grid differs";
            EXPECT_TRUE(ends.walk == full_walk) << engine << " walk differs";
            for (const auto& [entry, resumes] :
                 {std::pair{Entry::kCell, &ends.cell_resumes},
                  std::pair{Entry::kFrontier, &ends.grid_resumes},
                  std::pair{Entry::kWalk, &ends.walk_resumes}}) {
                for (const core::SweepCheckpoint& checkpoint : *resumes) {
                    for (const auto& [what, variant] :
                         invalid_variants(checkpoint, entry, max_k, max_t)) {
                        EXPECT_THROW(resume(entry, variant), core::InvalidCheckpoint)
                            << engine << ": " << what;
                        rejected.insert(what);
                    }
                }
            }
        }
        // Both phases of every entry point were perturbed.
        for (const char* what :
             {"immunity_next beyond the task space", "next_task before immunity is done",
              "phase-(b) state with immunity not done", "column_done lengthened",
              "column_done shortened", "walk_k_of_t longer than walk_t",
              "walk_k_of_t increasing", "walk_t beyond immunity_ok",
              "walk_cells_resolved beyond the grid", "column_done on a non-frontier checkpoint",
              "walk state on a non-walk checkpoint"}) {
            EXPECT_TRUE(rejected.count(what) == 1) << engine << " never exercised: " << what;
        }
    }
}

TEST(GrantFuzz, PreExpiredGrantResolvesOnlyVacuousCells) {
    const NormalFormGame game = game::catalog::prisoners_dilemma();
    const auto profile = core::as_exact_profile(game, PureProfile{1, 1});
    ExecutionGrant grant;
    grant.cancel();
    GrantScope scope(&grant);
    const FrontierVerdict part = core::batch_robustness_frontier(game, profile, 2, 1, {});
    EXPECT_FALSE(part.complete());
    // Cell (0,0) is vacuously robust for every game; everything needing
    // actual work is unknown.
    EXPECT_EQ(part.verdict(0, 0), CellVerdict::kRobust);
    EXPECT_EQ(part.verdict(1, 0), CellVerdict::kUnknown);
    EXPECT_EQ(part.verdict(0, 1), CellVerdict::kUnknown);
    EXPECT_EQ(part.verdict(2, 1), CellVerdict::kUnknown);
}

}  // namespace
}  // namespace bnash
