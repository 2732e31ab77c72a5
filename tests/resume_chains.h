// Budgeted resume chains shared by the suites that check the resume
// contract: legs that each run under a fresh util::ExecutionGrant and
// seek past the previous leg's checkpoint, driven to completion.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/robust/robustness.h"
#include "core/robust/sweep_driver.h"
#include "game/payoff_engine.h"
#include "util/execution_grant.h"

namespace bnash::core {

// Runs one budgeted leg of a resume chain: seeks past `resume` (when
// set), sweeps under a fresh budget, and reports the new checkpoint plus
// the cells this leg charged.
template <typename Body>
std::uint64_t run_leg(std::uint64_t budget, const Body& body) {
    util::ExecutionGrant grant = util::ExecutionGrant::with_budget(budget);
    util::GrantScope scope(&grant);
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

// Runs one budgeted retry chain: `leg(resume, next)` runs a leg under a
// fresh budget (resume is nullptr on the first) and returns true once the
// chain is done. Stuck legs grow their budget as above. Returns every
// checkpoint a leg resumed from.
template <typename Leg>
std::vector<SweepCheckpoint> run_chain(std::uint64_t budget, const Leg& leg) {
    std::vector<SweepCheckpoint> resumed;
    SweepCheckpoint checkpoint;
    std::uint64_t leg_budget = budget;
    for (std::size_t legs = 0; legs < 512; ++legs) {
        SweepCheckpoint next;
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
    std::optional<RobustnessViolation> cell;
    FrontierVerdict grid;
    MaxKtResult walk;
    // Checkpoints the cell, frontier and walk chains resumed from.
    std::vector<SweepCheckpoint> cell_resumes, grid_resumes, walk_resumes;
};

inline ChainEnds run_chains(const SweepDriver& sweep, std::size_t max_k, std::size_t max_t,
                            GainCriterion criterion, game::SweepMode mode,
                            std::uint64_t budget) {
    ChainEnds ends;
    const RobustnessOptions options{criterion, mode};
    ends.cell_resumes = run_chain(budget, [&](const SweepCheckpoint* resume,
                                              SweepCheckpoint& next) {
        ends.cell = sweep.robustness_violation(max_k, max_t, options, resume, &next);
        return ends.cell.has_value() || next.finished;
    });
    ends.grid_resumes = run_chain(budget, [&](const SweepCheckpoint* resume,
                                              SweepCheckpoint& next) {
        const FrontierVerdict part =
            sweep.batch_robustness_frontier(max_k, max_t, criterion, mode, resume, &next);
        if (resume == nullptr) {
            ends.grid = part;
        } else {
            merge_frontier(ends.grid, part);
        }
        return next.finished;
    });
    ends.walk_resumes = run_chain(budget, [&](const SweepCheckpoint* resume,
                                              SweepCheckpoint& next) {
        ends.walk = sweep.max_kt(max_k, max_t, criterion, mode, resume, &next);
        return ends.walk.complete;
    });
    return ends;
}

}  // namespace bnash::core
