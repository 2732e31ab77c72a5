// E2 + E3: Section 2's examples as tables. The attack game's all-0
// equilibrium survives exactly one deviator (E2); the bargaining game's
// all-stay is resilient for every k but dies with one faulty player (E3).
// Anonymous-game checkers carry the sweep to n = 50; the generic exact
// checkers are timed for comparison.
//
// PR-2 acceptance blocks:
//   R-CS1: (k=2,t=1) robustness on the 6-player attack game — the
//          parallel CoalitionSweep vs the PR-1 serial reference checker
//          (target: >= 3x, identical verdicts/violations). The all-1
//          profile IS (2,1)-robust, so that row times the full
//          quantification with no early exit; the all-0 row times the
//          early-exit (violation) path. Each speedup is the median ratio
//          of paired, alternating rounds against the reference
//          (bench::measure_ratio).
//   R-CS2: iterated elimination on a 12x12 dominance chain — tensor-
//          copying restrict() loop vs the zero-copy GameView loop
//          (allocation counts straight from the tensor counter).
//
// PR-3 acceptance block:
//   R-BATCH: max_resilience(max_k = n-1) on the 6-player attack game,
//          all-1 profile (resilient through k = 4, first broken by a
//          5-coalition) — the shared-sweep batch probe vs max_k
//          independent probes (target: >= 2x, per-k verdicts bit-
//          identical to the PR-1 reference).
//
// PR-4 acceptance block:
//   R-FRONTIER: the full k x t robustness grid (k = 0..5, t = 0..3) on
//          the 6-player attack game, all-1 profile —
//          batch_robustness_frontier's single size-major sweep vs one
//          independent is_kt_robust probe per cell (target: >= 2x,
//          per-cell verdicts bit-identical).
//
// Serial bench rows additionally report the CI-stable work counters
// (cells_visited / offsets_advanced) that scripts/bench_diff.py gates on.
#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>

#include "bench_json.h"
#include "core/robust/anonymous.h"
#include "core/robust/coalition_sweep.h"
#include "core/robust/robustness.h"
#include "game/catalog.h"
#include "game/game_view.h"
#include "solver/iterated_elimination.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/work_counters.h"

namespace {

using namespace bnash;
// Counters only on serial rows: parallel early exit makes the tallies
// scheduling-dependent.
using bnash::bench::CounterScope;
using bnash::bench::measure_ns;
using bnash::bench::measure_ratio;
using bnash::bench::PairedRatio;
using bnash::bench::ratio_text;

// The seed's reduction loop: one full tensor copy per eliminated action
// (plus the working copy). Baseline for the R-CS2 comparison.
solver::EliminationResult elimination_by_copies(const game::NormalFormGame& game,
                                                solver::DominanceKind kind) {
    solver::EliminationResult result{game, {}, {}};
    result.kept.resize(game.num_players());
    for (std::size_t player = 0; player < game.num_players(); ++player) {
        for (std::size_t a = 0; a < game.num_actions(player); ++a) {
            result.kept[player].push_back(a);
        }
    }
    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t player = 0; player < result.reduced.num_players() && !changed;
             ++player) {
            if (result.reduced.num_actions(player) < 2) continue;
            for (std::size_t action = 0; action < result.reduced.num_actions(player);
                 ++action) {
                if (!solver::is_dominated(result.reduced, player, action, kind)) continue;
                result.trace.push_back(
                    solver::EliminationStep{player, result.kept[player][action]});
                std::vector<std::vector<std::size_t>> local(result.reduced.num_players());
                for (std::size_t i = 0; i < result.reduced.num_players(); ++i) {
                    for (std::size_t a = 0; a < result.reduced.num_actions(i); ++a) {
                        if (i == player && a == action) continue;
                        local[i].push_back(a);
                    }
                }
                result.reduced = game::GameView::restrict(result.reduced, local).materialize();
                result.kept[player].erase(result.kept[player].begin() +
                                          static_cast<std::ptrdiff_t>(action));
                changed = true;
                break;
            }
        }
    }
    return result;
}

// 2-player dominance chain: u_p = -(own action index), so every round
// eliminates one action until a single profile remains.
game::NormalFormGame dominance_chain_game(std::size_t actions) {
    game::NormalFormGame g({actions, actions});
    for (std::uint64_t rank = 0; rank < g.num_profiles(); ++rank) {
        const auto profile = g.profile_unrank(rank);
        for (std::size_t p = 0; p < 2; ++p) {
            g.set_payoff(profile, p, -static_cast<std::int64_t>(profile[p]));
        }
    }
    return g;
}

void print_tables() {
    std::cout << "=== E2: attack game, all-0 profile ===\n";
    util::Table attack({"n", "Nash?", "min breaking coalition", "1-immune?"});
    for (const std::size_t n : {3u, 5u, 8u, 12u, 20u, 35u, 50u}) {
        const auto g = core::AnonymousBinaryGame::attack(n);
        attack.add_row({util::Table::fmt(n), util::Table::fmt(g.all_base_is_nash(0)),
                        util::Table::fmt(g.min_breaking_coalition(0, n)),
                        util::Table::fmt(g.all_base_is_t_immune(0, 1))});
    }
    attack.print(std::cout);
    std::cout << "-> Nash for every n, broken by every pair: 1-resilient only.\n\n";

    std::cout << "=== E3: bargaining game, all-stay profile ===\n";
    util::Table bargaining({"n", "k-resilient for k=n?", "1-immune?"});
    for (const std::size_t n : {3u, 5u, 8u, 12u, 20u, 35u, 50u}) {
        const auto g = core::AnonymousBinaryGame::bargaining(n);
        bargaining.add_row({util::Table::fmt(n),
                            util::Table::fmt(g.all_base_is_k_resilient(0, n)),
                            util::Table::fmt(g.all_base_is_t_immune(0, 1))});
    }
    bargaining.print(std::cout);
    std::cout << "-> resilient at every coalition size yet not 1-immune: the paper's"
                 " 'fragile' equilibrium.\n\n";

    std::cout << "=== (k,t)-robustness frontier on the exact checkers (n = 5) ===\n";
    const auto exact = game::catalog::attack_coordination_game(5);
    const auto all_zero = core::as_exact_profile(exact, game::PureProfile(5, 0));
    util::Table frontier({"k", "t", "(k,t)-robust?"});
    for (std::size_t k = 0; k <= 2; ++k) {
        for (std::size_t t = 0; t <= 2; ++t) {
            if (k == 0 && t == 0) continue;
            frontier.add_row({util::Table::fmt(k), util::Table::fmt(t),
                              util::Table::fmt(core::is_kt_robust(exact, all_zero, k, t))});
        }
    }
    frontier.print(std::cout);
    std::cout << "\n";
}

void print_coalition_sweep_acceptance() {
    std::cout << "=== R-CS1: (k=2,t=1) robustness, 6-player attack game — "
                 "CoalitionSweep vs PR-1 serial checker ===\n";
    const auto g = game::catalog::attack_coordination_game(6);
    const core::RobustnessOptions serial_opts{core::GainCriterion::kAnyMemberGains,
                                              game::SweepMode::kSerial};
    const core::RobustnessOptions parallel_opts{core::GainCriterion::kAnyMemberGains,
                                                game::SweepMode::kAuto};

    util::Table table({"profile", "checker", "ns/op", "speedup"});
    double full_sweep_speedup = 0.0;
    std::string full_sweep_ratio;
    bool verdicts_identical = true;
    for (const std::size_t base : {1u, 0u}) {
        // all-1 completes the full quantification (it IS (2,1)-robust);
        // all-0 exits early at the first immunity violation.
        const auto profile = core::as_exact_profile(g, game::PureProfile(6, base));
        const auto via_reference = core::reference::find_robustness_violation(
            g, profile, 2, 1, core::RobustnessOptions{});
        const auto via_serial = core::find_robustness_violation(g, profile, 2, 1, serial_opts);
        const auto via_parallel =
            core::find_robustness_violation(g, profile, 2, 1, parallel_opts);
        const bool identical = via_reference.has_value() == via_parallel.has_value() &&
                               (!via_reference || *via_reference == *via_parallel) &&
                               via_serial.has_value() == via_parallel.has_value() &&
                               (!via_serial || *via_serial == *via_parallel);
        verdicts_identical = verdicts_identical && identical;

        const auto reference = [&] {
            benchmark::DoNotOptimize(core::reference::find_robustness_violation(
                g, profile, 2, 1, core::RobustnessOptions{}));
        };
        const PairedRatio serial = measure_ratio(reference, [&] {
            benchmark::DoNotOptimize(
                core::find_robustness_violation(g, profile, 2, 1, serial_opts));
        });
        const PairedRatio parallel = measure_ratio(reference, [&] {
            benchmark::DoNotOptimize(
                core::find_robustness_violation(g, profile, 2, 1, parallel_opts));
        });
        const std::string label = base == 1 ? "all-1 (full sweep)" : "all-0 (early exit)";
        table.add_row({label, "PR-1 serial reference",
                       util::Table::fmt(serial.num.median_ns), "1.00x"});
        table.add_row({label, "sweep, serial blocks", util::Table::fmt(serial.den.median_ns),
                       ratio_text(serial)});
        table.add_row({label,
                       "sweep, parallel (" +
                           std::to_string(util::global_pool().size()) + " executors)",
                       util::Table::fmt(parallel.den.median_ns), ratio_text(parallel)});
        if (base == 1) {
            full_sweep_speedup = parallel.median;
            full_sweep_ratio = ratio_text(parallel);
        }
    }
    table.print(std::cout);
    std::cout << "-> verdicts/violations identical across reference, serial, parallel ("
              << (verdicts_identical ? "PASS" : "MISS") << ")\n";
    std::cout << "-> acceptance: parallel sweep >= 3x over PR-1 serial on the full sweep ("
              << full_sweep_ratio << ", "
              << (full_sweep_speedup >= 3.0 ? "PASS" : "MISS") << ")\n\n";
}

// The pre-batch status quo: one full coalition sweep per probed k, each
// re-walking every coalition of size <= k. Baseline for R-BATCH.
std::vector<std::optional<core::RobustnessViolation>> independent_probes(
    const game::NormalFormGame& g, const game::ExactMixedProfile& profile, std::size_t max_k,
    const core::RobustnessOptions& options) {
    std::vector<std::optional<core::RobustnessViolation>> out(max_k);
    for (std::size_t k = 1; k <= max_k; ++k) {
        out[k - 1] = core::find_resilience_violation(g, profile, k, options);
    }
    return out;
}

void print_batch_resilience_acceptance() {
    std::cout << "=== R-BATCH: max_resilience(max_k = 5), 6-player attack game, all-1 — "
                 "shared sweep vs independent probes ===\n";
    const auto g = game::catalog::attack_coordination_game(6);
    const auto all_one = core::as_exact_profile(g, game::PureProfile(6, 1));
    const std::size_t max_k = 5;
    const core::RobustnessOptions serial_opts{core::GainCriterion::kAnyMemberGains,
                                              game::SweepMode::kSerial};
    const core::RobustnessOptions parallel_opts{core::GainCriterion::kAnyMemberGains,
                                                game::SweepMode::kAuto};

    // Per-k bit-identity: the batch's witnesses vs independent probes vs
    // the PR-1 serial reference.
    const auto batch = core::batch_resilience(g, all_one, max_k, serial_opts);
    const auto batch_parallel = core::batch_resilience(g, all_one, max_k, parallel_opts);
    const auto independent = independent_probes(g, all_one, max_k, serial_opts);
    bool identical = batch == batch_parallel;
    for (std::size_t k = 1; k <= max_k; ++k) {
        const auto reference = core::reference::find_robustness_violation(
            g, all_one, k, 0, core::RobustnessOptions{});
        identical = identical && batch.violations[k - 1] == independent[k - 1] &&
                    batch.violations[k - 1] == reference;
    }

    const double independent_ns = measure_ns([&] {
        benchmark::DoNotOptimize(independent_probes(g, all_one, max_k, serial_opts));
    }).median_ns;
    const double batch_ns = measure_ns([&] {
        benchmark::DoNotOptimize(core::batch_resilience(g, all_one, max_k, serial_opts));
    }).median_ns;
    const double independent_parallel_ns = measure_ns([&] {
        benchmark::DoNotOptimize(independent_probes(g, all_one, max_k, parallel_opts));
    }).median_ns;
    const double batch_parallel_ns = measure_ns([&] {
        benchmark::DoNotOptimize(core::batch_resilience(g, all_one, max_k, parallel_opts));
    }).median_ns;
    util::Table table({"probe", "ns/op", "speedup"});
    table.add_row({"independent k = 1..5, serial", util::Table::fmt(independent_ns),
                   "1.00x"});
    table.add_row({"shared sweep, serial", util::Table::fmt(batch_ns),
                   util::Table::fmt(independent_ns / batch_ns, 2) + "x"});
    table.add_row({"independent k = 1..5, parallel",
                   util::Table::fmt(independent_parallel_ns),
                   util::Table::fmt(independent_ns / independent_parallel_ns, 2) + "x"});
    table.add_row({"shared sweep, parallel", util::Table::fmt(batch_parallel_ns),
                   util::Table::fmt(independent_ns / batch_parallel_ns, 2) + "x"});
    table.print(std::cout);
    const double speedup = independent_ns / batch_ns;
    std::cout << "-> max_ok = " << batch.max_ok
              << "; per-k verdicts identical across batch (serial+parallel), independent "
                 "probes, PR-1 reference ("
              << (identical ? "PASS" : "MISS") << ")\n";
    std::cout << "-> acceptance: shared sweep >= 2x over independent probes ("
              << util::Table::fmt(speedup, 2) << "x, " << (speedup >= 2.0 ? "PASS" : "MISS")
              << ")\n\n";
}

// The pre-frontier status quo: one independent full probe per (k, t)
// cell. Baseline for R-FRONTIER.
core::FrontierVerdict independent_frontier(const game::NormalFormGame& g,
                                           const game::ExactMixedProfile& profile,
                                           std::size_t max_k, std::size_t max_t,
                                           const core::RobustnessOptions& options) {
    core::FrontierVerdict out;
    out.max_k = max_k;
    out.max_t = max_t;
    out.cells.assign((max_k + 1) * (max_t + 1), std::nullopt);
    out.cells_resolved = out.cells.size();  // probes resolve every cell
    for (std::size_t k = 0; k <= max_k; ++k) {
        for (std::size_t t = 0; t <= max_t; ++t) {
            out.cells[k * (max_t + 1) + t] =
                core::find_robustness_violation(g, profile, k, t, options);
        }
    }
    return out;
}

void print_frontier_acceptance() {
    std::cout << "=== R-FRONTIER: (k,t) grid k=0..5, t=0..3, 6-player attack game, all-1 — "
                 "batched frontier vs independent probes ===\n";
    const auto g = game::catalog::attack_coordination_game(6);
    const auto all_one = core::as_exact_profile(g, game::PureProfile(6, 1));
    const std::size_t max_k = 5;
    const std::size_t max_t = 3;
    const core::RobustnessOptions serial_opts{core::GainCriterion::kAnyMemberGains,
                                              game::SweepMode::kSerial};
    const core::RobustnessOptions parallel_opts{core::GainCriterion::kAnyMemberGains,
                                                game::SweepMode::kAuto};

    const auto batch = core::batch_robustness_frontier(g, all_one, max_k, max_t, serial_opts);
    const auto batch_parallel =
        core::batch_robustness_frontier(g, all_one, max_k, max_t, parallel_opts);
    const auto independent = independent_frontier(g, all_one, max_k, max_t, serial_opts);
    const bool identical = batch == independent && batch == batch_parallel;

    // The frontier itself: the paper's trade-off between tolerating
    // strategic coalitions (k) and faulty players (t).
    util::Table grid({"k \\ t", "t=0", "t=1", "t=2", "t=3"});
    for (std::size_t k = 0; k <= max_k; ++k) {
        std::vector<std::string> row{"k=" + util::Table::fmt(k)};
        for (std::size_t t = 0; t <= max_t; ++t) {
            row.push_back(batch.robust(k, t) ? "robust" : "broken");
        }
        grid.add_row(row);
    }
    grid.print(std::cout);

    const double independent_ns = measure_ns([&] {
        benchmark::DoNotOptimize(independent_frontier(g, all_one, max_k, max_t, serial_opts));
    }).median_ns;
    const double batch_ns = measure_ns([&] {
        benchmark::DoNotOptimize(
            core::batch_robustness_frontier(g, all_one, max_k, max_t, serial_opts));
    }).median_ns;
    const double batch_parallel_ns = measure_ns([&] {
        benchmark::DoNotOptimize(
            core::batch_robustness_frontier(g, all_one, max_k, max_t, parallel_opts));
    }).median_ns;
    util::Table table({"probe", "ns/op", "speedup"});
    table.add_row({"independent per-cell probes, serial", util::Table::fmt(independent_ns),
                   "1.00x"});
    table.add_row({"batched frontier, serial", util::Table::fmt(batch_ns),
                   util::Table::fmt(independent_ns / batch_ns, 2) + "x"});
    table.add_row({"batched frontier, parallel (" +
                       std::to_string(util::global_pool().size()) + " executors)",
                   util::Table::fmt(batch_parallel_ns),
                   util::Table::fmt(independent_ns / batch_parallel_ns, 2) + "x"});
    table.print(std::cout);
    const double speedup = independent_ns / batch_ns;
    std::cout << "-> per-cell verdicts bit-identical across batch (serial+parallel) and "
                 "independent probes ("
              << (identical ? "PASS" : "MISS") << ")\n";
    std::cout << "-> acceptance: batched frontier >= 2x over independent probes ("
              << util::Table::fmt(speedup, 2) << "x, " << (speedup >= 2.0 ? "PASS" : "MISS")
              << ")\n\n";
}

// Coalition-dominated workload for R-INTRA: few players, many actions,
// payoffs strictly decreasing in OWN action only — so the all-0 profile
// survives every deviation (full sweep, no early exit) and the single
// size-n coalition owns ~3/4 of all joint-deviation cells.
game::NormalFormGame own_action_chain_game(std::size_t players, std::size_t actions) {
    game::NormalFormGame g(std::vector<std::size_t>(players, actions));
    for (std::uint64_t rank = 0; rank < g.num_profiles(); ++rank) {
        const auto profile = g.profile_unrank(rank);
        for (std::size_t p = 0; p < players; ++p) {
            g.set_payoff(profile, p, -static_cast<std::int64_t>(profile[p]));
        }
    }
    return g;
}

void print_intra_block_acceptance() {
    const std::size_t executors = util::global_pool().size();
    std::cout << "=== R-INTRA: k=4 resilience, 4p/12a own-action chain (single size-4 "
                 "coalition owns 73% of the scan) — intra-coalition ranged blocks vs "
                 "single-task serial ===\n";
    const auto g = own_action_chain_game(4, 12);
    const auto all_zero = core::as_exact_profile(g, game::PureProfile(4, 0));
    const core::RobustnessOptions serial_opts{core::GainCriterion::kAnyMemberGains,
                                              game::SweepMode::kSerial};
    const core::RobustnessOptions auto_opts{core::GainCriterion::kAnyMemberGains,
                                            game::SweepMode::kAuto};

    // Verdicts: full-sweep (all-0, robust) and early-exit (all-11, the
    // first task already gains) must be bit-identical across modes; the
    // size-4 coalition's 20736-cell scan splits into ranged blocks in
    // kAuto mode.
    bool identical = true;
    for (const std::size_t base : {0u, 11u}) {
        const auto profile = core::as_exact_profile(g, game::PureProfile(4, base));
        const auto via_serial = core::find_resilience_violation(g, profile, 4, serial_opts);
        const auto via_split = core::find_resilience_violation(g, profile, 4, auto_opts);
        identical = identical && via_serial.has_value() == via_split.has_value() &&
                    (!via_serial || *via_serial == *via_split);
    }

    const double serial_ns = measure_ns([&] {
        benchmark::DoNotOptimize(core::find_resilience_violation(g, all_zero, 4, serial_opts));
    }).median_ns;
    const double split_ns = measure_ns([&] {
        benchmark::DoNotOptimize(core::find_resilience_violation(g, all_zero, 4, auto_opts));
    }).median_ns;

    util::Table table({"sweep", "ns/op", "speedup"});
    table.add_row({"single-task serial", util::Table::fmt(serial_ns), "1.00x"});
    table.add_row({"tasks x ranged blocks (" + std::to_string(executors) + " executors)",
                   util::Table::fmt(split_ns),
                   util::Table::fmt(serial_ns / split_ns, 2) + "x"});
    table.print(std::cout);
    const double speedup = serial_ns / split_ns;
    std::cout << "-> violations bit-identical (serial vs ranged blocks, full sweep + early "
                 "exit): "
              << (identical ? "PASS" : "MISS") << "\n";
    if (executors >= 2) {
        std::cout << "-> acceptance: two-level sweep >= 2x over single-task serial ("
                  << util::Table::fmt(speedup, 2) << "x, "
                  << (speedup >= 2.0 ? "PASS" : "MISS") << ")\n\n";
    } else {
        // One executor: ranged blocks run inline, so parallel speedup is
        // unmeasurable on this host; gate bit-identity + split overhead.
        std::cout << "-> acceptance (1-executor host; >=2x needs >=2 executors): "
                     "ranged-block path bit-identical with <= 30% overhead ("
                  << util::Table::fmt(speedup, 2) << "x, "
                  << (identical && speedup >= 0.77 ? "PASS" : "MISS") << ")\n\n";
    }
}

void print_max_kt_acceptance() {
    std::cout << "=== R-MAXKT: maximal robust set, 7-player attack game, all-1, budget "
                 "(k<=6, t<=4) — boundary walk vs full frontier grid ===\n";
    const auto g = game::catalog::attack_coordination_game(7);
    const auto all_one = core::as_exact_profile(g, game::PureProfile(7, 1));
    const std::size_t max_k = 6;
    const std::size_t max_t = 4;
    const core::RobustnessOptions serial_opts{core::GainCriterion::kAnyMemberGains,
                                              game::SweepMode::kSerial};

    util::work_counters_reset();
    const auto frontier =
        core::batch_robustness_frontier(g, all_one, max_k, max_t, serial_opts);
    const auto frontier_work = util::work_counters_snapshot();
    util::work_counters_reset();
    const auto walk = core::max_kt(g, all_one, max_k, max_t, serial_opts);
    const auto walk_work = util::work_counters_snapshot();
    util::work_counters_reset();

    // Identical maximal robust set: cell-for-cell grid agreement plus
    // Pareto-maximality of every reported point.
    bool identical = true;
    for (std::size_t k = 0; k <= max_k; ++k) {
        for (std::size_t t = 0; t <= max_t; ++t) {
            identical = identical && walk.robust(k, t) == frontier.robust(k, t);
        }
    }
    for (const auto& [k, t] : walk.maximal) {
        identical = identical && frontier.robust(k, t) &&
                    (k == max_k || !frontier.robust(k + 1, t)) &&
                    (t == max_t || !frontier.robust(k, t + 1));
    }

    std::cout << "maximal robust set:";
    for (const auto& [k, t] : walk.maximal) std::cout << " (k=" << k << ",t=" << t << ")";
    std::cout << "\n";
    const std::uint64_t grid_cells = (max_k + 1) * (max_t + 1);
    const double frontier_ns = measure_ns([&] {
        benchmark::DoNotOptimize(
            core::batch_robustness_frontier(g, all_one, max_k, max_t, serial_opts));
    }).median_ns;
    const double walk_ns = measure_ns([&] {
        benchmark::DoNotOptimize(core::max_kt(g, all_one, max_k, max_t, serial_opts));
    }).median_ns;
    util::Table table({"probe", "(k,t) cells resolved", "tensor cells swept", "ns/op"});
    table.add_row({"full frontier grid", util::Table::fmt(grid_cells),
                   util::Table::fmt(frontier_work.cells_visited),
                   util::Table::fmt(frontier_ns)});
    table.add_row({"max_kt boundary walk", util::Table::fmt(walk.cells_resolved),
                   util::Table::fmt(walk_work.cells_visited), util::Table::fmt(walk_ns)});
    table.print(std::cout);
    const double cell_ratio = static_cast<double>(grid_cells) /
                              static_cast<double>(std::max<std::uint64_t>(
                                  walk.cells_resolved, 1));
    std::cout << "-> maximal robust set identical to the frontier grid ("
              << (identical ? "PASS" : "MISS") << ")\n";
    std::cout << "-> acceptance: boundary walk resolves >= 3x fewer (k,t) cells than the "
                 "grid ("
              << util::Table::fmt(cell_ratio, 2) << "x, "
              << (cell_ratio >= 3.0 ? "PASS" : "MISS")
              << "); tensor sweep work at parity with the shared-sweep frontier ("
              << util::Table::fmt(static_cast<double>(frontier_work.cells_visited) /
                                      static_cast<double>(walk_work.cells_visited),
                                  2)
              << "x)\n\n";
}

void print_view_elimination_comparison() {
    std::cout << "=== R-CS2: iterated elimination, 12x12 dominance chain — "
                 "tensor copies vs GameView ===\n";
    const auto g = dominance_chain_game(12);
    const auto kind = solver::DominanceKind::kStrictPure;

    auto before = game::NormalFormGame::tensor_allocations();
    const auto by_copies = elimination_by_copies(g, kind);
    const auto copy_allocs = game::NormalFormGame::tensor_allocations() - before;
    before = game::NormalFormGame::tensor_allocations();
    const auto by_views = solver::iterated_elimination(g, kind);
    const auto view_allocs = game::NormalFormGame::tensor_allocations() - before;

    const double copy_ns = measure_ns([&] {
        benchmark::DoNotOptimize(elimination_by_copies(g, kind));
    }).median_ns;
    const double view_ns = measure_ns([&] {
        benchmark::DoNotOptimize(solver::iterated_elimination(g, kind));
    }).median_ns;
    util::Table table({"implementation", "ns/op", "tensor allocations", "speedup"});
    table.add_row({"restrict() copies (seed loop)", util::Table::fmt(copy_ns),
                   util::Table::fmt(copy_allocs), "1.00x"});
    table.add_row({"GameView loop", util::Table::fmt(view_ns), util::Table::fmt(view_allocs),
                   util::Table::fmt(copy_ns / view_ns, 2) + "x"});
    table.print(std::cout);
    bool equivalent = by_copies.trace == by_views.trace && by_copies.kept == by_views.kept &&
                      by_copies.reduced.action_counts() == by_views.reduced.action_counts();
    if (equivalent) {
        for (std::uint64_t rank = 0; rank < by_views.reduced.num_profiles(); ++rank) {
            for (std::size_t p = 0; p < by_views.reduced.num_players(); ++p) {
                equivalent = equivalent && by_copies.reduced.payoff_at(rank, p) ==
                                               by_views.reduced.payoff_at(rank, p);
            }
        }
    }
    std::cout << "-> both reduce to " << by_views.reduced.num_profiles()
              << " profile(s); traces, kept sets and reduced payoffs identical ("
              << (equivalent ? "PASS" : "MISS")
              << "); view loop allocates only the final materialization\n\n";
}

void bench_exact_resilience(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto k = static_cast<std::size_t>(state.range(1));
    const auto g = game::catalog::attack_coordination_game(n);
    const auto profile = core::as_exact_profile(g, game::PureProfile(n, 0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::is_k_resilient(g, profile, k));
    }
}
BENCHMARK(bench_exact_resilience)
    ->Args({4, 1})
    ->Args({4, 2})
    ->Args({6, 2})
    ->Args({8, 2})
    ->Args({8, 3})
    ->Unit(benchmark::kMillisecond);

void bench_exact_robustness(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto g = game::catalog::bargaining_game(n);
    const auto profile = core::as_exact_profile(g, game::PureProfile(n, 0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::is_kt_robust(g, profile, 1, 1));
    }
}
BENCHMARK(bench_exact_robustness)->DenseRange(3, 8)->Unit(benchmark::kMillisecond);

// The full-sweep (no early exit) robustness check through the sweep
// engine, serial vs parallel blocks: the JSON trajectory rows future PRs
// diff against.
void bench_sweep_full_serial(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto g = game::catalog::attack_coordination_game(n);
    const auto profile = core::as_exact_profile(g, game::PureProfile(n, 1));
    const core::RobustnessOptions options{core::GainCriterion::kAnyMemberGains,
                                          game::SweepMode::kSerial};
    const CounterScope counters(state);
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::find_robustness_violation(g, profile, 2, 1, options));
    }
}
BENCHMARK(bench_sweep_full_serial)->DenseRange(5, 8)->Unit(benchmark::kMicrosecond);

// R-FRONTIER trajectory rows: the batched grid vs per-cell restarts,
// serial blocks (work ratio, no scheduler noise).
void bench_frontier_batch(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto g = game::catalog::attack_coordination_game(n);
    const auto profile = core::as_exact_profile(g, game::PureProfile(n, 1));
    const core::RobustnessOptions options{core::GainCriterion::kAnyMemberGains,
                                          game::SweepMode::kSerial};
    const CounterScope counters(state);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            core::batch_robustness_frontier(g, profile, n - 1, 2, options));
    }
}
BENCHMARK(bench_frontier_batch)->DenseRange(5, 7)->Unit(benchmark::kMicrosecond);

void bench_frontier_independent(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto g = game::catalog::attack_coordination_game(n);
    const auto profile = core::as_exact_profile(g, game::PureProfile(n, 1));
    const core::RobustnessOptions options{core::GainCriterion::kAnyMemberGains,
                                          game::SweepMode::kSerial};
    const CounterScope counters(state);
    for (auto _ : state) {
        benchmark::DoNotOptimize(independent_frontier(g, profile, n - 1, 2, options));
    }
}
BENCHMARK(bench_frontier_independent)->DenseRange(5, 7)->Unit(benchmark::kMicrosecond);

// R-MAXKT trajectory rows: the boundary walk on the same workload as
// bench_frontier_batch (attack all-1, max_k = n-1, max_t = 2), serial
// blocks with CI-gated work counters.
void bench_max_kt(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto g = game::catalog::attack_coordination_game(n);
    const auto profile = core::as_exact_profile(g, game::PureProfile(n, 1));
    const core::RobustnessOptions options{core::GainCriterion::kAnyMemberGains,
                                          game::SweepMode::kSerial};
    const CounterScope counters(state);
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::max_kt(g, profile, n - 1, 2, options));
    }
}
BENCHMARK(bench_max_kt)->DenseRange(5, 7)->Unit(benchmark::kMicrosecond);

// R-INTRA trajectory rows: the coalition-dominated full sweep, serial
// (CI-gated counters) and kAuto, where the size-4 coalition's scan splits
// into ranged blocks.
void bench_intra_dominated_serial(benchmark::State& state) {
    const auto actions = static_cast<std::size_t>(state.range(0));
    const auto g = own_action_chain_game(4, actions);
    const auto profile = core::as_exact_profile(g, game::PureProfile(4, 0));
    const core::RobustnessOptions options{core::GainCriterion::kAnyMemberGains,
                                          game::SweepMode::kSerial};
    const CounterScope counters(state);
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::find_resilience_violation(g, profile, 4, options));
    }
}
BENCHMARK(bench_intra_dominated_serial)->DenseRange(8, 12, 2)->Unit(benchmark::kMicrosecond);

void bench_intra_dominated_split(benchmark::State& state) {
    const auto actions = static_cast<std::size_t>(state.range(0));
    const auto g = own_action_chain_game(4, actions);
    const auto profile = core::as_exact_profile(g, game::PureProfile(4, 0));
    const core::RobustnessOptions options{core::GainCriterion::kAnyMemberGains,
                                          game::SweepMode::kAuto};
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::find_resilience_violation(g, profile, 4, options));
    }
}
BENCHMARK(bench_intra_dominated_split)->DenseRange(8, 12, 2)->Unit(benchmark::kMicrosecond);

void bench_sweep_full_parallel(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto g = game::catalog::attack_coordination_game(n);
    const auto profile = core::as_exact_profile(g, game::PureProfile(n, 1));
    const core::RobustnessOptions options{core::GainCriterion::kAnyMemberGains,
                                          game::SweepMode::kAuto};
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::find_robustness_violation(g, profile, 2, 1, options));
    }
}
BENCHMARK(bench_sweep_full_parallel)->DenseRange(5, 8)->Unit(benchmark::kMicrosecond);

void bench_reference_full_serial(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto g = game::catalog::attack_coordination_game(n);
    const auto profile = core::as_exact_profile(g, game::PureProfile(n, 1));
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::reference::find_robustness_violation(
            g, profile, 2, 1, core::RobustnessOptions{}));
    }
}
BENCHMARK(bench_reference_full_serial)->DenseRange(5, 8)->Unit(benchmark::kMicrosecond);

// R-BATCH trajectory rows: the shared sweep vs per-k restarts, serial
// blocks (work ratio, no scheduler noise).
void bench_batch_resilience(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto g = game::catalog::attack_coordination_game(n);
    const auto profile = core::as_exact_profile(g, game::PureProfile(n, 1));
    const core::RobustnessOptions options{core::GainCriterion::kAnyMemberGains,
                                          game::SweepMode::kSerial};
    const CounterScope counters(state);
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::batch_resilience(g, profile, n - 1, options));
    }
}
BENCHMARK(bench_batch_resilience)->DenseRange(5, 7)->Unit(benchmark::kMicrosecond);

void bench_independent_resilience_probes(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto g = game::catalog::attack_coordination_game(n);
    const auto profile = core::as_exact_profile(g, game::PureProfile(n, 1));
    const core::RobustnessOptions options{core::GainCriterion::kAnyMemberGains,
                                          game::SweepMode::kSerial};
    for (auto _ : state) {
        benchmark::DoNotOptimize(independent_probes(g, profile, n - 1, options));
    }
}
BENCHMARK(bench_independent_resilience_probes)
    ->DenseRange(5, 7)
    ->Unit(benchmark::kMicrosecond);

// View-native robustness on a restricted slice (no materialization) vs
// materialize-then-check: the zero-copy trajectory row. The parent game
// has 3 actions per player; the slice keeps the outer two.
game::NormalFormGame sliced_bench_game(std::size_t n) {
    util::Rng rng{static_cast<std::uint64_t>(n) * 7919};
    return game::NormalFormGame::random(std::vector<std::size_t>(n, 3), rng, -4, 4);
}

void bench_view_native_robustness(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto g = sliced_bench_game(n);
    const auto view = game::GameView::restrict(g, std::vector<std::vector<std::size_t>>(n, {0, 2}));
    const auto profile = core::as_exact_profile(view, game::PureProfile(n, 0));
    const core::RobustnessOptions options{core::GainCriterion::kAnyMemberGains,
                                          game::SweepMode::kSerial};
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::find_robustness_violation(view, profile, 2, 1,
                                                                 options));
    }
}
BENCHMARK(bench_view_native_robustness)->DenseRange(5, 7)->Unit(benchmark::kMicrosecond);

void bench_materialize_then_check(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto g = sliced_bench_game(n);
    const auto view = game::GameView::restrict(g, std::vector<std::vector<std::size_t>>(n, {0, 2}));
    const core::RobustnessOptions options{core::GainCriterion::kAnyMemberGains,
                                          game::SweepMode::kSerial};
    for (auto _ : state) {
        const auto materialized = view.materialize();
        const auto profile = core::as_exact_profile(materialized, game::PureProfile(n, 0));
        benchmark::DoNotOptimize(
            core::find_robustness_violation(materialized, profile, 2, 1, options));
    }
}
BENCHMARK(bench_materialize_then_check)->DenseRange(5, 7)->Unit(benchmark::kMicrosecond);

void bench_punishment_search_parallel(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto g = game::catalog::bargaining_game(n);
    const std::vector<util::Rational> baseline(n, util::Rational{2});
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            core::find_punishment_strategy(g, 1, baseline, game::SweepMode::kAuto));
    }
}
BENCHMARK(bench_punishment_search_parallel)->DenseRange(3, 7)->Unit(benchmark::kMillisecond);

void bench_anonymous_resilience(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto g = core::AnonymousBinaryGame::attack(n);
    for (auto _ : state) {
        benchmark::DoNotOptimize(g.all_base_is_k_resilient(0, n));
    }
}
BENCHMARK(bench_anonymous_resilience)->RangeMultiplier(2)->Range(4, 256);

void bench_punishment_search(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto g = game::catalog::bargaining_game(n);
    const std::vector<util::Rational> baseline(n, util::Rational{2});
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::find_punishment_strategy(g, 1, baseline));
    }
}
BENCHMARK(bench_punishment_search)->DenseRange(3, 7)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    print_tables();
    print_coalition_sweep_acceptance();
    print_batch_resilience_acceptance();
    print_frontier_acceptance();
    print_intra_block_acceptance();
    print_max_kt_acceptance();
    print_view_elimination_comparison();
    bnash::bench::initialize_with_json_output(argc, argv, "BENCH_robustness.json");
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
