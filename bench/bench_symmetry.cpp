// E8: the symmetry-reduction layer — orbit-indexed sweeps vs the dense
// exhaustive-tensor engine.
//
// PR-7 acceptance blocks:
//   R-SYM1: the full (k,t) frontier on the 12-player bargaining game,
//          all-stay profile (resilient at every coalition size, so the
//          dense engine fully quantifies every coalition) — the orbit
//          sweep over the single-class quotient vs the dense
//          CoalitionSweep over the 2^12-profile tensor (target: >= 50x
//          fewer cells_visited, verdict grids bit-identical cell for
//          cell).
//   R-SYM2: the n = 60 anonymous frontier under an ExecutionGrant budget
//          the dense sweep cannot even enter — the dense tensor alone
//          holds 2^60 profiles, twelve orders of magnitude past the
//          grant, while the orbit sweep completes the whole grid inside
//          it.
//   R-SYM3: what the server pays for `frontier 5 2` on a symmetric
//          7-player upload with a two-class pure candidate — detection
//          on a fresh store, the refined group, the quotient and the
//          orbit sweep (core::make_sweep) — against the dense kAuto
//          sweep, in one binary (target: >= 2x), plus the orbit
//          kernel's ns per orbit cell, the executor count and the routed
//          path's kAuto/serial speedup (its pair tasks on the pool).
//
// Serial bench rows report the CI-stable work counters (cells_visited /
// offsets_advanced) that scripts/bench_diff.py gates on.
#include <benchmark/benchmark.h>

#include <cmath>
#include <iostream>

#include "bench_json.h"
#include "core/robust/anonymous.h"
#include "core/robust/orbit_sweep.h"
#include "core/robust/robustness.h"
#include "core/robust/sweep_driver.h"
#include "game/catalog.h"
#include "game/game_view.h"
#include "game/normal_form.h"
#include "game/strategy.h"
#include "game/symmetry.h"
#include "util/execution_grant.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/work_counters.h"

namespace {

using namespace bnash;
using bnash::bench::CounterScope;
using bnash::bench::measure_ns;
using bnash::bench::measure_ratio;

void print_orbit_vs_dense_acceptance() {
    // The bargaining all-stay profile is resilient at EVERY coalition
    // size, so the dense engine must fully quantify sum_{s<=8} C(12,s)
    // = 3797 coalitions; the orbit engine walks 8 coalition orbits.
    std::cout << "=== R-SYM1: (k,t) frontier k=0..8, t=0..3, 12-player bargaining game, "
                 "all-stay — orbit sweep vs dense CoalitionSweep ===\n";
    const auto abg = core::AnonymousBinaryGame::bargaining(12);
    const game::NormalFormGame g = abg.to_normal_form();
    const auto profile = core::as_exact_profile(g, game::PureProfile(12, 0));
    const std::size_t max_k = 8, max_t = 3;
    const core::RobustnessOptions serial_opts{core::GainCriterion::kAnyMemberGains,
                                              game::SweepMode::kSerial};
    const core::OrbitSweep sweep(abg.quotient(), game::SymmetryGroup::single_class(12), {0});

    util::work_counters_reset();
    const auto dense = core::batch_robustness_frontier(g, profile, max_k, max_t, serial_opts);
    const auto dense_work = util::work_counters_snapshot();
    util::work_counters_reset();
    const auto orbit = sweep.batch_robustness_frontier(
        max_k, max_t, core::GainCriterion::kAnyMemberGains, game::SweepMode::kSerial);
    const auto orbit_work = util::work_counters_snapshot();
    util::work_counters_reset();

    bool identical = dense.complete() && orbit.complete();
    for (std::size_t k = 0; k <= max_k; ++k) {
        for (std::size_t t = 0; t <= max_t; ++t) {
            identical = identical && dense.robust(k, t) == orbit.robust(k, t);
        }
    }

    const double dense_ns = measure_ns([&] {
        benchmark::DoNotOptimize(
            core::batch_robustness_frontier(g, profile, max_k, max_t, serial_opts));
    }).median_ns;
    const double orbit_ns = measure_ns([&] {
        benchmark::DoNotOptimize(sweep.batch_robustness_frontier(
            max_k, max_t, core::GainCriterion::kAnyMemberGains, game::SweepMode::kSerial));
    }).median_ns;
    util::Table table({"engine", "cells visited", "offsets advanced", "ns/op"});
    table.add_row({"dense CoalitionSweep", util::Table::fmt(dense_work.cells_visited),
                   util::Table::fmt(dense_work.offsets_advanced), util::Table::fmt(dense_ns)});
    table.add_row({"orbit sweep (1 class)", util::Table::fmt(orbit_work.cells_visited),
                   util::Table::fmt(orbit_work.offsets_advanced), util::Table::fmt(orbit_ns)});
    table.print(std::cout);

    const double cell_ratio = static_cast<double>(dense_work.cells_visited) /
                              static_cast<double>(std::max<std::uint64_t>(
                                  orbit_work.cells_visited, 1));
    std::cout << "-> verdict grids bit-identical cell for cell ("
              << (identical ? "PASS" : "MISS") << ")\n";
    std::cout << "-> acceptance: orbit frontier visits >= 50x fewer cells ("
              << util::Table::fmt(cell_ratio, 1) << "x, "
              << (cell_ratio >= 50.0 ? "PASS" : "MISS") << "); wall-clock "
              << util::Table::fmt(dense_ns / orbit_ns, 1) << "x\n\n";
}

void print_budget_wall_acceptance() {
    std::cout << "=== R-SYM2: n = 60 anonymous frontier (k<=4, t<=2) under a 1M-cell "
                 "grant — past the dense-tensor wall ===\n";
    const std::uint64_t budget = 1'000'000;
    // The dense engine cannot take the FIRST step at this budget: its
    // tensor holds 2^60 profiles before any sweep begins.
    const double dense_tensor_cells = std::pow(2.0, 60);

    util::Table table({"game", "grid complete?", "cells charged", "budget left"});
    bool pass = true;
    for (const bool attack : {true, false}) {
        const auto abg = attack ? core::AnonymousBinaryGame::attack(60)
                                : core::AnonymousBinaryGame::bargaining(60);
        const core::OrbitSweep sweep(abg.quotient(), game::SymmetryGroup::single_class(60),
                                     {0});
        util::ExecutionGrant grant(budget);
        core::FrontierVerdict frontier;
        {
            util::GrantScope scope(&grant);
            frontier = sweep.batch_robustness_frontier(
                4, 2, core::GainCriterion::kAnyMemberGains, game::SweepMode::kSerial);
        }
        const bool complete = frontier.complete() && !grant.expired();
        pass = pass && complete;
        // Closed-form cross-check: the grid must match the anonymous
        // boundary probes cell for cell.
        const std::size_t breaking = abg.min_breaking_coalition(0, 4);
        for (std::size_t k = 0; k <= 4; ++k) {
            for (std::size_t t = 0; t <= 2; ++t) {
                const bool expect_robust = t == 0 && (breaking == 0 || k < breaking);
                pass = pass && frontier.robust(k, t) == expect_robust;
            }
        }
        table.add_row({attack ? "attack(60)" : "bargaining(60)",
                       util::Table::fmt(complete), util::Table::fmt(grant.charged()),
                       util::Table::fmt(budget - grant.charged())});
    }
    table.print(std::cout);
    std::cout << "-> dense tensor alone: 2^60 = " << util::Table::fmt(dense_tensor_cells)
              << " profiles, " << util::Table::fmt(dense_tensor_cells /
                                                   static_cast<double>(budget))
              << "x the whole grant before the first cell is swept\n";
    std::cout << "-> acceptance: both n = 60 grids complete inside the grant, matching the "
                 "closed-form boundaries ("
              << (pass ? "PASS" : "MISS") << ")\n\n";
}

// The 3-action symmetric game lifted from the n-player bargaining game:
// actions 0 and 1 pay a safe 10; action 2 pays 10 plus what leaving gains
// over the all-stay payoff in the catalog game (every action-2 player
// leaving, everyone else staying), minus 1/2. Leaving never gains there,
// so every pure safe candidate is robust and a frontier sweeps its whole
// grid.
game::NormalFormGame lifted_bargaining(std::size_t n) {
    const game::NormalFormGame base = game::catalog::bargaining_game(n);
    game::NormalFormGame lifted(std::vector<std::size_t>(n, 3));
    const game::PureProfile all_stay(n, 0);
    game::PureProfile projected(n, 0);
    for (std::uint64_t rank = 0; rank < lifted.num_profiles(); ++rank) {
        const game::PureProfile profile = lifted.profile_unrank(rank);
        for (std::size_t p = 0; p < n; ++p) projected[p] = profile[p] == 2 ? 1 : 0;
        for (std::size_t p = 0; p < n; ++p) {
            util::Rational value{10};
            if (profile[p] == 2) {
                value += base.payoff(projected, p) - base.payoff(all_stay, p) -
                         util::Rational(1, 2);
            }
            lifted.set_payoff(profile, p, value);
        }
    }
    return lifted;
}

void print_routed_vs_dense_acceptance() {
    std::cout << "=== R-SYM3: frontier k<=5, t<=2 on the lifted 7-player bargaining game, "
                 "two-class pure candidate — routed (detect + quotient + orbit) vs dense "
                 "kAuto ===\n";
    const std::size_t n = 7, max_k = 5, max_t = 2;
    const game::NormalFormGame g = lifted_bargaining(n);
    const game::PureProfile base{0, 0, 0, 0, 1, 1, 1};
    const auto profile = core::as_exact_profile(g, base);
    const core::RobustnessOptions options{core::GainCriterion::kAnyMemberGains,
                                          game::SweepMode::kAuto};
    // Each routed call detects on a fresh store (a clone that shares no
    // memo), as the first request on an upload does.
    const std::vector<std::vector<util::Rational>> levels = [&] {
        std::vector<std::vector<util::Rational>> out;
        for (std::size_t p = 0; p < n; ++p) out.push_back(g.levels(p));
        return out;
    }();
    const auto routed_in = [&](game::SweepMode mode) {
        const game::NormalFormGame upload = g.with_levels(levels);
        const game::SymmetryGroup group =
            game::SymmetryGroup::detect(upload).refined_by(profile);
        return core::make_sweep(upload, profile, &group)
            ->batch_robustness_frontier(max_k, max_t, options.criterion, mode);
    };
    const auto routed = [&] { return routed_in(options.mode); };
    const auto dense = [&] {
        return core::batch_robustness_frontier(g, profile, max_k, max_t, options);
    };

    const game::SymmetryGroup group = game::SymmetryGroup::detect(g).refined_by(profile);
    const core::OrbitSweep orbit(game::build_quotient(g, group), group, {0, 1});
    util::work_counters_reset();
    const core::FrontierVerdict dense_grid = dense();
    const util::WorkCounters dense_work = util::work_counters_snapshot();
    util::work_counters_reset();
    const core::FrontierVerdict orbit_grid = orbit.batch_robustness_frontier(
        max_k, max_t, options.criterion, game::SweepMode::kSerial);
    const util::WorkCounters orbit_work = util::work_counters_snapshot();
    util::work_counters_reset();
    bool identical = dense_grid.complete() && routed() == orbit_grid;
    for (std::size_t k = 0; k <= max_k; ++k) {
        for (std::size_t t = 0; t <= max_t; ++t) {
            identical = identical && dense_grid.robust(k, t) == orbit_grid.robust(k, t);
        }
    }

    const bench::PairedRatio ratio = measure_ratio(
        [&] { benchmark::DoNotOptimize(dense()); }, [&] { benchmark::DoNotOptimize(routed()); });
    const bench::PairedRatio pooled = measure_ratio(
        [&] { benchmark::DoNotOptimize(routed_in(game::SweepMode::kSerial)); },
        [&] { benchmark::DoNotOptimize(routed()); });
    const double orbit_ns = measure_ns([&] {
        benchmark::DoNotOptimize(orbit.batch_robustness_frontier(
            max_k, max_t, options.criterion, game::SweepMode::kSerial));
    }).median_ns;
    const double ns_per_cell =
        orbit_ns / static_cast<double>(std::max<std::uint64_t>(orbit_work.cells_visited, 1));
    util::Table table({"path", "cells visited", "ns/op"});
    table.add_row({"dense CoalitionSweep, kAuto", util::Table::fmt(dense_work.cells_visited),
                   util::Table::fmt(ratio.num.median_ns)});
    table.add_row({"routed: detect + quotient + orbit", util::Table::fmt(orbit_work.cells_visited),
                   util::Table::fmt(ratio.den.median_ns)});
    table.add_row({"orbit sweep alone, serial", util::Table::fmt(orbit_work.cells_visited),
                   util::Table::fmt(orbit_ns)});
    table.print(std::cout);
    std::cout << "-> orbit kernel: " << util::Table::fmt(ns_per_cell, 1)
              << " ns per orbit cell\n";
    std::cout << "-> verdict grids identical cell for cell (" << (identical ? "PASS" : "MISS")
              << ")\n";
    std::cout << "-> acceptance: routed >= 2x faster than dense kAuto ("
              << bench::ratio_text(ratio) << ", "
              << (identical && ratio.median >= 2.0 ? "PASS" : "MISS") << "); "
              << util::global_pool().size() << " executors, routed kAuto/serial speedup "
              << bench::ratio_text(pooled) << "\n\n";
}

// Orbit frontier trajectory rows, serial with CI-gated work counters:
// the per-op work is a pure function of (n, max_k, max_t).
void bench_orbit_frontier_serial(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto abg = core::AnonymousBinaryGame::bargaining(n);
    const core::OrbitSweep sweep(abg.quotient(), game::SymmetryGroup::single_class(n), {0});
    const CounterScope counters(state);
    for (auto _ : state) {
        benchmark::DoNotOptimize(sweep.batch_robustness_frontier(
            4, 2, core::GainCriterion::kAnyMemberGains, game::SweepMode::kSerial));
    }
}
BENCHMARK(bench_orbit_frontier_serial)->Arg(12)->Arg(30)->Arg(60)
    ->Unit(benchmark::kMicrosecond);

// The dense engine on the same 12-player workload: the denominator of
// the R-SYM1 ratio, tracked so the gap itself is diffable across PRs.
void bench_dense_frontier_serial(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto abg = core::AnonymousBinaryGame::bargaining(n);
    const game::NormalFormGame g = abg.to_normal_form();
    const auto profile = core::as_exact_profile(g, game::PureProfile(n, 0));
    const core::RobustnessOptions options{core::GainCriterion::kAnyMemberGains,
                                          game::SweepMode::kSerial};
    const CounterScope counters(state);
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::batch_robustness_frontier(g, profile, 4, 2, options));
    }
}
BENCHMARK(bench_dense_frontier_serial)->Arg(10)->Arg(12)->Unit(benchmark::kMillisecond);

// max_kt boundary walk over orbits, serial gated counters.
void bench_orbit_max_kt_serial(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto abg = core::AnonymousBinaryGame::bargaining(n);
    const core::OrbitSweep sweep(abg.quotient(), game::SymmetryGroup::single_class(n), {0});
    const CounterScope counters(state);
    for (auto _ : state) {
        benchmark::DoNotOptimize(sweep.max_kt(6, 3, core::GainCriterion::kAnyMemberGains,
                                              game::SweepMode::kSerial));
    }
}
BENCHMARK(bench_orbit_max_kt_serial)->Arg(12)->Arg(60)->Unit(benchmark::kMicrosecond);

// The lifted 7-player bargaining game of R-SYM3 with its two-class pure
// candidate, and that candidate's group on the game (detected once).
struct LiftedCandidate final {
    game::NormalFormGame game = lifted_bargaining(7);
    game::ExactMixedProfile profile =
        core::as_exact_profile(game, game::PureProfile{0, 0, 0, 0, 1, 1, 1});
    game::SymmetryGroup detected = game::SymmetryGroup::detect(game);
};

// R-SYM3's orbit frontier on its own in kAuto mode: pair tasks claimed on
// the pool. Wall time only (a pooled sweep's counters are not gated).
void bench_orbit_frontier_auto(benchmark::State& state) {
    const LiftedCandidate lifted;
    const game::SymmetryGroup group = lifted.detected.refined_by(lifted.profile);
    const auto sweep = core::make_sweep(lifted.game, lifted.profile, &group);
    for (auto _ : state) {
        benchmark::DoNotOptimize(sweep->batch_robustness_frontier(
            5, 2, core::GainCriterion::kAnyMemberGains, game::SweepMode::kAuto));
    }
}
BENCHMARK(bench_orbit_frontier_auto)->Unit(benchmark::kMicrosecond);

// What a symmetric request pays before its orbit sweep, once the upload's
// group is known: the refinement by the candidate, the quotient of store
// ranks and the engine's tables (core::make_sweep). Wall time only.
void bench_orbit_setup(benchmark::State& state) {
    const LiftedCandidate lifted;
    for (auto _ : state) {
        const game::SymmetryGroup group = lifted.detected.refined_by(lifted.profile);
        benchmark::DoNotOptimize(core::make_sweep(lifted.game, lifted.profile, &group));
    }
}
BENCHMARK(bench_orbit_setup)->Unit(benchmark::kMicrosecond);

// The routed entry points on a materialized symmetric tensor: detection
// + quotient build + orbit sweep, the cost a caller actually pays.
void bench_routed_frontier(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto abg = core::AnonymousBinaryGame::attack(n);
    const game::NormalFormGame g = abg.to_normal_form();
    const game::GameView view = game::GameView::full(g);
    const game::SymmetryGroup group = game::SymmetryGroup::detect(view);
    const auto profile = core::as_exact_profile(g, game::PureProfile(n, 0));
    const core::RobustnessOptions options{core::GainCriterion::kAnyMemberGains,
                                          game::SweepMode::kSerial};
    const CounterScope counters(state);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            core::batch_robustness_frontier(view, profile, 4, 2, options, &group));
    }
}
BENCHMARK(bench_routed_frontier)->Arg(8)->Arg(10)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
    print_orbit_vs_dense_acceptance();
    print_budget_wall_acceptance();
    print_routed_vs_dense_acceptance();
    bnash::bench::initialize_with_json_output(argc, argv, "BENCH_symmetry.json");
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
