// Perf acceptance for the stride-indexed payoff engine.
//
//   E-PE1: all-player deviation payoffs on a 4-player 6-action random
//          game — single-sweep engine vs the seed's naive per-(player,
//          action) full-tensor loop (target: >= 5x).
//   E-PE2: blocked sweep on a >= 10^6-profile tensor — threaded (global
//          pool) vs forced-serial execution of the same blocks.
//   PE-SPARSE: deviation payoffs on a 6-player 8-action game — a
//          support-2 profile, which walks only its support, vs an
//          interior profile, which walks every cell (target: >= 3x).
// Each speedup is the median ratio of paired, alternating rounds
// (bench::measure_ratio), so both sides of it see the same host load.
//
// Benchmark rows additionally report the CI-stable work counters
// (cells_visited / offsets_advanced): the payoff sweeps have no early
// exit, so the counters are deterministic in every mode and
// scripts/bench_diff.py gates on them instead of wall time.
#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>

#include "bench_json.h"
#include "game/payoff_engine.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/work_counters.h"

namespace {

using namespace bnash;

game::MixedProfile interior_profile(const game::NormalFormGame& g, util::Rng& rng) {
    game::MixedProfile profile(g.num_players());
    for (std::size_t i = 0; i < g.num_players(); ++i) {
        game::MixedStrategy s(g.num_actions(i));
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

using bnash::bench::CounterScope;
using bnash::bench::measure_ratio;
using bnash::bench::PairedRatio;
using bnash::bench::ratio_text;

// Support-2 mixed profile (mass on two random actions per player).
game::MixedProfile support2_profile(const game::NormalFormGame& g, util::Rng& rng) {
    game::MixedProfile profile(g.num_players());
    for (std::size_t i = 0; i < g.num_players(); ++i) {
        game::MixedStrategy s(g.num_actions(i), 0.0);
        const std::size_t first = rng.next_below(g.num_actions(i));
        std::size_t second = rng.next_below(g.num_actions(i) - 1);
        if (second >= first) ++second;
        const double p = 0.25 + rng.next_double() * 0.5;
        s[first] = p;
        s[second] = 1.0 - p;
        profile[i] = std::move(s);
    }
    return profile;
}

void print_tables() {
    std::cout << "=== E-PE1: deviation payoffs, 4 players x 6 actions (1296 profiles) ===\n";
    util::Rng rng{42};
    const auto small = game::NormalFormGame::random({6, 6, 6, 6}, rng);
    const auto small_profile = interior_profile(small, rng);
    const game::GameView small_view(small);

    const PairedRatio pe1_ratio = measure_ratio(
        [&] {
            benchmark::DoNotOptimize(game::naive::deviation_payoffs_all(small, small_profile));
        },
        [&] { benchmark::DoNotOptimize(game::deviation_payoffs_all(small_view, small_profile)); });

    util::Table pe1({"implementation", "ns/op", "speedup"});
    pe1.add_row({"naive per-action sweeps", util::Table::fmt(pe1_ratio.num.median_ns), "1.00x"});
    pe1.add_row({"engine single sweep", util::Table::fmt(pe1_ratio.den.median_ns),
                 ratio_text(pe1_ratio)});
    pe1.print(std::cout);
    std::cout << "-> acceptance: engine >= 5x over naive (" << ratio_text(pe1_ratio) << ", "
              << (pe1_ratio.median >= 5.0 ? "PASS" : "MISS") << ")\n\n";

    std::cout << "=== E-PE2: blocked sweep, 4 players x 32 actions (2^20 profiles) ===\n";
    const auto big = game::NormalFormGame::random({32, 32, 32, 32}, rng);
    const auto big_profile = interior_profile(big, rng);
    const game::GameView big_view(big);
    const PairedRatio pe2_ratio = measure_ratio(
        [&] {
            benchmark::DoNotOptimize(
                game::deviation_payoffs_all(big_view, big_profile, game::SweepMode::kSerial));
        },
        [&] {
            benchmark::DoNotOptimize(
                game::deviation_payoffs_all(big_view, big_profile, game::SweepMode::kAuto));
        });
    util::Table pe2({"mode", "ns/op", "speedup"});
    pe2.add_row({"serial blocks", util::Table::fmt(pe2_ratio.num.median_ns), "1.00x"});
    pe2.add_row({"threaded blocks (" + std::to_string(util::global_pool().size()) +
                     " executors)",
                 util::Table::fmt(pe2_ratio.den.median_ns), ratio_text(pe2_ratio)});
    pe2.print(std::cout);
    std::cout << "-> threaded and serial sweeps are bit-identical by construction "
                 "(fixed block decomposition, ordered merge)\n\n";

    std::cout << "=== PE-SPARSE: deviation payoffs, 6 players x 8 actions (262144 "
                 "profiles), support-2 vs interior profile ===\n";
    const auto wide = game::NormalFormGame::random({8, 8, 8, 8, 8, 8}, rng);
    const auto sparse_profile = support2_profile(wide, rng);
    const auto full_profile = interior_profile(wide, rng);
    const game::GameView wide_view(wide);

    // Per-op work tallies (single calls, outside the timing loops).
    const auto cells_of = [&](const game::MixedProfile& profile) {
        util::work_counters_reset();
        benchmark::DoNotOptimize(
            game::deviation_payoffs_all(wide_view, profile, game::SweepMode::kSerial));
        const auto work = util::work_counters_snapshot();
        util::work_counters_reset();
        return static_cast<double>(work.cells_visited);
    };
    const double full_cells = cells_of(full_profile);
    const double sparse_cells = cells_of(sparse_profile);
    const auto sweep_of = [&](const game::MixedProfile& profile) {
        return [&] {
            benchmark::DoNotOptimize(
                game::deviation_payoffs_all(wide_view, profile, game::SweepMode::kSerial));
        };
    };
    const PairedRatio pes_ratio = measure_ratio(sweep_of(full_profile), sweep_of(sparse_profile));
    util::Table pes({"profile", "ns/op", "cells", "speedup"});
    pes.add_row({"interior (every cell)", util::Table::fmt(pes_ratio.num.median_ns),
                 util::Table::fmt(full_cells, 0), "1.00x"});
    pes.add_row({"support 2 (support only)", util::Table::fmt(pes_ratio.den.median_ns),
                 util::Table::fmt(sparse_cells, 0), ratio_text(pes_ratio)});
    pes.print(std::cout);
    std::cout << "-> acceptance: support-2 >= 3x over interior (" << ratio_text(pes_ratio)
              << ", " << (pes_ratio.median >= 3.0 ? "PASS" : "MISS")
              << "); cells ratio "
              << util::Table::fmt(full_cells / (sparse_cells == 0.0 ? 1.0 : sparse_cells), 0)
              << "x\n\n";
}

void bench_deviation_naive_4p6a(benchmark::State& state) {
    util::Rng rng{42};
    const auto g = game::NormalFormGame::random({6, 6, 6, 6}, rng);
    const auto profile = interior_profile(g, rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(game::naive::deviation_payoffs_all(g, profile));
    }
}
BENCHMARK(bench_deviation_naive_4p6a)->Unit(benchmark::kMicrosecond);

void bench_deviation_engine_4p6a(benchmark::State& state) {
    util::Rng rng{42};
    const auto g = game::NormalFormGame::random({6, 6, 6, 6}, rng);
    const auto profile = interior_profile(g, rng);
    const game::GameView view(g);
    const CounterScope counters(state);
    for (auto _ : state) {
        benchmark::DoNotOptimize(game::deviation_payoffs_all(view, profile));
    }
}
BENCHMARK(bench_deviation_engine_4p6a)->Unit(benchmark::kMicrosecond);

// PE-SPARSE trajectory rows on one support-2 profile (serial blocks; the
// counters are the gated metric). Every sweep walks only the profile's
// support.
void bench_deviation_sparse_6p8a_support2(benchmark::State& state) {
    util::Rng rng{42};
    const auto g = game::NormalFormGame::random({8, 8, 8, 8, 8, 8}, rng);
    const auto profile = support2_profile(g, rng);
    const game::GameView view(g);
    const CounterScope counters(state);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            game::deviation_payoffs_all(view, profile, game::SweepMode::kSerial));
    }
}
BENCHMARK(bench_deviation_sparse_6p8a_support2)->Unit(benchmark::kMicrosecond);

void bench_expected_sparse_6p8a_support2(benchmark::State& state) {
    util::Rng rng{42};
    const auto g = game::NormalFormGame::random({8, 8, 8, 8, 8, 8}, rng);
    const auto profile = support2_profile(g, rng);
    const game::GameView view(g);
    const CounterScope counters(state);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            game::expected_payoffs(view, profile, game::SweepMode::kSerial));
    }
}
BENCHMARK(bench_expected_sparse_6p8a_support2)->Unit(benchmark::kMicrosecond);

void bench_deviation_engine_exact_3p4a(benchmark::State& state) {
    util::Rng rng{42};
    const auto g = game::NormalFormGame::random({4, 4, 4}, rng);
    game::ExactMixedProfile profile(g.num_players());
    for (std::size_t i = 0; i < g.num_players(); ++i) {
        profile[i].assign(g.num_actions(i), util::Rational{1, 4});
    }
    const game::GameView view(g);
    for (auto _ : state) {
        benchmark::DoNotOptimize(game::deviation_payoffs_all_exact(view, profile));
    }
}
BENCHMARK(bench_deviation_engine_exact_3p4a)->Unit(benchmark::kMicrosecond);

void bench_sweep_serial_1m(benchmark::State& state) {
    util::Rng rng{42};
    const auto g = game::NormalFormGame::random({32, 32, 32, 32}, rng);
    const auto profile = interior_profile(g, rng);
    const game::GameView view(g);
    const CounterScope counters(state);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            game::deviation_payoffs_all(view, profile, game::SweepMode::kSerial));
    }
}
BENCHMARK(bench_sweep_serial_1m)->Unit(benchmark::kMillisecond);

void bench_sweep_threaded_1m(benchmark::State& state) {
    util::Rng rng{42};
    const auto g = game::NormalFormGame::random({32, 32, 32, 32}, rng);
    const auto profile = interior_profile(g, rng);
    const game::GameView view(g);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            game::deviation_payoffs_all(view, profile, game::SweepMode::kAuto));
    }
}
BENCHMARK(bench_sweep_threaded_1m)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    print_tables();
    bnash::bench::initialize_with_json_output(argc, argv, "BENCH_payoff_engine.json");
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
