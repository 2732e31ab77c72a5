// Shared helpers for the bench binaries:
//   - initialize_with_json_output: injects --benchmark_out=<path> (JSON)
//     into the google-benchmark flags unless the caller already chose an
//     output, so every bench binary drops a BENCH_<name>.json next to the
//     working directory and future PRs can track the perf trajectory.
//   - measure_ns / measure_ratio: the acceptance tables' timing harness —
//     ONE definition so speedup numbers stay comparable across bench
//     binaries. measure_ns reports the median and quartiles of
//     kTimingSamples repetitions; measure_ratio times two calls in paired,
//     alternating rounds and reports the median per-round ratio, which
//     ratio_text prints with its quartile range.
//   - CounterScope: attaches the work-counter deltas of a timing loop to
//     the JSON row — ONE definition so the gated cells_visited /
//     offsets_advanced metrics stay comparable across bench binaries.
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "util/table.h"
#include "util/work_counters.h"

namespace bnash::bench {

// Records util::work_counters deltas over the enclosing scope into the
// benchmark's JSON counters (per-iteration averages). Attach only to
// rows whose per-op work is deterministic — serial sweeps, or parallel
// sweeps without early exit — so the counters are CI-gateable.
class CounterScope final {
public:
    explicit CounterScope(benchmark::State& state)
        : state_(state), before_(util::work_counters_snapshot()) {}
    ~CounterScope() {
        const auto after = util::work_counters_snapshot();
        state_.counters["cells_visited"] = benchmark::Counter(
            static_cast<double>(after.cells_visited - before_.cells_visited),
            benchmark::Counter::kAvgIterations);
        state_.counters["offsets_advanced"] = benchmark::Counter(
            static_cast<double>(after.offsets_advanced - before_.offsets_advanced),
            benchmark::Counter::kAvgIterations);
    }
    CounterScope(const CounterScope&) = delete;
    CounterScope& operator=(const CounterScope&) = delete;

private:
    benchmark::State& state_;
    util::WorkCounters before_;
};

// Wall-clock ns/op over repetitions: the median and the quartiles.
struct Timing final {
    double median_ns = 0.0;
    double q1_ns = 0.0;
    double q3_ns = 0.0;
};

inline constexpr std::size_t kTimingSamples = 21;

// {median, first quartile, third quartile} of kTimingSamples samples.
inline std::array<double, 3> quartiles(std::vector<double> samples) {
    std::sort(samples.begin(), samples.end());
    return {samples[kTimingSamples / 2], samples[kTimingSamples / 4],
            samples[3 * kTimingSamples / 4]};
}

// Wall-clock ns of `reps` back-to-back calls.
template <typename Fn>
double run_ns(Fn& fn, std::size_t reps) {
    using clock = std::chrono::steady_clock;
    const auto start = clock::now();
    for (std::size_t r = 0; r < reps; ++r) fn();
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - start).count());
}

inline constexpr double kRepetitionNs = 5'000'000.0;
inline constexpr std::size_t kMaxCalls = std::size_t{1} << 22;

// Calls per repetition double until one repetition takes >= 5 ms (or
// 2^22 calls, calibrate_calls); then kTimingSamples repetitions of that
// many calls each give one ns/op sample apiece. A median over
// repetitions, unlike the mean of one window, does not move with a burst
// of host load.
template <typename Fn>
std::size_t calibrate_calls(Fn& fn) {
    fn();  // warm-up
    std::size_t reps = 1;
    while (run_ns(fn, reps) < kRepetitionNs && reps < kMaxCalls) reps *= 2;
    return reps;
}

template <typename Fn>
Timing measure_ns(Fn&& fn) {
    const std::size_t reps = calibrate_calls(fn);
    std::vector<double> samples(kTimingSamples);
    for (double& sample : samples) sample = run_ns(fn, reps) / static_cast<double>(reps);
    const auto [median, q1, q3] = quartiles(std::move(samples));
    return {median, q1, q3};
}

// num / den from paired rounds: the median and quartiles of the per-round
// ratios, and each side's ns/op.
struct PairedRatio final {
    Timing num;
    Timing den;
    double median = 0.0;
    double q1 = 0.0;
    double q3 = 0.0;
};

// Each side gets its own call count, calibrated until one repetition
// takes >= 5 ms (or 2^22 calls), so a slow side is not run ratio-times
// longer than needed; then kTimingSamples rounds each time one
// repetition of num and one of den, in alternating order. A burst of
// host load then lands inside one round, on both sides of its ratio,
// instead of on one side's whole measurement.
template <typename Num, typename Den>
PairedRatio measure_ratio(Num&& num, Den&& den) {
    const std::size_t num_reps = calibrate_calls(num);
    const std::size_t den_reps = calibrate_calls(den);
    std::vector<double> num_ns(kTimingSamples);
    std::vector<double> den_ns(kTimingSamples);
    std::vector<double> ratios(kTimingSamples);
    for (std::size_t round = 0; round < kTimingSamples; ++round) {
        if (round % 2 == 0) num_ns[round] = run_ns(num, num_reps);
        den_ns[round] = run_ns(den, den_reps) / static_cast<double>(den_reps);
        if (round % 2 == 1) num_ns[round] = run_ns(num, num_reps);
        num_ns[round] /= static_cast<double>(num_reps);
        ratios[round] = num_ns[round] / den_ns[round];
    }
    const auto [num_median, num_q1, num_q3] = quartiles(std::move(num_ns));
    const auto [den_median, den_q1, den_q3] = quartiles(std::move(den_ns));
    const auto [median, q1, q3] = quartiles(std::move(ratios));
    return {{num_median, num_q1, num_q3}, {den_median, den_q1, den_q3}, median, q1, q3};
}

// "<median ratio>x (IQR <q1>-<q3>x)" over the paired rounds.
inline std::string ratio_text(const PairedRatio& ratio) {
    using util::Table;
    return Table::fmt(ratio.median, 2) + "x (IQR " + Table::fmt(ratio.q1, 2) + "-" +
           Table::fmt(ratio.q3, 2) + "x)";
}

inline void initialize_with_json_output(int argc, char** argv, const char* default_path) {
    bool has_out = false;
    for (int i = 0; i < argc; ++i) {
        // Exact flag only: --benchmark_out_format alone must not suppress
        // the injected JSON output path.
        if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0 ||
            std::strcmp(argv[i], "--benchmark_out") == 0) {
            has_out = true;
        }
    }
    static std::vector<std::string> storage;
    storage.assign(argv, argv + argc);
    if (!has_out) {
        storage.push_back(std::string("--benchmark_out=") + default_path);
        storage.push_back("--benchmark_out_format=json");
    }
    static std::vector<char*> args;
    args.clear();
    for (auto& arg : storage) args.push_back(arg.data());
    int injected_argc = static_cast<int>(args.size());
    benchmark::Initialize(&injected_argc, args.data());
}

}  // namespace bnash::bench
