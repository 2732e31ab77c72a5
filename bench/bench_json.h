// Shared helpers for the bench binaries:
//   - initialize_with_json_output: injects --benchmark_out=<path> (JSON)
//     into the google-benchmark flags unless the caller already chose an
//     output, so every bench binary drops a BENCH_<name>.json next to the
//     working directory and future PRs can track the perf trajectory.
//   - measure_ns: the acceptance tables' timing harness — ONE definition
//     so speedup numbers stay comparable across bench binaries. It
//     reports the median and quartiles of kTimingSamples repetitions,
//     and ratio_text prints a ratio of two with its quartile range.
//   - CounterScope: attaches the work-counter deltas of a timing loop to
//     the JSON row — ONE definition so the gated cells_visited /
//     offsets_advanced metrics stay comparable across bench binaries.
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
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

// Calls per repetition double until one repetition takes >= 5 ms (or
// 2^22 calls); then kTimingSamples repetitions of that many calls each
// give one ns/op sample apiece. A median over repetitions, unlike the
// mean of one window, does not move with a burst of host load.
template <typename Fn>
Timing measure_ns(Fn&& fn) {
    using clock = std::chrono::steady_clock;
    const auto run = [&](std::size_t reps) {
        const auto start = clock::now();
        for (std::size_t r = 0; r < reps; ++r) fn();
        return static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - start).count());
    };
    fn();  // warm-up
    std::size_t reps = 1;
    while (run(reps) < 5'000'000.0 && reps < (std::size_t{1} << 22)) reps *= 2;
    std::vector<double> samples(kTimingSamples);
    for (double& sample : samples) sample = run(reps) / static_cast<double>(reps);
    std::sort(samples.begin(), samples.end());
    return {samples[kTimingSamples / 2], samples[kTimingSamples / 4],
            samples[3 * kTimingSamples / 4]};
}

// "<median ratio>x (IQR <low>-<high>x)" for num / den, the range being
// the widest the two quartile ranges allow.
inline std::string ratio_text(const Timing& num, const Timing& den) {
    using util::Table;
    return Table::fmt(num.median_ns / den.median_ns, 2) + "x (IQR " +
           Table::fmt(num.q1_ns / den.q3_ns, 2) + "-" + Table::fmt(num.q3_ns / den.q1_ns, 2) +
           "x)";
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
