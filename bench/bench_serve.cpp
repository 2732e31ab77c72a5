// E7: the robustness-query server under a mixed workload -- resolve
// throughput, cache-hit cost, p99 tail latency, and the degraded-answer
// rate when requests arrive with starved budgets.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_json.h"
#include "core/robust/robustness.h"
#include "game/catalog.h"
#include "serve/canonical.h"
#include "serve/server.h"
#include "serve/text_front.h"
#include "util/rational.h"
#include "util/rng.h"

namespace {

using namespace bnash;

// 2x2 games that share the column player's prisoner's-dilemma payoffs
// and differ in the row player's preference order over the four cells:
// variant i takes the i-th dense rank vector (the 75 weak orders, in
// lexicographic order). Canonicalization folds any monotone rescaling of
// a pure-candidate game, but never two different orders, so every
// variant keeps its own cache entry.
game::NormalFormGame pd_variant(std::size_t i) {
    std::array<std::int64_t, 4> row{};
    std::size_t found = 0;
    for (unsigned code = 0; code < 256; ++code) {
        unsigned used = 0;
        std::int64_t top = 0;
        for (std::size_t cell = 0; cell < 4; ++cell) {
            row[cell] = (code >> (2 * (3 - cell))) & 3U;
            used |= 1U << row[cell];
            top = std::max(top, row[cell]);
        }
        if (used == (2U << top) - 1 && found++ == i) break;
    }
    game::NormalFormGame g(std::vector<std::size_t>{2, 2});
    g.set_payoffs({0, 0}, {util::Rational(row[0]), util::Rational(3)});
    g.set_payoffs({0, 1}, {util::Rational(row[1]), util::Rational(5)});
    g.set_payoffs({1, 0}, {util::Rational(row[2]), util::Rational(0)});
    g.set_payoffs({1, 1}, {util::Rational(row[3]), util::Rational(1)});
    return g;
}

serve::QueryRequest pd_request(std::size_t variant) {
    serve::QueryRequest request;
    request.game = pd_variant(variant);
    request.profile = core::as_exact_profile(request.game, game::PureProfile(2, 1));
    request.k = 1;
    request.t = 0;
    return request;
}

// A request whose sweep is far larger than its budget: always answered
// kUnknown/degraded, and (degraded answers are never memoized) it stays
// a live sweep on every repeat.
serve::QueryRequest starved_request() {
    serve::QueryRequest request;
    request.game = game::catalog::attack_coordination_game(5);
    request.profile = core::as_exact_profile(request.game, game::PureProfile(5, 1));
    request.k = 2;
    request.t = 1;
    request.budget_cells = 8;
    return request;
}

// Deterministic mixed schedule: for every 4 requests, one fresh game
// (cache miss + full sweep), two repeats of an earlier game (cache
// hits), and one budget-starved query (degraded).
std::vector<serve::QueryRequest> mixed_schedule(std::size_t unique_games) {
    std::vector<serve::QueryRequest> schedule;
    schedule.reserve(unique_games * 4);
    const serve::QueryRequest starved = starved_request();
    for (std::size_t i = 0; i < unique_games; ++i) {
        schedule.push_back(pd_request(i));
        schedule.push_back(pd_request(i));
        schedule.push_back(pd_request(i / 2));
        schedule.push_back(starved);
    }
    return schedule;
}

// One iteration = the whole schedule against a fresh server, so the
// hit/miss/degraded counters are exact per-iteration constants. Tail
// latency is collected per request across all iterations.
void bench_serve_mixed(benchmark::State& state) {
    const auto unique_games = static_cast<std::size_t>(state.range(0));
    const std::vector<serve::QueryRequest> schedule = mixed_schedule(unique_games);
    std::vector<double> latencies_us;
    std::uint64_t requests = 0;
    serve::ServerStats last;
    for (auto _ : state) {
        state.PauseTiming();
        serve::RobustnessServer server;
        state.ResumeTiming();
        for (const serve::QueryRequest& request : schedule) {
            const auto start = std::chrono::steady_clock::now();
            const serve::QueryResponse response = server.query(request);
            const auto elapsed = std::chrono::steady_clock::now() - start;
            benchmark::DoNotOptimize(&response);
            latencies_us.push_back(
                std::chrono::duration<double, std::micro>(elapsed).count());
        }
        requests += schedule.size();
        state.PauseTiming();
        last = server.stats();
        state.ResumeTiming();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(requests));
    std::sort(latencies_us.begin(), latencies_us.end());
    if (!latencies_us.empty()) {
        const std::size_t p99 = (latencies_us.size() * 99) / 100;
        state.counters["p99_latency_us"] =
            benchmark::Counter(latencies_us[std::min(p99, latencies_us.size() - 1)]);
    }
    const double total = static_cast<double>(last.resolved + last.degraded);
    state.counters["degraded_rate"] =
        benchmark::Counter(total > 0 ? static_cast<double>(last.degraded) / total : 0);
    state.counters["cache_hit_rate"] = benchmark::Counter(
        static_cast<double>(last.cache_hits) /
        static_cast<double>(last.cache_hits + last.cache_misses));
}
BENCHMARK(bench_serve_mixed)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);

// Steady-state memoized path: canonicalize + shard lookup, no sweep.
void bench_serve_cache_hit(benchmark::State& state) {
    serve::RobustnessServer server;
    const serve::QueryRequest request = pd_request(0);
    benchmark::DoNotOptimize(server.query(request));  // warm the entry
    for (auto _ : state) {
        const serve::QueryResponse response = server.query(request);
        benchmark::DoNotOptimize(&response);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(bench_serve_cache_hit)->Unit(benchmark::kMicrosecond);

// A bounded memo cycling through more unique queries than it can hold:
// the eviction count per pass is an exact structural constant (single
// shard, LRU order), and the row exposes the recompute cost a capacity
// ceiling trades for its memory bound.
void bench_serve_cache_eviction(benchmark::State& state) {
    const std::size_t unique_games = 8;
    serve::ServerStats last;
    std::uint64_t requests = 0;
    for (auto _ : state) {
        state.PauseTiming();
        serve::RobustnessServer::Options options;
        options.cache_shards = 1;
        options.cache_capacity = 2;
        serve::RobustnessServer server(options);
        state.ResumeTiming();
        for (std::size_t pass = 0; pass < 2; ++pass) {
            for (std::size_t i = 0; i < unique_games; ++i) {
                benchmark::DoNotOptimize(server.query(pd_request(i)));
            }
        }
        requests += unique_games * 2;
        state.PauseTiming();
        last = server.stats();
        state.ResumeTiming();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(requests));
    state.counters["evictions"] =
        benchmark::Counter(static_cast<double>(last.cache_evictions));
    state.counters["cache_hit_rate"] = benchmark::Counter(
        static_cast<double>(last.cache_hits) /
        static_cast<double>(last.cache_hits + last.cache_misses));
}
BENCHMARK(bench_serve_cache_eviction)->Unit(benchmark::kMillisecond);

// The admission path under burst load: a 1-worker server with a short
// queue sheds the overflow with retry-after instead of queueing without
// bound. shed_rate depends on how fast the worker drains, so it is
// reported for observability, not gated.
void bench_serve_submit_burst(benchmark::State& state) {
    const std::size_t burst = 32;
    std::uint64_t submitted = 0;
    std::uint64_t shed = 0;
    const serve::QueryRequest starved = starved_request();
    for (auto _ : state) {
        state.PauseTiming();
        serve::RobustnessServer::Options options;
        options.num_workers = 1;
        options.queue_capacity = 4;
        serve::RobustnessServer server(options);
        std::vector<serve::RobustnessServer::Submission> submissions;
        submissions.reserve(burst);
        state.ResumeTiming();
        for (std::size_t i = 0; i < burst; ++i) {
            submissions.push_back(server.submit(starved));
        }
        for (serve::RobustnessServer::Submission& submission : submissions) {
            const serve::QueryResponse response = submission.result.get();
            if (response.status == serve::QueryStatus::kRejected) ++shed;
        }
        submitted += burst;
        state.PauseTiming();
        state.ResumeTiming();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(submitted));
    state.counters["shed_rate"] = benchmark::Counter(
        submitted > 0 ? static_cast<double>(shed) / static_cast<double>(submitted) : 0);
}
BENCHMARK(bench_serve_submit_burst)->Unit(benchmark::kMillisecond);

// Resumable degradation: a frontier sweep whose grant covers about a
// third of the grid, chained to completion through resume tokens. The
// gated rows pin the resume contract structurally: every retry seeks
// past the cells its predecessors resolved (resumed_cells_skipped and
// cells_visited are exact serial-mode constants), each t-column streams
// exactly once across the whole chain (stream_columns == max_t + 1),
// and every leg but the last degrades (degraded_rate). A regression in
// checkpoint seeking shows up here as cells_visited growth even when
// wall time hides in machine noise.
void bench_serve_resume(benchmark::State& state) {
    serve::FrontierRequest base;
    base.game = game::catalog::attack_coordination_game(5);
    base.profile = core::as_exact_profile(base.game, game::PureProfile(5, 1));
    base.max_k = 2;
    base.max_t = 2;
    base.mode = game::SweepMode::kSerial;

    // One unbudgeted run prices the grid; the chained legs then get a
    // third of that (comfortably above the per-task resume floor).
    std::uint64_t full_cells = 0;
    {
        serve::RobustnessServer probe;
        full_cells = probe.frontier(base).cells_charged;
    }
    serve::FrontierRequest budgeted = base;
    budgeted.budget_cells = std::max<std::uint64_t>(1, full_cells / 3);

    std::uint64_t legs = 0;
    std::uint64_t total_cells = 0;
    std::uint64_t skipped = 0;
    std::uint64_t columns = 0;
    std::uint64_t chains = 0;
    for (auto _ : state) {
        state.PauseTiming();
        serve::RobustnessServer server;
        state.ResumeTiming();
        legs = 0;
        total_cells = 0;
        skipped = 0;
        columns = 0;
        serve::FrontierRequest request = budgeted;
        serve::FrontierResponse response;
        do {
            response = server.frontier(
                request,
                [&](std::size_t, std::size_t, const core::RobustnessViolation*) { ++columns; });
            // A resumed leg seeks past everything its predecessors
            // resolved; that avoided work is what the token buys.
            if (legs > 0) skipped += total_cells;
            total_cells += response.cells_charged;
            request.resume_token = response.resume_token;
            ++legs;
        } while (response.status == serve::QueryStatus::kDegraded && legs < 64);
        ++chains;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(chains));
    state.counters["cells_visited"] = benchmark::Counter(static_cast<double>(total_cells));
    state.counters["resumed_cells_skipped"] = benchmark::Counter(static_cast<double>(skipped));
    state.counters["stream_columns"] = benchmark::Counter(static_cast<double>(columns));
    state.counters["degraded_rate"] = benchmark::Counter(
        legs > 0 ? static_cast<double>(legs - 1) / static_cast<double>(legs) : 0);
}
BENCHMARK(bench_serve_resume)->Unit(benchmark::kMillisecond);

// Canonicalization on its own (a pure candidate: the ordinal path): the
// fixed per-request cost every cached answer still pays. This is the WARM
// row: one game object serves every iteration, so its ordinal ranks are
// built once and every later key reads them (a rank-cache hit, like a
// repeat ask on one upload).
void bench_canonical_key(benchmark::State& state) {
    const auto players = static_cast<std::size_t>(state.range(0));
    const game::NormalFormGame game = game::catalog::attack_coordination_game(players);
    const game::ExactMixedProfile profile =
        core::as_exact_profile(game, game::PureProfile(players, 1));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            serve::canonical_key(game, profile, 2, 1, core::GainCriterion::kAnyMemberGains));
    }
}
BENCHMARK(bench_canonical_key)->Arg(4)->Arg(6)->Unit(benchmark::kMicrosecond);

// The COLD row: every iteration re-assigns the payoffs, as a fresh upload
// does, so every key pays the rank build. The time includes that
// assign_payoffs (one tensor copy plus its double mirror).
void bench_canonical_key_cold(benchmark::State& state) {
    const auto players = static_cast<std::size_t>(state.range(0));
    game::NormalFormGame game = game::catalog::attack_coordination_game(players);
    const std::vector<util::Rational> payoffs = game.payoffs_flat();
    const game::ExactMixedProfile profile =
        core::as_exact_profile(game, game::PureProfile(players, 1));
    for (auto _ : state) {
        game.assign_payoffs(payoffs);
        benchmark::DoNotOptimize(
            serve::canonical_key(game, profile, 2, 1, core::GainCriterion::kAnyMemberGains));
    }
}
BENCHMARK(bench_canonical_key_cold)->Arg(4)->Arg(6)->Unit(benchmark::kMicrosecond);

// The same game with every player mixing half-half: the affine path.
void bench_canonical_key_mixed(benchmark::State& state) {
    const auto players = static_cast<std::size_t>(state.range(0));
    const game::NormalFormGame game = game::catalog::attack_coordination_game(players);
    const game::ExactMixedProfile profile(
        players, {util::Rational(1, 2), util::Rational(1, 2)});
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            serve::canonical_key(game, profile, 2, 1, core::GainCriterion::kAnyMemberGains));
    }
}
BENCHMARK(bench_canonical_key_mixed)->Arg(6)->Unit(benchmark::kMicrosecond);

// The line-protocol upload on its own: `game`, `payoffs` and `profile`
// for an n-player, 3-action game through LineSession::handle_line, the
// parse every uploaded request pays before any game theory. Every other
// player's payoffs are quarters, so half the tokens take the "a/b" form.
void bench_serve_upload(benchmark::State& state) {
    const auto players = static_cast<std::size_t>(state.range(0));
    const game::NormalFormGame shape(std::vector<std::size_t>(players, 3));
    const std::size_t entries = shape.payoffs_flat().size();
    util::Rng rng(15);
    std::string game_line = "game " + std::to_string(players);
    std::string payoffs_line = "payoffs";
    std::string profile_line = "profile";
    for (std::size_t player = 0; player < players; ++player) {
        game_line += " 3";
        profile_line += " 0";
    }
    for (std::size_t i = 0; i < entries; ++i) {
        const std::int64_t den = (i % players) % 2 == 0 ? 1 : 4;
        (payoffs_line += ' ') += util::Rational(rng.next_int(-99, 99), den).to_string();
    }

    serve::RobustnessServer server;
    serve::LineSession session(server);
    std::uint64_t refused = 0;
    const serve::LineSession::LineSink sink = [&refused](const std::string& reply) {
        if (reply != "ok") ++refused;
        return true;
    };
    for (auto _ : state) {
        benchmark::DoNotOptimize(session.handle_line(game_line, sink));
        benchmark::DoNotOptimize(session.handle_line(payoffs_line, sink));
        benchmark::DoNotOptimize(session.handle_line(profile_line, sink));
    }
    if (refused > 0) state.SkipWithError("upload refused");
    state.SetBytesProcessed(static_cast<std::int64_t>(
        state.iterations() * (game_line.size() + payoffs_line.size() + profile_line.size())));
}
BENCHMARK(bench_serve_upload)->Arg(6)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
    bnash::bench::initialize_with_json_output(argc, argv, "BENCH_serve.json");
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
