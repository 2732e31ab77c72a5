// Serving benchmark driver: seeded closed-loop traffic through the line
// protocol's front door (serve::LineSession::handle_line on one
// serve::RobustnessServer), the same per-connection session the socket
// front runs, minus the loopback syscalls.
//
//   servebench_driver --workload <hot_repeat|cold_ask|frontier_session>
//                     --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// --trace 0 measures the end-to-end metrics: set-up time, request latency
// (p50, p99), throughput, time to the first reply line, resume legs per
// verdict, and peak RSS. --trace 1 runs a shorter timed phase for the
// server's own counters, then one serial traced session over a fixed
// prefix of the stream that re-issues each request's layer calls on the
// same inputs and times them from outside; the spans are kept in memory
// and written to --trace-out at exit.
//
// Every reply is checked (outside the timed region) against the verdict
// the generator planted and against an unbudgeted direct core:: call. The
// last stdout line is one JSON object; the exit code is 0 only when every
// reply was correct.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/robust/coalition_sweep.h"
#include "game/game_view.h"
#include "game/symmetry.h"
#include "serve/canonical.h"
#include "serve/server.h"
#include "serve/text_front.h"
#include "serve/verdict_cache.h"
#include "traffic.h"
#include "util/execution_grant.h"
#include "util/thread_pool.h"
#include "util/work_counters.h"

namespace {

using namespace bnash;
using servebench::Grid;
using servebench::Request;
using servebench::Traffic;
using servebench::Workload;
using Clock = std::chrono::steady_clock;

[[nodiscard]] double ns_since(Clock::time_point start, Clock::time_point end) {
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count());
}

// A chain that makes no progress doubles its budget; past this many legs
// the request counts as failed.
constexpr std::size_t kMaxLegs = 64;
constexpr std::size_t kHashedRequests = 256;

struct Config final {
    std::size_t sessions = 1;
    std::size_t pool_executors = 1;
    // Requests generated, served and checked at a time: whole cycles of
    // the traffic mix, so every slice of the timed phase sees the mix.
    std::size_t batch = 64;
    std::size_t rss_after = 1000;      // peak RSS is read once this many requests are done
    std::size_t trace_requests = 64;   // fixed stream prefix the traced session replays
};

[[nodiscard]] std::size_t host_cpus() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        return std::max(1, CPU_COUNT(&set));
    }
    return std::max(1U, std::thread::hardware_concurrency());
}

// Sessions plus pool workers stay within the host's CPUs.
[[nodiscard]] Config config_for(Workload workload, std::size_t cpus) {
    Config config;
    switch (workload) {
        case Workload::kHotRepeat:
            config.sessions = std::min<std::size_t>(4, cpus);
            config.batch = 4096;
            config.rss_after = 20000;
            config.trace_requests = 4096;
            break;
        case Workload::kColdAsk:
            config.sessions = std::min<std::size_t>(2, cpus);
            config.batch = Traffic::kColdCycle;
            config.rss_after = 1024;
            config.trace_requests = 192;
            break;
        case Workload::kFrontierSession:
            config.sessions = 1;  // a session owns its game across its frontiers
            config.batch = Traffic::kFrontierCycleGames * Traffic::kFrontiersPerGame;
            config.rss_after = 512;
            config.trace_requests = 12 * Traffic::kFrontiersPerGame;
            break;
    }
    config.pool_executors = std::max<std::size_t>(1, cpus + 1 - config.sessions);
    return config;
}

[[nodiscard]] double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// What one request looked like from the client's side.
struct Outcome final {
    double latency_ns = 0;
    double first_reply_ns = 0;  // query line sent -> first reply line
    double upload_ns = 0;
    std::size_t upload_bytes = 0;
    std::size_t legs = 0;
    std::size_t missed_legs = 0;  // legs answered cache=miss
    Grid observed;                // the verdicts the replies implied
    std::string error;            // protocol failure, if any
};

[[nodiscard]] std::string field(const std::string& line, const std::string& name) {
    const std::string tag = name + "=";
    std::size_t at = line.find(tag);
    while (at != std::string::npos && at > 0 && line[at - 1] != ' ') at = line.find(tag, at + 1);
    if (at == std::string::npos) return {};
    const std::size_t from = at + tag.size();
    return line.substr(from, line.find(' ', from) - from);
}

[[nodiscard]] core::CellVerdict verdict_of(const std::string& text) {
    if (text == "robust") return core::CellVerdict::kRobust;
    if (text == "broken") return core::CellVerdict::kBroken;
    return core::CellVerdict::kUnknown;
}

// One client connection: a LineSession plus the reply capture. The sink
// records the arrival time of the first line of each command's reply.
class Client final {
public:
    explicit Client(serve::RobustnessServer& server)
        : session_(server), sink_([this](const std::string& line) {
              if (replies_.empty()) first_line_at_ = Clock::now();
              replies_.push_back(line);
              return true;
          }) {}

    Client(const Client&) = delete;
    Client& operator=(const Client&) = delete;

    Outcome run(const Request& request) {
        Outcome out;
        const Clock::time_point start = Clock::now();
        for (const std::string* line : upload_lines(request)) {
            out.upload_bytes += line->size() + 1;
            if (!send_ok(*line, out)) return out;
        }
        out.upload_ns = ns_since(start, Clock::now());
        out.observed = request.frontier ? frontier(request, out) : ask(request, out);
        out.latency_ns = ns_since(start, Clock::now());
        return out;
    }

private:
    [[nodiscard]] static std::vector<const std::string*> upload_lines(const Request& request) {
        std::vector<const std::string*> lines;
        if (request.send_game) {
            for (const std::string& line : request.game->lines) lines.push_back(&line);
        }
        for (const std::string& line : request.candidate->lines) lines.push_back(&line);
        return lines;
    }

    void send(const std::string& line) {
        replies_.clear();
        (void)session_.handle_line(line, sink_);
    }

    bool send_ok(const std::string& line, Outcome& out) {
        send(line);
        if (replies_.size() == 1 && replies_[0] == "ok") return true;
        out.error = "upload refused: " + (replies_.empty() ? std::string("no reply") : replies_[0]);
        return false;
    }

    Grid ask(const Request& request, Outcome& out) {
        std::uint64_t budget = request.budget;
        std::string token;
        std::string previous;
        while (out.legs < kMaxLegs) {
            if (!token.empty() && !send_ok("resume " + token, out)) return {};
            const std::string line = request.query_line(budget);
            const Clock::time_point sent = Clock::now();
            send(line);
            if (out.legs++ == 0) out.first_reply_ns = ns_since(sent, first_line_at_);
            if (replies_.size() != 1) {
                out.error = "ask: expected one reply line";
                return {};
            }
            const std::string& reply = replies_[0];
            if (field(reply, "cache") == "miss") ++out.missed_legs;
            const std::string status = field(reply, "status");
            if (status == "resolved") return servebench::ask_grid(verdict_of(field(reply, "verdict")));
            if (status != "degraded") {
                out.error = "ask: " + reply;
                return {};
            }
            previous = std::exchange(token, field(reply, "token"));
            // The progress floor: a leg that hands back the same token
            // made no progress, so the next leg gets twice the budget.
            if (token == previous) budget *= 2;
        }
        out.error = "ask: resume chain did not resolve";
        return {};
    }

    Grid frontier(const Request& request, Outcome& out) {
        const Clock::time_point sent = Clock::now();
        send(request.query_line(0));
        out.legs = 1;
        ++out.missed_legs;
        if (!replies_.empty()) out.first_reply_ns = ns_since(sent, first_line_at_);
        std::vector<std::optional<std::size_t>> breaking(request.t + 1);
        for (std::size_t i = 0; i + 1 < replies_.size(); ++i) {
            unsigned long t = 0;
            unsigned long k = 0;
            if (std::sscanf(replies_[i].c_str(), "col %lu %lu", &t, &k) != 2 || t > request.t) {
                out.error = "frontier: bad column line '" + replies_[i] + "'";
                return {};
            }
            breaking[t] = k;
        }
        if (replies_.empty() || replies_.back().rfind("done ", 0) != 0) {
            out.error = "frontier: " + (replies_.empty() ? std::string("no reply") : replies_.back());
            return {};
        }
        return servebench::frontier_grid(request.k, request.t, breaking);
    }

    serve::LineSession session_;
    serve::LineSession::LineSink sink_;
    std::vector<std::string> replies_;
    Clock::time_point first_line_at_{};
};

// Serves `requests` closed-loop from `sessions` clients pulling off one
// shared index; returns the batch's wall time.
double serve_batch(std::vector<std::unique_ptr<Client>>& clients,
                   const std::vector<Request>& requests, std::vector<Outcome>& outcomes) {
    outcomes.assign(requests.size(), Outcome{});
    std::atomic<std::size_t> next{0};
    const Clock::time_point start = Clock::now();
    {
        std::vector<std::jthread> threads;
        for (std::size_t s = 1; s < clients.size(); ++s) {
            threads.emplace_back([&, s] {
                for (std::size_t i; (i = next.fetch_add(1)) < requests.size();) {
                    outcomes[i] = clients[s]->run(requests[i]);
                }
            });
        }
        for (std::size_t i; (i = next.fetch_add(1)) < requests.size();) {
            outcomes[i] = clients[0]->run(requests[i]);
        }
    }
    return ns_since(start, Clock::now());
}

[[nodiscard]] double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0;
    const auto at = static_cast<std::size_t>(q * static_cast<double>(values.size() - 1));
    std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(at),
                     values.end());
    return values[at];
}

// The timed phase is cut into slices of whole batches, a quarter second
// or more each. Contention from the host's other tenants only ever slows
// a slice, so the figures come from the run's quiet slices (see main).
struct Slice final {
    static constexpr std::size_t kMinRequests = 64;
    static constexpr double kMinTimedNs = 0.25e9;
    std::vector<double> latency_us;
    std::vector<double> first_reply_us;
    double timed_ns = 0;
    [[nodiscard]] bool full() const {
        return latency_us.size() >= kMinRequests && timed_ns >= kMinTimedNs;
    }
};

struct Metric final {
    std::string name;
    double value = 0;
    std::string unit;
};

// --------------------------------------------------------------- tracing

struct Span final {
    std::size_t request = 0;
    std::string name;
    std::string parent;
    double start_ns = 0;
    double duration_ns = 0;
};

// Layer totals over the traced session. "Calls" count re-issues; the
// *_path fields sum what lay on the request path (per-leg work times the
// request's legs, sweeps only when a leg missed).
struct LayerTotals final {
    std::size_t requests = 0;
    double request_ns = 0;
    double upload_ns = 0;
    double upload_bytes = 0;
    double fingerprint_ns = 0, fingerprint_path = 0;
    double key_ns = 0, key_path = 0, key_bytes = 0;
    std::size_t key_calls = 0;
    double detect_ns = 0, detect_path = 0;
    double admit_ns = 0, admit_path = 0;
    double query_ns = 0;
    std::size_t query_calls = 0;
    double leg_ns = 0, token_bytes = 0;
    std::size_t legs_probed = 0;
    std::uint64_t chain_cells = 0, chain_base_cells = 0;
    double build_ns = 0, immunity_ns = 0, scan_ns = 0, auto_scan_ns = 0;
    std::size_t sweeps = 0, immunity_calls = 0;
    double sweep_path = 0;
    std::uint64_t cells = 0, offsets = 0;
    std::set<std::string> keys;
    std::set<std::uint64_t> uploads;
};

// Times `fn` and records it as a span of `request`. Stateless calls run
// `repeats` times and keep the fastest, so one scheduling stall of the
// re-issue does not outweigh the request it is meant to explain.
template <typename Fn>
double timed_span(std::vector<Span>& spans, std::size_t request, const char* name,
                  const char* parent, Clock::time_point epoch, Fn&& fn, int repeats = 1) {
    Span best{request, name, parent, 0, 0};
    for (int i = 0; i < repeats; ++i) {
        const Clock::time_point start = Clock::now();
        fn();
        const double took = ns_since(start, Clock::now());
        if (i == 0 || took < best.duration_ns) {
            best.start_ns = ns_since(epoch, start);
            best.duration_ns = took;
        }
    }
    spans.push_back(best);
    return best.duration_ns;
}

constexpr int kStatelessRepeats = 2;

struct ChainRun final {
    double build_ns = 0;
    double scan_ns = 0;
    std::uint64_t cells = 0;
    std::uint64_t offsets = 0;
};

// Re-issues a request's sweep straight on core::CoalitionSweep, leg by leg
// exactly as the server runs it (a fresh sweep under each leg's grant,
// resuming from the previous checkpoint, budget doubled on a stalled leg).
ChainRun replay_sweep(const Request& request, game::SweepMode mode) {
    ChainRun run;
    const game::NormalFormGame& game = request.game->game;
    const game::ExactMixedProfile& profile = request.candidate->profile;
    std::uint64_t budget = request.budget > 0 ? request.budget : util::ExecutionGrant::kUnlimited;
    std::optional<core::SweepCheckpoint> resume;
    const util::WorkCounters before = util::work_counters_snapshot();
    for (std::size_t leg = 0; leg < kMaxLegs; ++leg) {
        util::ExecutionGrant grant(budget);
        core::SweepCheckpoint checkpoint;
        bool broken = false;
        {
            util::GrantScope scope(&grant);
            const Clock::time_point t0 = Clock::now();
            const core::CoalitionSweep sweep(game, profile);
            const Clock::time_point t1 = Clock::now();
            if (request.frontier) {
                (void)sweep.batch_robustness_frontier(request.k, request.t,
                                                      core::GainCriterion::kAnyMemberGains,
                                                      mode, nullptr, &checkpoint);
                checkpoint.finished = true;
            } else {
                broken = sweep.robustness_violation(request.k, request.t,
                                                    {core::GainCriterion::kAnyMemberGains, mode},
                                                    resume ? &*resume : nullptr, &checkpoint)
                             .has_value();
            }
            run.scan_ns += ns_since(t1, Clock::now());
            run.build_ns += ns_since(t0, t1);
        }
        run.cells += grant.charged();
        if (broken || checkpoint.finished) break;
        if (resume && *resume == checkpoint) budget *= 2;
        resume = std::move(checkpoint);
    }
    run.offsets = util::work_counters_snapshot().offsets_advanced - before.offsets_advanced;
    return run;
}

// Re-issues every layer call of one traced request on its inputs.
void reissue_layers(const Request& request, const Outcome& outcome, std::size_t id,
                    Clock::time_point epoch, serve::RobustnessServer& probe,
                    serve::VerdictCache& probe_cache, LayerTotals& totals,
                    std::vector<Span>& spans) {
    const game::NormalFormGame& game = request.game->game;
    const game::ExactMixedProfile& profile = request.candidate->profile;
    const double legs = static_cast<double>(outcome.legs);
    const core::GainCriterion criterion = core::GainCriterion::kAnyMemberGains;

    const double fingerprint = timed_span(spans, id, "server.fingerprint", "request", epoch, [&] {
        volatile std::uint64_t sink = serve::request_fingerprint(
            game, profile, request.k, request.t, criterion, game::SweepMode::kAuto);
        (void)sink;
    }, kStatelessRepeats);
    totals.fingerprint_ns += fingerprint;
    totals.fingerprint_path += fingerprint * legs;

    if (!request.frontier) {
        std::string key;
        const double key_ns = timed_span(spans, id, "canonical.key", "request", epoch, [&] {
            key = serve::canonical_key(game, profile, request.k, request.t, criterion);
        }, kStatelessRepeats);
        const double detect_ns = timed_span(spans, id, "symmetry.detect", "canonical.key", epoch, [&] {
            volatile std::size_t sink =
                game::SymmetryGroup::detect(game::GameView::full(game)).num_classes();
            (void)sink;
        }, kStatelessRepeats);
        ++totals.key_calls;
        totals.key_ns += key_ns;
        totals.key_path += key_ns * legs;
        totals.key_bytes += static_cast<double>(key.size());
        totals.detect_ns += detect_ns;
        totals.detect_path += std::min(detect_ns, key_ns) * legs;
        totals.keys.insert(key);

        serve::VerdictCache::Admission admission;
        const double admit_ns = timed_span(spans, id, "verdict_cache.admit", "request", epoch,
                                           [&] { admission = probe_cache.admit(key); });
        if (admission.role == serve::VerdictCache::Role::kLeader) {
            probe_cache.fulfill(key, request.direct.front());
        }
        totals.admit_ns += admit_ns;
        totals.admit_path += admit_ns * legs;

        serve::QueryRequest query;
        query.game = game;
        query.profile = profile;
        query.k = request.k;
        query.t = request.t;
        probe.cache().clear();
        totals.query_ns += timed_span(spans, id, "server.query", "request", epoch,
                                      [&] { (void)probe.query(query); });
        ++totals.query_calls;
        if (request.budget > 0) {
            probe.cache().clear();
            query.budget_cells = request.budget;
            serve::QueryResponse leg;
            totals.leg_ns += timed_span(spans, id, "server.leg", "request", epoch,
                                        [&] { leg = probe.query(query); });
            totals.token_bytes += static_cast<double>(leg.resume_token.size());
            ++totals.legs_probed;
        }
    } else {
        serve::FrontierRequest query;
        query.game = game;
        query.profile = profile;
        query.max_k = request.k;
        query.max_t = request.t;
        totals.query_ns += timed_span(spans, id, "server.query", "request", epoch,
                                      [&] { (void)probe.frontier(query); });
        ++totals.query_calls;
    }

    if (outcome.missed_legs == 0) return;  // memo hit: no sweep ran on the path
    ++totals.sweeps;
    if (request.t > 0) {
        totals.immunity_ns += timed_span(spans, id, "coalition_sweep.immunity", "coalition_sweep.scan",
                                         epoch, [&] {
                                             (void)core::find_immunity_violation(game, profile,
                                                                                 request.t);
                                         }, kStatelessRepeats);
        ++totals.immunity_calls;
    }
    // Each replay keeps its faster run; cells and offsets are the same in
    // both serial runs.
    ChainRun serial;
    timed_span(spans, id, "coalition_sweep.scan", "request", epoch, [&] {
        const ChainRun run = replay_sweep(request, game::SweepMode::kSerial);
        if (serial.scan_ns == 0 || run.build_ns + run.scan_ns < serial.build_ns + serial.scan_ns) {
            serial = run;
        }
    }, kStatelessRepeats);
    ChainRun parallel;
    timed_span(spans, id, "thread_pool.auto_scan", "request", epoch, [&] {
        const ChainRun run = replay_sweep(request, game::SweepMode::kAuto);
        if (parallel.scan_ns == 0 ||
            run.build_ns + run.scan_ns < parallel.build_ns + parallel.scan_ns) {
            parallel = run;
        }
    }, kStatelessRepeats);
    totals.build_ns += serial.build_ns;
    totals.scan_ns += serial.scan_ns;
    totals.auto_scan_ns += parallel.scan_ns;
    totals.cells += serial.cells;
    totals.offsets += serial.offsets;
    totals.sweep_path += parallel.build_ns + parallel.scan_ns;
    if (request.budget > 0) {
        totals.chain_cells += serial.cells;
        totals.chain_base_cells += request.direct_cells;
    }
}

[[nodiscard]] double ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::vector<Metric> layer_metrics(const LayerTotals& t, const serve::ServerStats& stats,
                                  std::size_t cache_entries) {
    const double req = t.request_ns;
    const double n = static_cast<double>(t.requests);
    const double keyed = static_cast<double>(t.key_calls);
    const double sweeps = static_cast<double>(t.sweeps);
    std::size_t sym = 0;
    for (const std::string& key : t.keys) sym += key.rfind("bnashQ1:sym:", 0) == 0 ? 1 : 0;
    const double shares[] = {t.upload_ns, t.fingerprint_path, t.key_path - t.detect_path,
                             t.detect_path, t.admit_path, t.sweep_path};
    double attributed = 0;
    for (const double s : shares) attributed += s;
    const std::uint64_t lookups = stats.cache_hits + stats.cache_misses;
    return {
        {"trace.requests", n, "count"},
        {"trace.request_us", ratio(req, n) / 1e3, "us"},
        {"text_front.upload_us", ratio(t.upload_ns, n) / 1e3, "us"},
        {"text_front.upload_bytes", ratio(t.upload_bytes, n), "B"},
        {"text_front.share", ratio(t.upload_ns, req), "share"},
        {"server.fingerprint_us", ratio(t.fingerprint_ns, n) / 1e3, "us"},
        {"server.query_us", ratio(t.query_ns, static_cast<double>(t.query_calls)) / 1e3, "us"},
        {"server.leg_us", ratio(t.leg_ns, static_cast<double>(t.legs_probed)) / 1e3, "us"},
        {"server.token_bytes", ratio(t.token_bytes, static_cast<double>(t.legs_probed)), "B"},
        {"server.chain_cells_ratio",
         ratio(static_cast<double>(t.chain_cells), static_cast<double>(t.chain_base_cells)),
         "ratio"},
        {"server.share", ratio(t.fingerprint_path, req), "share"},
        {"canonical.key_us", ratio(t.key_ns, keyed) / 1e3, "us"},
        {"canonical.key_bytes", ratio(t.key_bytes, keyed), "B"},
        {"canonical.fold_ratio",
         ratio(static_cast<double>(t.keys.size()), static_cast<double>(t.uploads.size())),
         "ratio"},
        {"canonical.sym_share",
         ratio(static_cast<double>(sym), static_cast<double>(t.keys.size())), "share"},
        {"canonical.share", ratio(t.key_path - t.detect_path, req), "share"},
        {"symmetry.detect_us", ratio(t.detect_ns, keyed) / 1e3, "us"},
        {"symmetry.share", ratio(t.detect_path, req), "share"},
        {"verdict_cache.admit_us", ratio(t.admit_ns, keyed) / 1e3, "us"},
        {"verdict_cache.hit_rate",
         ratio(static_cast<double>(stats.cache_hits), static_cast<double>(lookups)), "share"},
        {"verdict_cache.stampede_waits", static_cast<double>(stats.stampede_waits), "count"},
        {"verdict_cache.entries", static_cast<double>(cache_entries), "count"},
        {"verdict_cache.share", ratio(t.admit_path, req), "share"},
        {"coalition_sweep.build_us", ratio(t.build_ns, sweeps) / 1e3, "us"},
        {"coalition_sweep.immunity_us",
         ratio(t.immunity_ns, static_cast<double>(t.immunity_calls)) / 1e3, "us"},
        {"coalition_sweep.scan_us", ratio(t.scan_ns, sweeps) / 1e3, "us"},
        {"coalition_sweep.cells", static_cast<double>(t.cells), "count"},
        {"coalition_sweep.offsets", static_cast<double>(t.offsets), "count"},
        {"coalition_sweep.ns_per_cell", ratio(t.scan_ns, static_cast<double>(t.cells)), "ns"},
        {"coalition_sweep.share", ratio(t.sweep_path, req), "share"},
        {"thread_pool.auto_scan_us", ratio(t.auto_scan_ns, sweeps) / 1e3, "us"},
        {"thread_pool.speedup", ratio(t.scan_ns, t.auto_scan_ns), "x"},
        {"unattributed_share", req > 0 ? 1.0 - attributed / req : 0, "share"},
    };
}

// ----------------------------------------------------------------- main

struct Args final {
    Workload workload = Workload::kHotRepeat;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    std::string trace_out;
    // Self-test hook: flips the planted verdicts of this stream index, so
    // the run must count exactly one failure.
    std::optional<std::size_t> flip;
};

[[nodiscard]] std::optional<Args> parse_args(int argc, char** argv) {
    Args args;
    bool have_workload = false;
    bool have_seed = false;
    bool have_seconds = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        char* end = nullptr;
        if (flag == "--workload") {
            const std::optional<Workload> workload = servebench::parse_workload(value);
            if (!workload) return std::nullopt;
            args.workload = *workload;
            have_workload = true;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
            have_seed = end != value.c_str() && *end == '\0';
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            have_seconds = end != value.c_str() && *end == '\0' && args.seconds > 0;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") return std::nullopt;
            args.trace = value == "1";
        } else if (flag == "--trace-out") {
            args.trace_out = value;
        } else if (flag == "--flip") {
            args.flip = std::strtoull(value.c_str(), &end, 10);
        } else {
            return std::nullopt;
        }
    }
    if (argc % 2 == 0 || !have_workload || !have_seed || !have_seconds) return std::nullopt;
    return args;
}

std::string json_number(double value) {
    std::ostringstream out;
    out.precision(12);
    out << value;
    return out.str();
}

}  // namespace

int main(int argc, char** argv) {
    const std::optional<Args> parsed = parse_args(argc, argv);
    if (!parsed) {
        std::cerr << "usage: servebench_driver --workload <hot_repeat|cold_ask|frontier_session>"
                     " --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]\n";
        return 2;
    }
    const Args& args = *parsed;
    const std::size_t cpus = host_cpus();
    const Config config = config_for(args.workload, cpus);
    // Pins the global sweep pool before anything touches it.
    setenv("BNASH_THREADS", std::to_string(config.pool_executors).c_str(), 1);

    const Traffic traffic(args.workload, args.seed, cpus);
    const std::vector<Request> warmup = traffic.warmup(cpus);
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> errors;
    // The correctness check, outside every timed region.
    const auto tally = [&](const std::vector<Request>& requests,
                           const std::vector<Outcome>& outcomes) {
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            ++attempted;
            std::string error = outcomes[i].error;
            if (error.empty() && !servebench::verdict_ok(requests[i], outcomes[i].observed)) {
                error = "verdict mismatch on upload " + std::to_string(requests[i].upload_id);
            }
            if (error.empty()) continue;
            ++failed;
            if (errors.size() < 5) errors.push_back(error);
        }
    };

    // Set-up: server construction, pool spin-up (first time only), and the
    // fixed warm-up. The first set-up builds the serving server; a
    // throwaway set-up after every batch samples it again across the whole
    // run, and the fastest sample is reported: the work is identical each
    // time, so only the host's contention separates them.
    std::vector<double> setup_ns;
    const auto set_up = [&]() {
        const Clock::time_point start = Clock::now();
        auto server = std::make_unique<serve::RobustnessServer>();
        (void)util::global_pool();
        Client client(*server);
        std::vector<Outcome> outcomes;
        for (const Request& request : warmup) outcomes.push_back(client.run(request));
        setup_ns.push_back(ns_since(start, Clock::now()));
        if (setup_ns.size() == 1) tally(warmup, outcomes);
        return server;
    };
    const std::unique_ptr<serve::RobustnessServer> server = set_up();

    std::vector<std::unique_ptr<Client>> clients;
    for (std::size_t s = 0; s < config.sessions; ++s) {
        clients.push_back(std::make_unique<Client>(*server));
    }
    // The traced run keeps half the time for its timed phase (the
    // server's counters) and spends the rest on the traced session.
    const double timed_budget_ns = args.seconds * 1e9 * (args.trace ? 0.5 : 1.0);
    const Clock::time_point run_start = Clock::now();
    const double wall_limit_ns = args.seconds * 1e9 * 4 + 30e9;
    double timed_ns = 0;
    std::size_t next = 0;
    std::optional<double> rss_mb;
    std::uint64_t hash = 0;
    std::size_t served = 0;
    std::size_t legs = 0;
    std::vector<Slice> slices;
    Slice slice;
    std::vector<Outcome> outcomes;
    while (timed_ns < timed_budget_ns && ns_since(run_start, Clock::now()) < wall_limit_ns) {
        std::vector<Request> requests = traffic.batch(next, config.batch, cpus);
        if (args.flip && *args.flip >= next && *args.flip - next < requests.size()) {
            for (core::CellVerdict& cell : requests[*args.flip - next].planted) {
                cell = cell == core::CellVerdict::kBroken ? core::CellVerdict::kRobust
                                                          : core::CellVerdict::kBroken;
            }
        }
        if (next == 0) {
            hash = servebench::stream_hash(std::vector<Request>(
                requests.begin(),
                requests.begin() + static_cast<std::ptrdiff_t>(
                                       std::min(kHashedRequests, requests.size()))));
        }
        const double batch_ns = serve_batch(clients, requests, outcomes);
        timed_ns += batch_ns;
        slice.timed_ns += batch_ns;
        tally(requests, outcomes);
        for (const Outcome& outcome : outcomes) {
            slice.latency_us.push_back(outcome.latency_ns / 1e3);
            slice.first_reply_us.push_back(outcome.first_reply_ns / 1e3);
            legs += outcome.legs;
        }
        served += outcomes.size();
        if (slice.full()) slices.push_back(std::exchange(slice, Slice{}));
        next += requests.size();
        if (!rss_mb && next >= config.rss_after) rss_mb = peak_rss_mb();
        (void)set_up();
    }
    if (!rss_mb) rss_mb = peak_rss_mb();
    // A trailing partial slice counts only when no slice filled.
    if (slices.empty() && !slice.latency_us.empty()) slices.push_back(std::move(slice));
    const serve::ServerStats stats = server->stats();
    const std::size_t cache_entries = server->cache().stats().entries;

    std::vector<Metric> metrics;
    std::vector<double> quiet_latency_us;
    if (!args.trace) {
        // Medians and throughput are the quiet quartile over the slices
        // (lower quartile of per-slice latency, upper of throughput); the
        // p99 pools every sample of the faster half of the slices.
        const auto over_slices = [&slices](double q, const auto& figure) {
            std::vector<double> values;
            for (const Slice& s : slices) values.push_back(figure(s));
            return quantile(std::move(values), q);
        };
        const auto slice_p50 = [](const Slice& s) { return quantile(s.latency_us, 0.5); };
        const double median_slice = over_slices(0.5, slice_p50);
        for (const Slice& s : slices) {
            if (slice_p50(s) > median_slice) continue;
            quiet_latency_us.insert(quiet_latency_us.end(), s.latency_us.begin(),
                                    s.latency_us.end());
        }
        metrics = {
            {"setup_s", *std::min_element(setup_ns.begin(), setup_ns.end()) / 1e9, "s"},
            {"req_p50_us", over_slices(0.25, slice_p50), "us"},
            {"req_p99_us", quantile(quiet_latency_us, 0.99), "us"},
            {"req_per_s", over_slices(0.75, [](const Slice& s) {
                 return ratio(static_cast<double>(s.latency_us.size()), s.timed_ns / 1e9);
             }),
             "1/s"},
            {"first_reply_p50_us",
             over_slices(0.25, [](const Slice& s) { return quantile(s.first_reply_us, 0.5); }),
             "us"},
            {"legs_per_req", ratio(static_cast<double>(legs), static_cast<double>(served)),
             "legs"},
            {"peak_rss_mb", *rss_mb, "MB"},
        };
    } else {
        // The traced session: one serial client on a fresh server set up
        // like the timed one, plus a probe server and a probe cache
        // pre-filled with the warm-up's keys for the re-issued calls.
        serve::RobustnessServer traced;
        serve::RobustnessServer probe;
        serve::VerdictCache probe_cache;
        {
            Client warm_traced(traced);
            Client warm_probe(probe);
            for (const Request& request : warmup) {
                (void)warm_traced.run(request);
                (void)warm_probe.run(request);
                if (!request.frontier) {
                    const std::string key = serve::canonical_key(
                        request.game->game, request.candidate->profile, request.k, request.t,
                        core::GainCriterion::kAnyMemberGains);
                    if (probe_cache.admit(key).role == serve::VerdictCache::Role::kLeader) {
                        probe_cache.fulfill(key, request.direct.front());
                    }
                }
            }
        }
        Client client(traced);
        LayerTotals totals;
        std::vector<Span> spans;
        const Clock::time_point epoch = Clock::now();
        for (std::size_t first = 0; first < config.trace_requests; first += config.batch) {
            const std::vector<Request> requests = traffic.batch(
                first, std::min(config.batch, config.trace_requests - first), cpus);
            std::vector<Outcome> traced_outcomes;
            for (std::size_t i = 0; i < requests.size(); ++i) {
                const Request& request = requests[i];
                const std::size_t id = first + i;
                const Clock::time_point start = Clock::now();
                const Outcome outcome = client.run(request);
                spans.push_back({id, "request", "", ns_since(epoch, start), outcome.latency_ns});
                spans.push_back({id, "text_front.upload", "request", ns_since(epoch, start),
                                 outcome.upload_ns});
                ++totals.requests;
                totals.request_ns += outcome.latency_ns;
                totals.upload_ns += outcome.upload_ns;
                totals.upload_bytes += static_cast<double>(outcome.upload_bytes);
                if (!request.frontier) totals.uploads.insert(request.upload_id);
                reissue_layers(request, outcome, id, epoch, probe, probe_cache, totals, spans);
                traced_outcomes.push_back(outcome);
            }
            tally(requests, traced_outcomes);
        }
        metrics = layer_metrics(totals, stats, cache_entries);
        if (!args.trace_out.empty()) {
            std::ofstream out(args.trace_out);
            for (const Span& span : spans) {
                out << "{\"request\":" << span.request << ",\"name\":\"" << span.name
                    << "\",\"parent\":\"" << span.parent
                    << "\",\"start_ns\":" << json_number(span.start_ns)
                    << ",\"duration_ns\":" << json_number(span.duration_ns) << "}\n";
            }
        }
    }

    const std::size_t p99_samples = quiet_latency_us.size();
    const std::size_t beyond_p99 =
        p99_samples - static_cast<std::size_t>(0.99 * static_cast<double>(p99_samples));
    std::cout << "servebench workload=" << servebench::workload_name(args.workload)
              << " seed=" << args.seed << " seconds=" << args.seconds
              << " trace=" << (args.trace ? 1 : 0) << "\n";
    std::cout << "host nproc=" << cpus << " pool_executors=" << config.pool_executors
              << " sessions=" << config.sessions << " build_type=" << SERVEBENCH_BUILD_TYPE
              << " compiler=" << SERVEBENCH_COMPILER << "\n";
    char hash_text[32];
    std::snprintf(hash_text, sizeof(hash_text), "%016llx",
                  static_cast<unsigned long long>(hash));
    std::cout << "stream_hash=" << hash_text << " (first " << kHashedRequests << " requests)\n";
    std::cout << "timed requests=" << served << " slices=" << slices.size()
              << " p99_samples=" << p99_samples << " samples_beyond_p99=" << beyond_p99
              << " attempted=" << attempted << " failed=" << failed
              << " failed_share=" << ratio(static_cast<double>(failed),
                                           static_cast<double>(attempted))
              << " cache_hits=" << stats.cache_hits << " cache_misses=" << stats.cache_misses
              << " degraded=" << stats.degraded << "\n";
    for (const std::string& error : errors) std::cout << "failure: " << error << "\n";
    for (const Metric& metric : metrics) {
        std::cout << "  " << metric.name << " = " << json_number(metric.value) << " "
                  << metric.unit << "\n";
    }
    std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
              << ", \"attempted\": " << attempted << ", \"failed\": " << failed
              << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::cout << (i ? ", " : "") << "\"" << metrics[i].name
                  << "\": {\"value\": " << json_number(metrics[i].value) << ", \"unit\": \""
                  << metrics[i].unit << "\"}";
    }
    std::cout << "}}" << std::endl;
    return failed == 0 ? 0 : 1;
}
