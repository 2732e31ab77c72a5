// Deterministic fault injection for the serving layer.
//
// A FaultSchedule is a script of faults keyed by QUERY ARRIVAL ORDER —
// "on the 3rd query, cancel its grant"; "on the 5th, restrict its
// budget to 12 cells"; "on the 2nd, throw" — installed into a
// RobustnessServer through its one fault hook. Because the trigger is the
// arrival index, not wall-clock time, a scheduled test replays the same
// degradation path on every run: leader death at a chosen checkpoint,
// grant expiry mid-sweep at a chosen cell count, a poisoned task, a
// slow leader that lets followers pile up.
//
// The schedule also plans SOCKET-LEVEL faults for the TCP front
// (serve/socket_front.h): drop_stream_after(conn, cols) makes the
// front sever connection `conn` (0-based accept order) after it has
// streamed `cols` frontier column lines — the client observes a
// mid-stream disconnect, the server side winds the session down
// without touching the sweep.
//
// Thread-safety: script the schedule (at_query / drop_stream_after)
// BEFORE serving; firing and queries_seen() are safe from any serving
// thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "serve/server.h"
#include "util/execution_grant.h"

namespace bnash::serve {

class FaultSchedule final {
public:
    enum class Action : std::uint8_t {
        kSleepMs = 0,      // stall the serving thread (followers pile up)
        kThrow,            // poison the task: throw std::runtime_error
        kCancelGrant,      // kill the leader: cancel its grant pre-sweep
        kRestrictBudget,   // starve the grant to `value` cells pre-sweep
    };

    // Fire `action` on the query whose 0-based arrival index is
    // `arrival`. Arrivals are numbered in fault-hook invocation order,
    // one sequence across the cell and frontier paths (the server runs
    // both through its one hook). Multiple steps may share an arrival;
    // they fire in the order scheduled.
    void at_query(std::uint64_t arrival, Action action, std::uint64_t value = 0,
                  std::string message = "injected fault");

    void sleep_at(std::uint64_t arrival, std::uint64_t ms) {
        at_query(arrival, Action::kSleepMs, ms);
    }
    void throw_at(std::uint64_t arrival, std::string message = "injected fault") {
        at_query(arrival, Action::kThrow, 0, std::move(message));
    }
    void cancel_at(std::uint64_t arrival) { at_query(arrival, Action::kCancelGrant); }
    void starve_at(std::uint64_t arrival, std::uint64_t budget_cells) {
        at_query(arrival, Action::kRestrictBudget, budget_cells);
    }

    // Sever socket connection `conn` after `cols` streamed column lines.
    void drop_stream_after(std::uint64_t conn, std::uint64_t cols);
    // The socket front asks: how many columns may connection `conn`
    // stream before the drop? nullopt = never drop.
    [[nodiscard]] std::optional<std::uint64_t> stream_drop_for(std::uint64_t conn) const;

    // Installs the schedule as the server's fault hook, which every cell
    // and frontier leg runs (replacing any previous hook).
    void install(RobustnessServer& server);

    // Legs that have passed through the installed hook so far.
    [[nodiscard]] std::uint64_t queries_seen() const noexcept {
        return arrivals_.load(std::memory_order_relaxed);
    }

private:
    struct Step final {
        std::uint64_t arrival = 0;
        Action action = Action::kSleepMs;
        std::uint64_t value = 0;
        std::string message;
    };
    struct StreamDrop final {
        std::uint64_t conn = 0;
        std::uint64_t cols = 0;
    };

    void fire(util::ExecutionGrant& grant);

    std::vector<Step> steps_;
    std::vector<StreamDrop> stream_drops_;
    std::atomic<std::uint64_t> arrivals_{0};
};

}  // namespace bnash::serve
