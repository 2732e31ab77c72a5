// TCP front end over RobustnessServer, speaking the same line protocol
// as the stdin front (serve/text_front.h — see there for the command
// and stream grammar). Loopback-only by construction: the listener
// binds 127.0.0.1.
//
// One serve::LineSession per connection, one thread per connection,
// accept loop on the caller's thread until `stop` latches. The accept
// loop joins a finished connection's thread on its next tick, so the
// front holds only the threads of live connections. Defenses, all per
// connection:
//
//   READ DEADLINE — a peer that goes quiet (including mid-line: a
//   slowloris dribbling bytes forever) is closed once no byte arrives
//   for `read_deadline`. The deadline is re-armed by every received
//   byte, so a chatty client is never penalized.
//
//   BOUNDED PIPELINING — a client may write ahead without reading
//   replies, but at most `max_pipeline` complete commands may be
//   buffered unanswered; the overflow answers one
//   `error: pipeline overflow` line and closes. Oversized single
//   lines (`max_line_bytes`) are rejected the same way.
//
//   IDLE REAPING — `stop` is polled every tick, so a hung peer cannot
//   pin the front past shutdown; connections over `max_connections`
//   are answered `error: too many connections` and closed at accept.
//
// Frontier streaming works over the socket exactly as over stdin: the
// `col` lines go out as the sweep resolves columns, so a long grid
// query shows progress before the terminal `done`/`degraded` line. A
// FaultSchedule (options.faults) can sever a chosen connection after a
// chosen number of streamed columns to rehearse client-visible
// mid-stream failure.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>

#include "serve/fault_schedule.h"
#include "serve/server.h"

namespace bnash::serve {

struct SocketFrontOptions final {
    std::uint16_t port = 0;  // 0 = ephemeral; the bound port is reported via on_listen
    std::chrono::milliseconds read_deadline{5000};
    std::size_t max_pipeline = 64;
    std::size_t max_line_bytes = 1 << 16;
    std::size_t max_connections = 64;
    // Called once, on the serving thread, after bind+listen succeed,
    // with the actual bound port (resolves port 0).
    std::function<void(std::uint16_t)> on_listen;
    // Optional scripted socket faults; must outlive the front.
    const FaultSchedule* faults = nullptr;
};

struct SocketFrontStats final {
    std::uint64_t connections = 0;     // accepted (including over-capacity rejects)
    std::uint64_t rejected = 0;        // closed at accept: over max_connections
    std::uint64_t lines = 0;           // command lines dispatched
    std::uint64_t deadline_closes = 0; // reaped by the read deadline
    std::uint64_t pipeline_closes = 0; // closed for pipeline/line-size overflow
    std::uint64_t stream_drops = 0;    // severed by a scheduled stream fault
};

// Binds, listens, and serves until `stop` becomes true; returns the
// front's counters after every connection thread has joined. Throws
// std::runtime_error when the socket cannot be bound.
SocketFrontStats run_socket_front(RobustnessServer& server, const SocketFrontOptions& options,
                                  const std::atomic<bool>& stop);

}  // namespace bnash::serve
