#include "serve/socket_front.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <list>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "serve/text_front.h"

namespace bnash::serve {

namespace {

// Both loops (accept and per-connection) block in poll() for at most
// one tick so the stop flag is honored promptly.
constexpr int kPollTickMs = 50;

struct SharedCounters final {
    std::atomic<std::uint64_t> lines{0};
    std::atomic<std::uint64_t> deadline_closes{0};
    std::atomic<std::uint64_t> pipeline_closes{0};
    std::atomic<std::uint64_t> stream_drops{0};
};

// A connection's thread and the flag it raises when its session is over,
// so that the accept loop can join it without waiting.
struct Connection final {
    std::atomic<bool> done{false};
    std::jthread thread;
};

[[nodiscard]] bool send_all(int fd, const std::string& data) {
    std::size_t sent = 0;
    while (sent < data.size()) {
        const ssize_t wrote =
            ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
        if (wrote < 0) {
            if (errno == EINTR) continue;
            return false;
        }
        sent += static_cast<std::size_t>(wrote);
    }
    return true;
}

void serve_connection(int fd, std::uint64_t conn_index, RobustnessServer& server,
                      const SocketFrontOptions& options, const std::atomic<bool>& stop,
                      SharedCounters& counters) {
    LineSession session(server);
    std::string buffer;
    std::deque<std::string> pending;
    auto last_byte = std::chrono::steady_clock::now();

    const std::optional<std::uint64_t> drop_after =
        options.faults != nullptr ? options.faults->stream_drop_for(conn_index) : std::nullopt;
    std::uint64_t cols_streamed = 0;
    bool dropped = false;

    const LineSession::LineSink emit = [&](const std::string& text) -> bool {
        if (drop_after && !dropped && text.rfind("col ", 0) == 0) {
            if (cols_streamed >= *drop_after) {
                // Scheduled mid-stream severance: the client sees the
                // connection die between column lines.
                dropped = true;
                counters.stream_drops.fetch_add(1, std::memory_order_relaxed);
                ::shutdown(fd, SHUT_RDWR);
                return false;
            }
            ++cols_streamed;
        }
        if (dropped) return false;
        return send_all(fd, text + "\n");
    };

    bool alive = true;
    while (alive && !stop.load(std::memory_order_relaxed)) {
        // Answer buffered commands before reading more: the pipeline
        // bound below caps how far a client may write ahead.
        if (!pending.empty()) {
            std::string line = std::move(pending.front());
            pending.pop_front();
            counters.lines.fetch_add(1, std::memory_order_relaxed);
            if (!session.handle_line(line, emit)) alive = false;
            continue;
        }
        pollfd poll_fd{fd, POLLIN, 0};
        const int ready = ::poll(&poll_fd, 1, kPollTickMs);
        if (ready < 0) {
            if (errno == EINTR) continue;
            break;
        }
        if (ready == 0) {
            if (std::chrono::steady_clock::now() - last_byte >= options.read_deadline) {
                (void)send_all(fd, "error: read deadline exceeded\n");
                counters.deadline_closes.fetch_add(1, std::memory_order_relaxed);
                break;
            }
            continue;
        }
        char chunk[4096];
        const ssize_t got = ::recv(fd, chunk, sizeof chunk, 0);
        if (got <= 0) break;  // EOF or error: peer is gone
        last_byte = std::chrono::steady_clock::now();
        buffer.append(chunk, static_cast<std::size_t>(got));

        std::size_t start = 0;
        for (std::size_t newline = buffer.find('\n', start); newline != std::string::npos;
             newline = buffer.find('\n', start)) {
            // A trailing '\r' (CRLF) is a token separator to the session.
            pending.push_back(buffer.substr(start, newline - start));
            start = newline + 1;
        }
        buffer.erase(0, start);

        if (buffer.size() > options.max_line_bytes) {
            (void)send_all(fd, "error: line too long\n");
            counters.pipeline_closes.fetch_add(1, std::memory_order_relaxed);
            break;
        }
        if (pending.size() > options.max_pipeline) {
            (void)send_all(fd, "error: pipeline overflow\n");
            counters.pipeline_closes.fetch_add(1, std::memory_order_relaxed);
            break;
        }
    }
    ::close(fd);
}

}  // namespace

SocketFrontStats run_socket_front(RobustnessServer& server, const SocketFrontOptions& options,
                                  const std::atomic<bool>& stop) {
    const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd < 0) {
        throw std::runtime_error(std::string("socket front: socket(): ") + std::strerror(errno));
    }
    const int reuse = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof reuse);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(options.port);
    if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
        const std::string reason = std::strerror(errno);
        ::close(listen_fd);
        throw std::runtime_error("socket front: bind(): " + reason);
    }
    if (::listen(listen_fd, 16) < 0) {
        const std::string reason = std::strerror(errno);
        ::close(listen_fd);
        throw std::runtime_error("socket front: listen(): " + reason);
    }
    sockaddr_in bound{};
    socklen_t bound_len = sizeof bound;
    ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound), &bound_len);
    if (options.on_listen) options.on_listen(ntohs(bound.sin_port));

    SocketFrontStats stats;
    SharedCounters counters;
    // Live connections. Finished ones are joined on every tick, so a
    // long-lived front keeps no stack of a connection it served.
    std::list<Connection> connections;
    std::uint64_t conn_index = 0;

    while (!stop.load(std::memory_order_relaxed)) {
        pollfd poll_fd{listen_fd, POLLIN, 0};
        const int ready = ::poll(&poll_fd, 1, kPollTickMs);
        std::erase_if(connections, [](const Connection& connection) {
            return connection.done.load(std::memory_order_acquire);
        });
        if (ready <= 0) continue;  // tick or EINTR: re-check stop
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0) continue;
        ++stats.connections;
        // Over-capacity connections still consume an accept index (the
        // FaultSchedule's `conn` numbering is pure accept order).
        if (connections.size() >= options.max_connections) {
            (void)send_all(fd, "error: too many connections\n");
            ::close(fd);
            ++stats.rejected;
            ++conn_index;
            continue;
        }
        Connection& connection = connections.emplace_back();
        connection.thread =
            std::jthread([&server, &options, &stop, &counters, &connection, fd,
                          index = conn_index] {
                serve_connection(fd, index, server, options, stop, counters);
                connection.done.store(true, std::memory_order_release);
            });
        ++conn_index;
    }
    ::close(listen_fd);
    connections.clear();  // jthread joins: every connection winds down on the stop flag

    stats.lines = counters.lines.load(std::memory_order_relaxed);
    stats.deadline_closes = counters.deadline_closes.load(std::memory_order_relaxed);
    stats.pipeline_closes = counters.pipeline_closes.load(std::memory_order_relaxed);
    stats.stream_drops = counters.stream_drops.load(std::memory_order_relaxed);
    return stats;
}

}  // namespace bnash::serve
