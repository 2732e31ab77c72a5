// Line-oriented protocol over RobustnessServer, shared by the stdin
// front (run_text_front, for piping queries into an example binary or a
// test) and the TCP socket front (serve/socket_front.h).
//
// One command per line. Tokens are separated by runs of space, tab,
// '\n', '\v', '\f' or '\r' (so CRLF lines work). An integer is an
// optional '+' or '-' followed by base-10 digits that fit in int64; a
// rational is an integer or "a/b" with two integers and b != 0 ("+3/+4"
// and "3/-6" are accepted, "3/", "/3" and "1/2/3" are not). Commands:
//
//   game <n> <c_0> ... <c_{n-1}>      declare an n-player game (payoffs 0);
//                                     refused when its tensor would hold
//                                     more than 2^22 payoff entries
//   payoffs <v_0> ... <v_{m-1}>       m = num_profiles * n values, profile
//                                     rank-major then player (the flat
//                                     tensor order); all-or-nothing: a
//                                     rejected line leaves the game as it was
//   profile <a_0> ... <a_{n-1}>       pure candidate profile
//   mixed <player> <p_0> ... <p_{c-1}> one player's mixed strategy
//   mode <auto|serial>                sweep mode for later ask/frontier
//   source <name>                     load-shedding identity (backoff key)
//   resume <token>                    arm a resume token; the NEXT ask or
//                                     frontier presents it (one-shot)
//   ask <k> <t> [budget_cells] [deadline_ms]
//   frontier <max_k> <max_t> [budget_cells] [deadline_ms]
//   stats                             print server counters
//   quit                              stop reading
//
// `ask` replies on one line:
//   verdict=<robust|broken|unknown> status=<resolved|degraded|rejected|error>
//   cache=<hit|miss> cells=<n>
// followed by ` token=<resume-token>` when degraded and ` error=<message>`
// for error statuses.
//
// `frontier` STREAMS its reply: one line per resolved t-column as the
// sweep pins it,
//   col <t> <breaking_k>
// (breaking_k 0 = immunity-broken, max_k + 1 = clean), then exactly one
// terminal line:
//   done cells=<n> cols=<m>
//   degraded token=<resume-token> cells=<n> cols=<m>
//   error: <message>
//
// Malformed commands — unknown names, bad arity, non-numeric or
// out-of-range integers, zero-denominator rationals, games over the
// upload cap — reply a single `error: <message>` line, change no session
// state, and the session continues; parse errors never tear the session
// down.
#pragma once

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "serve/server.h"

namespace bnash::serve {

// One protocol session: the mutable game/profile/mode state that a
// connection accumulates, plus the command dispatcher. Both fronts feed
// lines in and hand a sink for reply lines out.
class LineSession final {
public:
    // Emits one reply line (no trailing newline). Returns false when the
    // peer is gone — the session stops emitting and winds down.
    using LineSink = std::function<bool(const std::string&)>;

    explicit LineSession(RobustnessServer& server) noexcept : server_(&server) {}

    // Dispatches one command line. Returns false when the session is
    // over (quit, or the sink reported a dead peer).
    [[nodiscard]] bool handle_line(std::string_view line, const LineSink& emit);

    // Number of ask/frontier queries served so far.
    [[nodiscard]] std::size_t asks() const noexcept { return asks_; }

    // The declared game, or nullptr before the first `game` command.
    [[nodiscard]] const game::NormalFormGame* game() const noexcept {
        return game_ ? &*game_ : nullptr;
    }

private:
    // A command's arguments: views into the line being handled.
    using Args = std::span<const std::string_view>;

    // Runs the command held in tokens_.
    [[nodiscard]] bool dispatch(const LineSink& emit);
    [[nodiscard]] game::NormalFormGame& require_game();
    void handle_game(Args args);
    void handle_payoffs(Args args);
    void handle_profile(Args args);
    void handle_mixed(Args args);
    void handle_mode(Args args);
    [[nodiscard]] bool handle_ask(Args args, const LineSink& emit);
    [[nodiscard]] bool handle_frontier(Args args, const LineSink& emit);
    [[nodiscard]] bool handle_stats(const LineSink& emit);

    RobustnessServer* server_;
    std::optional<game::NormalFormGame> game_;
    game::ExactMixedProfile profile_;
    game::SweepMode mode_ = game::SweepMode::kAuto;
    std::string source_;
    std::string resume_token_;
    std::size_t asks_ = 0;
    // Token buffer reused across lines (released after a very long one);
    // valid only inside handle_line.
    std::vector<std::string_view> tokens_;
};

// Reads commands from `in` until EOF or `quit`; returns the number of
// ask/frontier queries served.
std::size_t run_text_front(std::istream& in, std::ostream& out, RobustnessServer& server);

}  // namespace bnash::serve
