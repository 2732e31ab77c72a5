#include "serve/text_front.h"

#include <array>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <exception>
#include <istream>
#include <ostream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "util/rational.h"

namespace bnash::serve {

namespace {

// Upload cap: a `game` whose tensor (num_profiles * num_players payoff
// entries) would exceed this is refused before anything is allocated.
constexpr std::uint64_t kMaxGamePayoffs = std::uint64_t{1} << 22;

// Token-buffer capacity kept between lines. A `payoffs` line, the one
// whose length grows with the tensor, never fills the buffer; every other
// command holds at most one token per player (`game`, `profile`) or per
// action of one player (`mixed`), which 64 covers on the games clients
// send. A wider line grows the buffer for itself and releases it after.
constexpr std::size_t kKeptTokenCapacity = 64;

// The classic-locale whitespace set: ' ' and '\t' '\n' '\v' '\f' '\r'.
[[nodiscard]] constexpr bool is_separator(char c) noexcept {
    return c == ' ' || (c >= '\t' && c <= '\r');
}

// Moves `at` past any separators; false at the end of the line.
[[nodiscard]] bool skip_separators(std::string_view line, std::size_t& at) noexcept {
    while (at < line.size() && is_separator(line[at])) ++at;
    return at < line.size();
}

// The token that starts at or after `at`, moving `at` past it; empty at
// the end of the line. With skip_separators, the one scanner of the
// protocol: tokenizing a line and walking a `payoffs` line both use it.
[[nodiscard]] std::string_view next_token(std::string_view line, std::size_t& at) noexcept {
    (void)skip_separators(line, at);
    const std::size_t begin = at;
    while (at < line.size() && !is_separator(line[at])) ++at;
    return line.substr(begin, at - begin);
}

[[nodiscard]] std::string quoted(std::string_view token) {
    std::string out;
    out.reserve(token.size() + 2);
    ((out += '\'') += token) += '\'';
    return out;
}

// An optional '+' or '-', then base-10 digits that fit in int64 — the
// grammar std::stoll accepted, with its messages.
[[nodiscard]] std::int64_t parse_int(std::string_view token) {
    std::string_view digits = token;
    // from_chars takes a '-' but not a '+'; a '+' may not precede a '-'.
    if (digits.starts_with('+')) {
        digits.remove_prefix(1);
        if (digits.starts_with('-')) digits = {};
    }
    std::int64_t value = 0;
    const char* const end = digits.data() + digits.size();
    const auto [stop, error] = std::from_chars(digits.data(), end, value);
    if (error == std::errc::result_out_of_range) {
        throw std::invalid_argument("integer out of range: " + quoted(token));
    }
    if (error != std::errc{}) {
        throw std::invalid_argument("expected an integer, got " + quoted(token));
    }
    if (stop != end) throw std::invalid_argument("trailing junk in " + quoted(token));
    return value;
}

[[nodiscard]] std::size_t parse_size(std::string_view token) {
    const std::int64_t value = parse_int(token);
    if (value < 0) {
        throw std::invalid_argument("expected a non-negative integer, got " + std::string(token));
    }
    return static_cast<std::size_t>(value);
}

// Milliseconds from now. A count too large for nanoseconds saturates to
// the longest deadline, which the server treats as none.
[[nodiscard]] std::chrono::nanoseconds parse_deadline(std::string_view token) {
    constexpr auto kMaxMs =
        std::chrono::duration_cast<std::chrono::milliseconds>(std::chrono::nanoseconds::max());
    const std::chrono::milliseconds ms(parse_size(token));
    return ms > kMaxMs ? std::chrono::nanoseconds::max() : std::chrono::nanoseconds(ms);
}

[[nodiscard]] util::Rational parse_rational(std::string_view token) {
    const std::size_t slash = token.find('/');
    if (slash == std::string_view::npos) return util::Rational(parse_int(token));
    const std::int64_t num = parse_int(token.substr(0, slash));
    const std::int64_t den = parse_int(token.substr(slash + 1));
    if (den == 0) throw std::invalid_argument("rational " + quoted(token) + ": zero denominator");
    return util::Rational(num, den);
}

// 1 to 18 decimal digits at `at` (so below 10^18, no int64 overflow),
// accumulated into `value`; false on none or more.
[[nodiscard]] bool scan_digits(const char*& at, const char* end, std::int64_t& value) noexcept {
    const char* const begin = at;
    value = 0;
    for (; at != end && static_cast<unsigned char>(*at - '0') < 10; ++at) {
        if (at - begin == 18) return false;
        value = value * 10 + (*at - '0');
    }
    return at != begin;
}

// parse_rational's shortcut for the tokens clients send: a token of the
// form -?digits or -?digits/digits, 1 to 18 digits a side, with a nonzero
// denominator, read in the same pass that finds its end. On such a token
// it sets `value` to what parse_rational returns for it and moves `at`
// past it. On any other token it returns false with `at` unmoved, and the
// caller takes parse_rational, which owns the grammar and its messages.
[[nodiscard]] bool scan_plain_rational(std::string_view line, std::size_t& at,
                                       util::Rational& value) {
    const char* const end = line.data() + line.size();
    const char* cursor = line.data() + at;
    const bool negative = *cursor == '-';
    cursor += negative;
    std::int64_t num = 0;
    if (!scan_digits(cursor, end, num)) return false;
    if (negative) num = -num;
    std::int64_t den = 1;
    if (cursor != end && *cursor == '/') {
        ++cursor;
        if (!scan_digits(cursor, end, den) || den == 0) return false;
    }
    if (cursor != end && !is_separator(*cursor)) return false;
    value = den == 1 ? util::Rational(num) : util::Rational(num, den);
    at = static_cast<std::size_t>(cursor - line.data());
    return true;
}

}  // namespace

game::NormalFormGame& LineSession::require_game() {
    if (!game_) throw std::runtime_error("no game declared (use: game <n> <counts...>)");
    return *game_;
}

void LineSession::handle_game(Args args) {
    if (args.empty()) throw std::invalid_argument("usage: game <n> <c_0> ... <c_{n-1}>");
    const std::size_t num_players = parse_size(args[0]);
    if (num_players == 0 || args.size() != num_players + 1) {
        throw std::invalid_argument("game: expected " + std::to_string(num_players) +
                                    " action counts");
    }
    // The tensor size is checked before anything is allocated, one factor
    // at a time so that the product never overflows.
    std::uint64_t entries = num_players;
    bool over_cap = entries > kMaxGamePayoffs;
    std::vector<std::size_t> counts;
    counts.reserve(num_players);
    for (const std::string_view token : args.subspan(1)) {
        const std::size_t count = parse_size(token);
        if (count == 0) throw std::invalid_argument("game: zero action count");
        over_cap = over_cap || count > kMaxGamePayoffs / entries;
        if (!over_cap) entries *= count;
        counts.push_back(count);
    }
    if (over_cap) {
        throw std::invalid_argument("game: payoff tensor exceeds upload cap of " +
                                    std::to_string(kMaxGamePayoffs) + " entries");
    }
    // Built aside, so that a throw leaves the previous game in place.
    game::NormalFormGame declared(std::move(counts));
    // Default candidate: everyone plays action 0, until overwritten.
    game::ExactMixedProfile candidate(num_players);
    for (std::size_t player = 0; player < num_players; ++player) {
        candidate[player].assign(declared.num_actions(player), util::Rational(0));
        candidate[player][0] = util::Rational(1);
    }
    game_ = std::move(declared);
    profile_ = std::move(candidate);
}

void LineSession::handle_payoffs(std::string_view values) {
    game::NormalFormGame& game = require_game();
    const std::size_t expected =
        static_cast<std::size_t>(game.num_profiles()) * game.num_players();
    // One pass over the bytes, straight into the store build, which
    // touches the game only at commit. Values reach the build a window at
    // a time: a tight parse loop and a tight hashing loop run faster than
    // one loop that alternates the two, and the window stays in L1. The
    // whole line is counted before any token's error is reported, so a
    // wrong count is named first whatever the tokens hold; past a bad
    // token or the expected count the walk only counts.
    game::NormalFormGame::Build build(game);
    std::array<util::Rational, 64> window;
    std::size_t filled = 0;
    std::size_t count = 0;
    std::exception_ptr token_error;
    for (std::size_t at = 0; skip_separators(values, at);) {
        if (++count > expected || token_error) {
            (void)next_token(values, at);
            continue;
        }
        if (!scan_plain_rational(values, at, window[filled])) {
            try {
                window[filled] = parse_rational(next_token(values, at));
            } catch (const std::exception&) {
                token_error = std::current_exception();
                continue;
            }
        }
        if (++filled == window.size()) {
            build.add(window);
            filled = 0;
        }
    }
    if (count != expected) {
        throw std::invalid_argument("payoffs: expected " + std::to_string(expected) +
                                    " values, got " + std::to_string(count));
    }
    if (token_error) std::rethrow_exception(token_error);
    build.add(std::span(window).first(filled));
    build.commit();
}

void LineSession::handle_profile(Args args) {
    game::NormalFormGame& game = require_game();
    if (args.size() != game.num_players()) {
        throw std::invalid_argument("profile: expected one action per player");
    }
    std::vector<std::size_t> actions(args.size());
    for (std::size_t player = 0; player < game.num_players(); ++player) {
        actions[player] = parse_size(args[player]);
        if (actions[player] >= game.num_actions(player)) {
            throw std::invalid_argument("profile: action out of range for player " +
                                        std::to_string(player));
        }
    }
    for (std::size_t player = 0; player < game.num_players(); ++player) {
        profile_[player].assign(game.num_actions(player), util::Rational(0));
        profile_[player][actions[player]] = util::Rational(1);
    }
}

void LineSession::handle_mixed(Args args) {
    game::NormalFormGame& game = require_game();
    if (args.empty()) throw std::invalid_argument("usage: mixed <player> <p_0> ...");
    const std::size_t player = parse_size(args[0]);
    if (player >= game.num_players()) throw std::invalid_argument("mixed: player out of range");
    if (args.size() != game.num_actions(player) + 1) {
        throw std::invalid_argument("mixed: expected " +
                                    std::to_string(game.num_actions(player)) +
                                    " probabilities");
    }
    game::ExactMixedStrategy strategy;
    strategy.reserve(args.size() - 1);
    for (const std::string_view token : args.subspan(1)) strategy.push_back(parse_rational(token));
    if (!game::is_exact_distribution(strategy)) {
        throw std::invalid_argument("mixed: probabilities must be >= 0 and sum to 1");
    }
    profile_[player] = std::move(strategy);
}

void LineSession::handle_mode(Args args) {
    if (args.size() != 1) throw std::invalid_argument("usage: mode <auto|serial>");
    if (args[0] == "auto") {
        mode_ = game::SweepMode::kAuto;
    } else if (args[0] == "serial") {
        mode_ = game::SweepMode::kSerial;
    } else {
        throw std::invalid_argument("mode: expected 'auto' or 'serial', got " + quoted(args[0]));
    }
}

void LineSession::fill_request(SweepRequest& request, Args args) {
    // Both numbers parse before the token is taken, so a malformed line
    // leaves the armed token for the next request.
    if (args.size() >= 3) request.budget_cells = static_cast<std::uint64_t>(parse_size(args[2]));
    if (args.size() >= 4) request.deadline = parse_deadline(args[3]);
    request.game = require_game();
    request.profile = profile_;
    request.mode = mode_;
    request.resume_token = std::exchange(resume_token_, std::string());
}

bool LineSession::handle_ask(Args args, const LineSink& emit) {
    (void)require_game();
    if (args.size() < 2 || args.size() > 4) {
        throw std::invalid_argument("usage: ask <k> <t> [budget_cells] [deadline_ms]");
    }
    QueryRequest request;
    request.k = parse_size(args[0]);
    request.t = parse_size(args[1]);
    fill_request(request, args);

    const QueryResponse response = server_->query(request);
    ++asks_;
    std::ostringstream reply;
    reply << "verdict=" << to_string(response.verdict)
          << " status=" << to_string(response.status)
          << " cache=" << (response.cache_hit ? "hit" : "miss")
          << " cells=" << response.cells_charged;
    if (!response.resume_token.empty()) reply << " token=" << response.resume_token;
    if (!response.error.empty()) reply << " error=" << response.error;
    return emit(reply.str());
}

bool LineSession::handle_frontier(Args args, const LineSink& emit) {
    (void)require_game();
    if (args.size() < 2 || args.size() > 4) {
        throw std::invalid_argument("usage: frontier <max_k> <max_t> [budget_cells] [deadline_ms]");
    }
    FrontierRequest request;
    request.max_k = parse_size(args[0]);
    request.max_t = parse_size(args[1]);
    fill_request(request, args);

    // Columns stream as the sweep resolves them. A dead peer mid-stream
    // cannot abort the sweep (the sink has no back-channel), so the
    // session just stops writing and reports the drop afterwards.
    bool peer_alive = true;
    const FrontierResponse response =
        server_->frontier(request, [&](std::size_t t, std::size_t breaking_k,
                                       const core::RobustnessViolation*) {
            if (!peer_alive) return;
            peer_alive = emit("col " + std::to_string(t) + " " + std::to_string(breaking_k));
        });
    ++asks_;
    if (!peer_alive) return false;
    std::ostringstream reply;
    if (response.status == QueryStatus::kResolved) {
        reply << "done cells=" << response.cells_charged
              << " cols=" << response.stream_columns;
    } else if (response.status == QueryStatus::kDegraded) {
        reply << "degraded token=" << response.resume_token
              << " cells=" << response.cells_charged << " cols=" << response.stream_columns;
    } else {
        reply << "error: " << (response.error.empty() ? "frontier failed" : response.error);
    }
    return emit(reply.str());
}

bool LineSession::handle_stats(const LineSink& emit) {
    const ServerStats stats = server_->stats();
    std::ostringstream reply;
    reply << "accepted=" << stats.accepted << " resolved=" << stats.resolved
          << " degraded=" << stats.degraded << " errors=" << stats.errors
          << " cache_hits=" << stats.cache_hits << " cache_misses=" << stats.cache_misses
          << " cache_promotions=" << stats.cache_promotions
          << " stampede_waits=" << stats.stampede_waits
          << " tokens_rejected=" << stats.tokens_rejected;
    return emit(reply.str());
}

bool LineSession::handle_line(std::string_view line, const LineSink& emit) {
    std::size_t at = 0;
    const std::string_view command = next_token(line, at);
    if (command.empty() || command.starts_with('#')) return true;
    const std::string_view rest = line.substr(at);
    tokens_.clear();
    if (command != "payoffs") {
        for (std::string_view token = next_token(line, at); !token.empty();
             token = next_token(line, at)) {
            tokens_.push_back(token);
        }
    }
    const bool keep = dispatch(command, rest, emit);
    // A very long line (a wide `mixed` or a malformed command) does not pin
    // its token buffer for the rest of the session.
    if (tokens_.capacity() > kKeptTokenCapacity) std::vector<std::string_view>().swap(tokens_);
    return keep;
}

bool LineSession::dispatch(std::string_view command, std::string_view rest,
                           const LineSink& emit) {
    const Args args(tokens_);
    try {
        if (command == "game") {
            handle_game(args);
            return emit("ok");
        }
        if (command == "payoffs") {
            handle_payoffs(rest);
            return emit("ok");
        }
        if (command == "profile") {
            handle_profile(args);
            return emit("ok");
        }
        if (command == "mixed") {
            handle_mixed(args);
            return emit("ok");
        }
        if (command == "mode") {
            handle_mode(args);
            return emit("ok");
        }
        if (command == "resume") {
            if (args.size() != 1) throw std::invalid_argument("usage: resume <token>");
            resume_token_ = args[0];
            return emit("ok");
        }
        if (command == "ask") return handle_ask(args, emit);
        if (command == "frontier") return handle_frontier(args, emit);
        if (command == "stats") return handle_stats(emit);
        if (command == "quit") return false;
        throw std::invalid_argument("unknown command " + quoted(command));
    } catch (const std::exception& error) {
        return emit(std::string("error: ") + error.what());
    }
}

std::size_t run_text_front(std::istream& in, std::ostream& out, RobustnessServer& server) {
    LineSession session(server);
    std::string line;
    while (std::getline(in, line)) {
        const bool keep = session.handle_line(line, [&out](const std::string& text) {
            out << text << '\n';
            return static_cast<bool>(out);
        });
        if (!keep) break;
    }
    return session.asks();
}

}  // namespace bnash::serve
