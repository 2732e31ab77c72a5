#include "serve/text_front.h"

#include <chrono>
#include <cstdint>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/rational.h"

namespace bnash::serve {

namespace {

[[nodiscard]] std::int64_t parse_int(const std::string& token) {
    std::size_t consumed = 0;
    std::int64_t value = 0;
    // std::stoll's own exceptions carry useless messages ("stoll") and an
    // out-of-range 200-digit token must read as a protocol error, not a
    // crash — both are rewrapped with the offending token.
    try {
        value = std::stoll(token, &consumed);
    } catch (const std::out_of_range&) {
        throw std::invalid_argument("integer out of range: '" + token + "'");
    } catch (const std::invalid_argument&) {
        throw std::invalid_argument("expected an integer, got '" + token + "'");
    }
    if (consumed != token.size()) throw std::invalid_argument("trailing junk in '" + token + "'");
    return value;
}

[[nodiscard]] std::size_t parse_size(const std::string& token) {
    const std::int64_t value = parse_int(token);
    if (value < 0) throw std::invalid_argument("expected a non-negative integer, got " + token);
    return static_cast<std::size_t>(value);
}

[[nodiscard]] util::Rational parse_rational(const std::string& token) {
    const std::size_t slash = token.find('/');
    if (slash == std::string::npos) return util::Rational(parse_int(token));
    const std::int64_t num = parse_int(token.substr(0, slash));
    const std::int64_t den = parse_int(token.substr(slash + 1));
    if (den == 0) throw std::invalid_argument("rational '" + token + "': zero denominator");
    return util::Rational(num, den);
}

}  // namespace

game::NormalFormGame& LineSession::require_game() {
    if (!game_) throw std::runtime_error("no game declared (use: game <n> <counts...>)");
    return *game_;
}

void LineSession::handle_game(const std::vector<std::string>& args) {
    if (args.empty()) throw std::invalid_argument("usage: game <n> <c_0> ... <c_{n-1}>");
    const std::size_t num_players = parse_size(args[0]);
    if (num_players == 0 || args.size() != num_players + 1) {
        throw std::invalid_argument("game: expected " + std::to_string(num_players) +
                                    " action counts");
    }
    std::vector<std::size_t> counts;
    counts.reserve(num_players);
    for (std::size_t i = 1; i < args.size(); ++i) {
        const std::size_t count = parse_size(args[i]);
        if (count == 0) throw std::invalid_argument("game: zero action count");
        counts.push_back(count);
    }
    game_.emplace(std::move(counts));
    // Default candidate: everyone plays action 0, until overwritten.
    profile_.assign(num_players, {});
    for (std::size_t player = 0; player < num_players; ++player) {
        profile_[player].assign(game_->num_actions(player), util::Rational(0));
        profile_[player][0] = util::Rational(1);
    }
}

void LineSession::handle_payoffs(const std::vector<std::string>& args) {
    game::NormalFormGame& game = require_game();
    const std::size_t expected =
        static_cast<std::size_t>(game.num_profiles()) * game.num_players();
    if (args.size() != expected) {
        throw std::invalid_argument("payoffs: expected " + std::to_string(expected) +
                                    " values, got " + std::to_string(args.size()));
    }
    std::size_t next = 0;
    for (std::uint64_t rank = 0; rank < game.num_profiles(); ++rank) {
        const game::PureProfile profile = game.profile_unrank(rank);
        for (std::size_t player = 0; player < game.num_players(); ++player) {
            game.set_payoff(profile, player, parse_rational(args[next++]));
        }
    }
}

void LineSession::handle_profile(const std::vector<std::string>& args) {
    game::NormalFormGame& game = require_game();
    if (args.size() != game.num_players()) {
        throw std::invalid_argument("profile: expected one action per player");
    }
    for (std::size_t player = 0; player < game.num_players(); ++player) {
        const std::size_t action = parse_size(args[player]);
        if (action >= game.num_actions(player)) {
            throw std::invalid_argument("profile: action out of range for player " +
                                        std::to_string(player));
        }
        profile_[player].assign(game.num_actions(player), util::Rational(0));
        profile_[player][action] = util::Rational(1);
    }
}

void LineSession::handle_mixed(const std::vector<std::string>& args) {
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
    for (std::size_t i = 1; i < args.size(); ++i) strategy.push_back(parse_rational(args[i]));
    if (!game::is_exact_distribution(strategy)) {
        throw std::invalid_argument("mixed: probabilities must be >= 0 and sum to 1");
    }
    profile_[player] = std::move(strategy);
}

void LineSession::handle_mode(const std::vector<std::string>& args) {
    if (args.size() != 1) throw std::invalid_argument("usage: mode <auto|serial>");
    if (args[0] == "auto") {
        mode_ = game::SweepMode::kAuto;
    } else if (args[0] == "serial") {
        mode_ = game::SweepMode::kSerial;
    } else {
        throw std::invalid_argument("mode: expected 'auto' or 'serial', got '" + args[0] + "'");
    }
}

bool LineSession::handle_ask(const std::vector<std::string>& args, const LineSink& emit) {
    game::NormalFormGame& game = require_game();
    if (args.size() < 2 || args.size() > 4) {
        throw std::invalid_argument("usage: ask <k> <t> [budget_cells] [deadline_ms]");
    }
    QueryRequest request;
    request.game = game;
    request.profile = profile_;
    request.k = parse_size(args[0]);
    request.t = parse_size(args[1]);
    request.criterion = core::GainCriterion::kAnyMemberGains;
    request.mode = mode_;
    request.source = source_;
    request.resume_token = std::exchange(resume_token_, std::string());
    if (args.size() >= 3) request.budget_cells = static_cast<std::uint64_t>(parse_size(args[2]));
    if (args.size() >= 4) request.deadline = std::chrono::milliseconds(parse_size(args[3]));

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

bool LineSession::handle_frontier(const std::vector<std::string>& args, const LineSink& emit) {
    game::NormalFormGame& game = require_game();
    if (args.size() < 2 || args.size() > 4) {
        throw std::invalid_argument("usage: frontier <max_k> <max_t> [budget_cells] [deadline_ms]");
    }
    FrontierRequest request;
    request.game = game;
    request.profile = profile_;
    request.max_k = parse_size(args[0]);
    request.max_t = parse_size(args[1]);
    request.criterion = core::GainCriterion::kAnyMemberGains;
    request.mode = mode_;
    request.resume_token = std::exchange(resume_token_, std::string());
    if (args.size() >= 3) request.budget_cells = static_cast<std::uint64_t>(parse_size(args[2]));
    if (args.size() >= 4) request.deadline = std::chrono::milliseconds(parse_size(args[3]));

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
    reply << "accepted=" << stats.accepted << " rejected=" << stats.rejected
          << " resolved=" << stats.resolved << " degraded=" << stats.degraded
          << " errors=" << stats.errors << " cache_hits=" << stats.cache_hits
          << " cache_misses=" << stats.cache_misses
          << " cache_promotions=" << stats.cache_promotions
          << " stampede_waits=" << stats.stampede_waits
          << " tokens_rejected=" << stats.tokens_rejected;
    return emit(reply.str());
}

bool LineSession::handle_line(const std::string& line, const LineSink& emit) {
    std::istringstream tokens(line);
    std::string command;
    if (!(tokens >> command) || command[0] == '#') return true;
    std::vector<std::string> args;
    for (std::string token; tokens >> token;) args.push_back(std::move(token));
    try {
        if (command == "game") {
            handle_game(args);
            return emit("ok");
        }
        if (command == "payoffs") {
            handle_payoffs(args);
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
        if (command == "source") {
            if (args.size() != 1) throw std::invalid_argument("usage: source <name>");
            source_ = args[0];
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
        throw std::invalid_argument("unknown command '" + command + "'");
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
