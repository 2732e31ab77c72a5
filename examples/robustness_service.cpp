// The robustness-query server end to end: canonicalized cache hits,
// budget- and deadline-degraded answers, and the stdin line protocol.
//
//   $ ./robustness_service                 # scripted demo
//   $ ./robustness_service --stdin         # line protocol on stdin (see
//                                          # src/serve/text_front.h)
//   $ ./robustness_service --socket [port] # same protocol over loopback
//                                          # TCP (port 0 = ephemeral)
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>

#include "core/robust/robustness.h"
#include "game/catalog.h"
#include "serve/server.h"
#include "serve/socket_front.h"
#include "serve/text_front.h"

namespace {

void show(const char* label, const bnash::serve::QueryResponse& response) {
    std::cout << "  " << label << ": verdict=" << bnash::serve::to_string(response.verdict)
              << " status=" << bnash::serve::to_string(response.status)
              << " cache=" << (response.cache_hit ? "hit" : "miss")
              << " cells=" << response.cells_charged << '\n';
}

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true); }

}  // namespace

int main(int argc, char** argv) {
    using namespace bnash;

    serve::RobustnessServer server;
    if (argc > 1 && std::strcmp(argv[1], "--stdin") == 0) {
        const std::size_t asks = serve::run_text_front(std::cin, std::cout, server);
        std::cout << "served " << asks << " queries\n";
        return 0;
    }
    if (argc > 1 && std::strcmp(argv[1], "--socket") == 0) {
        serve::SocketFrontOptions options;
        if (argc > 2) options.port = static_cast<std::uint16_t>(std::stoi(argv[2]));
        options.on_listen = [](std::uint16_t port) {
            std::cout << "listening on 127.0.0.1:" << port << std::endl;
        };
        std::signal(SIGINT, on_signal);
        std::signal(SIGTERM, on_signal);
        const serve::SocketFrontStats stats = serve::run_socket_front(server, options, g_stop);
        std::cout << "connections=" << stats.connections << " lines=" << stats.lines << '\n';
        return 0;
    }

    std::cout << "== (k,t)-robustness as a service: attack-coordination, 5 players ==\n";
    serve::QueryRequest request;
    request.game = game::catalog::attack_coordination_game(5);
    request.profile = core::as_exact_profile(request.game,
                                             game::PureProfile(5, 1));  // everyone attacks
    request.k = 2;
    request.t = 1;

    request.budget_cells = 8;  // far below the sweep's cell count
    serve::QueryResponse degraded = server.query(request);
    show("8-cell budget      ", degraded);

    // Each degraded answer carries a resume token; presenting it lets
    // the next grant pick up where the last one expired, so the retries
    // collectively pay for ~one sweep. Retries use a grant above the
    // resume floor — a budget below one task's cost can never vouch for
    // that task and would re-run it forever.
    request.budget_cells = 48;
    std::size_t retries = 0;
    while (degraded.status == serve::QueryStatus::kDegraded && retries < 64) {
        request.resume_token = degraded.resume_token;
        degraded = server.query(request);
        ++retries;
    }
    std::cout << "  resumed retries    : " << retries << " x 48-cell grants to finish\n";
    show("final verdict      ", degraded);
    request.resume_token.clear();

    request.budget_cells = util::ExecutionGrant::kUnlimited;
    show("repeat (memoized)  ", server.query(request));

    std::cout << "\n== Affinely rescaled upload: one cache entry ==\n";
    // Per-player positive affine payoff maps preserve every robustness
    // verdict, and canonicalization normalizes them away: uploading the
    // same game with u -> 2u + 7 hits the memo without a sweep.
    serve::QueryRequest rescaled = request;
    rescaled.budget_cells = util::ExecutionGrant::kUnlimited;
    for (std::uint64_t rank = 0; rank < request.game.num_profiles(); ++rank) {
        const game::PureProfile cell = request.game.profile_unrank(rank);
        for (std::size_t player = 0; player < request.game.num_players(); ++player) {
            rescaled.game.set_payoff(cell, player,
                                     request.game.payoff_at(rank, player) * 2 + 7);
        }
    }
    show("rescaled upload    ", server.query(rescaled));

    std::cout << "\n== Deadline expired before the sweep: shed compute, degrade ==\n";
    // The grant expires before the first block is checked, so the query
    // answers degraded at once; an already-found witness would still
    // return the exact verdict.
    serve::QueryRequest big = request;
    big.k = 3;
    big.t = 2;
    big.deadline = std::chrono::nanoseconds{0};
    show("0ns deadline       ", server.query(big));

    const serve::ServerStats stats = server.stats();
    std::cout << "\naccepted=" << stats.accepted << " resolved=" << stats.resolved
              << " degraded=" << stats.degraded << " cache_hits=" << stats.cache_hits
              << " cache_misses=" << stats.cache_misses << '\n';
    std::cout << "-> degraded answers are explicit (kUnknown), never guesses; retries with\n"
                 "   a bigger grant resolve them, and resolved verdicts are memoized by\n"
                 "   canonical signature.\n";
    return 0;
}
