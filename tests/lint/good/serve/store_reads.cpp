// Fixture: no-decode must stay quiet. The decoding copy may be declared
// and defined; library code reads payoffs through the store, and
// comments or strings naming game.payoffs_flat() are not code.
#include <cstdint>
#include <vector>

namespace bnash::serve {

struct Game {
    std::vector<long> payoffs_flat() const;
    long payoff_at(std::uint64_t rank, std::size_t player) const;
};

std::vector<long> Game::payoffs_flat() const { return {payoff_at(0, 0)}; }

std::uint64_t hash_payoffs(const Game& game, std::uint64_t profiles, std::size_t players) {
    std::uint64_t hash = 0;
    for (std::uint64_t rank = 0; rank < profiles; ++rank) {
        for (std::size_t player = 0; player < players; ++player) {
            hash = hash * 31 + game.payoff_at(rank, player);
        }
    }
    return hash;
}

const char* note() { return "game.payoffs_flat() decodes"; }

}  // namespace bnash::serve
