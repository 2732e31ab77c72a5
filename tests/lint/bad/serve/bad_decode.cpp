// Fixture: library code that decodes whole payoff tensors. Both member
// calls fire, and the waiver-style comment does not silence the second:
// no-decode has no waiver.
#include <cstdint>
#include <vector>

namespace bnash::serve {

struct Game {
    std::vector<long> payoffs_flat() const;
};

std::uint64_t hash_payoffs(const Game& game) {
    std::uint64_t hash = 0;
    for (const long value : game.payoffs_flat()) hash = hash * 31 + value;
    return hash;
}

std::size_t count_payoffs(const Game* game) {
    // lint: decode-ok(fixture claims a one-off read)
    return game->payoffs_flat().size();
}

}  // namespace bnash::serve
