// Fixture: payoff-store stays quiet on function-local vectors with the
// store's member names, on an aggregate holding one payoff per player,
// and on a nested orbit-indexed table such as a per-class payoff table.
#include <vector>

namespace bnash::game {

struct MixedEquilibrium final {
    std::vector<util::Rational> payoffs;
};

struct OrbitTable final {
    std::vector<std::vector<util::Rational>> payoff;
};

double staged_total(std::size_t cells) {
    std::vector<util::Rational> payoffs_(cells);
    std::vector<double> payoffs_d_(cells, 0.5);
    double total = 0.0;
    for (const double value : payoffs_d_) total += value;
    return total + static_cast<double>(payoffs_.size());
}

}  // namespace bnash::game
