#pragma once
// Fixture: the payoff store's own header may hold payoff vectors.
#include <vector>

namespace bnash::game {

class NormalFormGame final {
private:
    std::vector<double> payoffs_d_;
};

}  // namespace bnash::game
