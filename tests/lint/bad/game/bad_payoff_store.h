#pragma once
// Fixture: a Bayesian game keeping its own per-cell payoff tensor and its
// double mirror next to NormalFormGame's store — must trigger
// payoff-store on both members; the rule accepts no waiver.
#include <cstdint>
#include <vector>

namespace bnash::game {

class BayesianGame final {
private:
    std::uint64_t num_action_profiles_ = 0;
    std::vector<util::Rational> payoffs_;
    // lint: store-ok(a waiver does not parse for this rule)
    std::vector<double> payoffs_d_;
};

}  // namespace bnash::game
