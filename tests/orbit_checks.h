// Checks shared by the suites that compare orbit sweeps with dense ones:
// an orbit witness may name any member of its orbit, so it is re-checked
// on the dense tensor as stated, and grids are compared by verdict.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>

#include "core/robust/robustness.h"
#include "game/normal_form.h"
#include "game/strategy.h"
#include "util/rational.h"

namespace bnash::core {

// Dense re-evaluation of a witness against the pure candidate `base` on
// the tensor `g`: the reported violation must be genuine as stated,
// whatever orbit member it names.
inline void validate_witness(const game::NormalFormGame& g, const game::PureProfile& base,
                             const RobustnessViolation& v, std::size_t k, std::size_t t,
                             GainCriterion criterion, const std::string& label) {
    ASSERT_LE(v.coalition.size(), k) << label;
    ASSERT_LE(v.faulty.size(), t) << label;
    ASSERT_EQ(v.coalition.size(), v.coalition_deviation.size()) << label;
    ASSERT_EQ(v.faulty.size(), v.faulty_deviation.size()) << label;
    game::PureProfile after = base;
    for (std::size_t i = 0; i < v.coalition.size(); ++i) {
        after[v.coalition[i]] = v.coalition_deviation[i];
    }
    for (std::size_t i = 0; i < v.faulty.size(); ++i) {
        after[v.faulty[i]] = v.faulty_deviation[i];
    }
    for (const std::size_t member : v.coalition) {
        EXPECT_TRUE(std::find(v.faulty.begin(), v.faulty.end(), member) == v.faulty.end())
            << label << ": coalition and faulty overlap";
    }
    const util::Rational post = g.payoff(after, v.witness_player);
    EXPECT_EQ(v.payoff_after, post.to_double()) << label;
    if (v.coalition.empty()) {
        // Immunity violation: an OUTSIDER is hurt relative to the full
        // candidate profile.
        EXPECT_TRUE(std::find(v.faulty.begin(), v.faulty.end(), v.witness_player) ==
                    v.faulty.end())
            << label;
        const util::Rational before = g.payoff(base, v.witness_player);
        EXPECT_EQ(v.payoff_before, before.to_double()) << label;
        EXPECT_LT(post, before) << label;
    } else {
        // Resilience violation: the reference is the coalition playing
        // the CANDIDATE against the same faulty deviation.
        game::PureProfile reference = base;
        for (std::size_t i = 0; i < v.faulty.size(); ++i) {
            reference[v.faulty[i]] = v.faulty_deviation[i];
        }
        EXPECT_TRUE(std::find(v.coalition.begin(), v.coalition.end(), v.witness_player) !=
                    v.coalition.end())
            << label;
        const util::Rational before = g.payoff(reference, v.witness_player);
        EXPECT_EQ(v.payoff_before, before.to_double()) << label;
        EXPECT_GT(post, before) << label;
        if (criterion == GainCriterion::kAllMembersGain) {
            for (const std::size_t member : v.coalition) {
                EXPECT_GT(g.payoff(after, member), g.payoff(reference, member)) << label;
            }
        }
    }
}

inline void expect_same_verdict_grid(const FrontierVerdict& a, const FrontierVerdict& b,
                                     const std::string& label) {
    ASSERT_EQ(a.max_k, b.max_k) << label;
    ASSERT_EQ(a.max_t, b.max_t) << label;
    for (std::size_t k = 0; k <= a.max_k; ++k) {
        for (std::size_t t = 0; t <= a.max_t; ++t) {
            EXPECT_EQ(a.verdict(k, t), b.verdict(k, t))
                << label << " cell (" << k << "," << t << ")";
        }
    }
}

}  // namespace bnash::core
