// Seeded symmetric-game corpus shared by the orbit-engine suites: random
// class partitions, random quotient payoffs, and the dense tensor a
// quotient expands to.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "game/normal_form.h"
#include "game/strategy.h"
#include "game/symmetry.h"
#include "util/rational.h"
#include "util/rng.h"

namespace bnash::core {

// Expand a quotient + group into the concrete payoff tensor: player i in
// class c gets quotient.at(c, a_i, rank of the OTHER players' per-class
// histograms). This is the inverse of build_quotient by construction.
inline game::NormalFormGame expand_quotient(const game::QuotientGame& quotient,
                                            const game::SymmetryGroup& group) {
    const std::size_t n = group.num_players();
    const std::size_t m = quotient.num_classes();
    std::vector<std::size_t> counts(n);
    for (std::size_t i = 0; i < n; ++i) counts[i] = quotient.class_actions[group.class_of(i)];
    game::NormalFormGame out(counts);
    std::vector<std::vector<std::size_t>> others(m);
    for (std::uint64_t rank = 0; rank < out.num_profiles(); ++rank) {
        const game::PureProfile profile = out.profile_unrank(rank);
        for (std::size_t i = 0; i < n; ++i) {
            const std::size_t cls = group.class_of(i);
            for (std::size_t d = 0; d < m; ++d) {
                others[d].assign(quotient.class_actions[d], 0);
            }
            for (std::size_t j = 0; j < n; ++j) {
                if (j != i) ++others[group.class_of(j)][profile[j]];
            }
            out.set_payoff(profile, i,
                           quotient.at(cls, profile[i], quotient.rank_others(cls, others)));
        }
    }
    return out;
}

inline game::QuotientGame random_quotient(util::Rng& rng, std::vector<std::size_t> class_sizes,
                                          std::vector<std::size_t> class_actions) {
    game::QuotientGame quotient;
    quotient.class_sizes = std::move(class_sizes);
    quotient.class_actions = std::move(class_actions);
    quotient.finalize();
    quotient.payoff.resize(quotient.num_classes());
    for (std::size_t c = 0; c < quotient.num_classes(); ++c) {
        const std::size_t entries = quotient.class_actions[c] * quotient.others_orbits(c);
        quotient.payoff[c].reserve(entries);
        for (std::size_t e = 0; e < entries; ++e) {
            quotient.payoff[c].push_back(util::Rational{rng.next_int(-5, 5), rng.next_int(1, 2)});
        }
    }
    return quotient;
}

// Random partition of 0..n-1 into 1..3 classes with shuffled membership
// (classes are NOT index blocks, so class_of indirection is exercised).
inline game::SymmetryGroup random_group(util::Rng& rng, std::size_t n,
                                        std::vector<std::size_t>& sizes_out) {
    std::vector<std::size_t> players(n);
    for (std::size_t i = 0; i < n; ++i) players[i] = i;
    for (std::size_t i = n; i-- > 1;) {
        std::swap(players[i],
                  players[static_cast<std::size_t>(rng.next_int(0, static_cast<std::int64_t>(i)))]);
    }
    sizes_out.clear();
    std::size_t remaining = n;
    while (remaining > 0 && sizes_out.size() < 2) {
        const std::size_t s =
            static_cast<std::size_t>(rng.next_int(1, static_cast<std::int64_t>(remaining)));
        sizes_out.push_back(s);
        remaining -= s;
    }
    if (remaining > 0) sizes_out.push_back(remaining);
    std::vector<std::vector<std::size_t>> classes(sizes_out.size());
    std::size_t cursor = 0;
    for (std::size_t c = 0; c < sizes_out.size(); ++c) {
        for (std::size_t j = 0; j < sizes_out[c]; ++j) classes[c].push_back(players[cursor++]);
    }
    game::SymmetryGroup group = game::SymmetryGroup::declared(std::move(classes), n);
    // declared() reorders classes by smallest member — report sizes in
    // the GROUP's class order, which is what quotient indexing follows.
    sizes_out.clear();
    for (const auto& members : group.classes()) sizes_out.push_back(members.size());
    return group;
}

}  // namespace bnash::core
