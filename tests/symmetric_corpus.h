// Seeded symmetric-game corpus shared by the orbit-engine suites: random
// class partitions, random quotient payoffs, the dense tensor a quotient
// expands to, and symmetric 3-action games lifted from catalog games.
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
    std::vector<std::vector<util::Rational>> payoff(quotient.num_classes());
    for (std::size_t c = 0; c < quotient.num_classes(); ++c) {
        const std::size_t entries = quotient.class_actions[c] * quotient.others_orbits(c);
        payoff[c].reserve(entries);
        for (std::size_t e = 0; e < entries; ++e) {
            payoff[c].push_back(util::Rational{rng.next_int(-5, 5), rng.next_int(1, 2)});
        }
    }
    quotient.assign_payoffs(payoff);
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

// The 3-action symmetric game lifted from a 2-action catalog game, as
// servebench's frontier_session serves them: actions 0 and 1 pay a safe
// 10; action 2 plays the catalog's `deviate` action against everyone
// else's `stay`, paid relative to the all-`stay` catalog payoff, minus 1/2.
inline game::NormalFormGame lifted_catalog(const game::NormalFormGame& base, std::size_t stay,
                                           std::size_t deviate) {
    const std::size_t n = base.num_players();
    game::NormalFormGame out(std::vector<std::size_t>(n, 3));
    const game::PureProfile all_stay(n, stay);
    game::PureProfile projected(n, stay);
    for (std::uint64_t rank = 0; rank < out.num_profiles(); ++rank) {
        const game::PureProfile profile = out.profile_unrank(rank);
        for (std::size_t p = 0; p < n; ++p) projected[p] = profile[p] == 2 ? deviate : stay;
        for (std::size_t p = 0; p < n; ++p) {
            util::Rational value(10);
            if (profile[p] == 2) {
                value += base.payoff(projected, p) - base.payoff(all_stay, p) -
                         util::Rational(1, 2);
            }
            out.set_payoff(profile, p, value);
        }
    }
    return out;
}

// Two classes of two players, eight actions each. Every payoff is 0
// except, for 1 <= lead <= 6, one gain for a class-1 player on action 7
// whose class-0 opponents play `lead` and `lead + 1` and whose class-1
// partner plays 7. Only four deviators reach it, so the first scan that
// does is the (coalition 2, faulty 2) pair with one player of each class
// in either role: 8^4 = 4096 orbits, two ranged blocks. There the hit
// sits at rank lead * 512 + 7 * 64 + (lead + 1) * 8 + 7 — block 0 for
// lead <= 3, block 1 above. lead == 0 plants nothing.
inline game::SymmetryGroup planted_split_group() {
    return game::SymmetryGroup::declared({{0, 1}, {2, 3}}, 4);
}
inline game::QuotientGame planted_split_quotient(std::size_t lead) {
    game::QuotientGame quotient;
    quotient.class_sizes = {2, 2};
    quotient.class_actions = {8, 8};
    quotient.finalize();
    std::vector<std::vector<util::Rational>> payoff(2);
    for (std::size_t c = 0; c < 2; ++c) {
        payoff[c].assign(8 * quotient.others_orbits(c), util::Rational{0});
    }
    if (lead > 0) {
        std::vector<std::vector<std::size_t>> others(2, std::vector<std::size_t>(8, 0));
        others[0][lead] = 1;
        others[0][lead + 1] = 1;
        others[1][7] = 1;
        payoff[1][7 * quotient.others_orbits(1) + quotient.rank_others(1, others)] =
            util::Rational{1};
    }
    quotient.assign_payoffs(payoff);
    return quotient;
}

}  // namespace bnash::core
