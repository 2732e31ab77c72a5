// The support-restricted reference for the payoff sweeps: the same view
// with every player cut down to its support, and the profile cut to
// match. The restricted profile has no zero weight, so sweeping it walks
// the view's own columns; sweeping the original profile walks a support
// plan. The two routes visit the same cells in the same order, so on a
// single-block game their doubles agree bitwise, and exact values agree
// everywhere.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "game/game_view.h"

namespace bnash::game {

inline constexpr std::size_t kNoDeviator = static_cast<std::size_t>(-1);

template <typename ProfileT>
struct SupportRestriction {
    GameView view;
    ProfileT profile;
};

// `deviator` (kNoDeviator for none) keeps its whole action range, as a
// deviation row sweeps it.
template <typename ProfileT>
SupportRestriction<ProfileT> restrict_to_support(const GameView& view, const ProfileT& profile,
                                                 std::size_t deviator = kNoDeviator) {
    using V = typename ProfileT::value_type::value_type;
    std::vector<std::vector<std::size_t>> kept(profile.size());
    ProfileT restricted(profile.size());
    for (std::size_t p = 0; p < profile.size(); ++p) {
        for (std::size_t a = 0; a < profile[p].size(); ++a) {
            if (p == deviator || !(profile[p][a] == V{0})) {
                kept[p].push_back(a);
                restricted[p].push_back(profile[p][a]);
            }
        }
    }
    return {view.restrict(kept), std::move(restricted)};
}

}  // namespace bnash::game
