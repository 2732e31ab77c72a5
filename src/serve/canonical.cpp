#include "serve/canonical.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "game/game_view.h"
#include "game/symmetry.h"
#include "util/rational.h"

namespace bnash::serve {

namespace {

void append_size(std::string& out, std::size_t value) {
    out += std::to_string(value);
    out += ',';
}

void append_rational(std::string& out, const util::Rational& value) {
    out += std::to_string(value.num());
    out += '/';
    out += std::to_string(value.den());
    out += ',';
}

// `value` as `width` little-endian bytes.
void append_fixed(std::string& out, std::uint32_t value, std::size_t width) {
    for (std::size_t byte = 0; byte < width; ++byte) {
        out += static_cast<char>((value >> (8 * byte)) & 0xffU);
    }
}

// Players in canonical order: perm[j] = original player at canonical
// position j, stably sorted by their label-invariant keys. Equivalent
// games sort their players identically up to ties, which keep the
// original order — a cache miss, never an unsoundness.
template <class Key>
[[nodiscard]] std::vector<std::size_t> canonical_order(const std::vector<Key>& keys) {
    std::vector<std::size_t> perm(keys.size());
    std::iota(perm.begin(), perm.end(), std::size_t{0});
    std::stable_sort(perm.begin(), perm.end(),
                     [&keys](std::size_t a, std::size_t b) { return keys[a] < keys[b]; });
    return perm;
}

// Visits every profile in CANONICAL rank order — an odometer over the
// permuted action counts, last canonical player fastest — passing the
// profile's ORIGINAL rank, kept incrementally through the strides.
template <class Visit>
void for_each_canonical_rank(const game::NormalFormGame& game,
                             const std::vector<std::size_t>& perm, Visit&& visit) {
    const std::size_t num_players = game.num_players();
    std::vector<std::uint64_t> stride(num_players, 1);
    for (std::size_t player = num_players; player-- > 1;) {
        stride[player - 1] = stride[player] * game.num_actions(player);
    }
    game::PureProfile canonical(num_players, 0);
    std::uint64_t rank = 0;
    bool done = game.num_profiles() == 0;
    while (!done) {
        visit(rank);
        done = true;
        for (std::size_t j = num_players; j-- > 0;) {
            const std::size_t player = perm[j];
            if (++canonical[j] < game.num_actions(player)) {
                rank += stride[player];
                done = false;
                break;
            }
            rank -= (canonical[j] - 1) * stride[player];
            canonical[j] = 0;
        }
    }
}

// --- affine path (mixed candidates) ------------------------------------

// Per-player positive affine map sending [min, max] to [0, 1] (identity
// on the offset when the payoffs are constant). Throws RationalOverflow
// when the exact scaled values do not fit.
struct AffineMap final {
    util::Rational offset;  // min payoff
    util::Rational scale;   // 1 / (max - min), or 1 when constant
    [[nodiscard]] util::Rational apply(const util::Rational& value) const {
        return (value - offset) * scale;
    }
};

[[nodiscard]] std::vector<AffineMap> build_affine_maps(const game::NormalFormGame& game) {
    const std::size_t num_players = game.num_players();
    std::vector<AffineMap> maps(num_players);
    for (std::size_t player = 0; player < num_players; ++player) {
        util::Rational lo = game.payoff_at(0, player);
        util::Rational hi = lo;
        for (std::uint64_t rank = 1; rank < game.num_profiles(); ++rank) {
            const util::Rational& value = game.payoff_at(rank, player);
            if (value < lo) lo = value;
            if (hi < value) hi = value;
        }
        maps[player].offset = lo;
        const util::Rational span = hi - lo;
        maps[player].scale = span.is_zero() ? util::Rational(1) : span.reciprocal();
    }
    return maps;
}

// A game shaped like `game` whose payoff for `player` at profile rank r
// is value(r, player): the normalized or rank tensor that serialization
// and symmetry detection read.
template <class Value>
[[nodiscard]] game::NormalFormGame tabulate(const game::NormalFormGame& game, Value&& value) {
    const std::size_t num_players = game.num_players();
    game::NormalFormGame out(game.action_counts());
    game::PureProfile cell(num_players, 0);
    for (std::uint64_t rank = 0; rank < game.num_profiles(); ++rank) {
        for (std::size_t player = 0; player < num_players; ++player) {
            out.set_payoff(cell, player, value(rank, player));
        }
        for (std::size_t j = num_players; j-- > 0;) {
            if (++cell[j] < game.num_actions(j)) break;
            cell[j] = 0;
        }
    }
    return out;
}

// The game with every payoff pushed through its player's affine map, so
// that players equivalent only up to rescaling still land in one class.
// Throws RationalOverflow like any map application.
[[nodiscard]] game::NormalFormGame apply_maps(const game::NormalFormGame& game,
                                              const std::vector<AffineMap>& maps) {
    return tabulate(game, [&](std::uint64_t rank, std::size_t player) {
        return maps[player].apply(game.payoff_at(rank, player));
    });
}

// Invariant per-player sort key: action count, then the candidate
// strategy, then the sorted multiset of (normalized) payoffs. Every
// component is preserved when players are relabeled.
[[nodiscard]] std::string player_sort_key(const game::NormalFormGame& norm,
                                          const game::ExactMixedProfile& profile,
                                          std::size_t player) {
    std::string key;
    append_size(key, norm.num_actions(player));
    key += '|';
    for (const util::Rational& mass : profile[player]) append_rational(key, mass);
    key += '|';
    std::vector<util::Rational> values;
    values.reserve(norm.num_profiles());
    for (std::uint64_t rank = 0; rank < norm.num_profiles(); ++rank) {
        values.push_back(norm.payoff_at(rank, player));
    }
    std::sort(values.begin(), values.end());
    for (const util::Rational& value : values) append_rational(key, value);
    return key;
}

// Dense serialization of an already-normalized (or raw-fallback) game:
// `tag`, the canonical action counts, the decimal payoff tensor in
// canonical rank order, then the per-player strategies.
[[nodiscard]] std::string serialize(const game::NormalFormGame& norm,
                                    const game::ExactMixedProfile& profile,
                                    std::string_view tag) {
    const std::size_t num_players = norm.num_players();
    std::vector<std::string> keys(num_players);
    for (std::size_t player = 0; player < num_players; ++player) {
        keys[player] = player_sort_key(norm, profile, player);
    }
    const std::vector<std::size_t> perm = canonical_order(keys);

    std::string bytes(tag);
    append_size(bytes, num_players);
    for (std::size_t j = 0; j < num_players; ++j) append_size(bytes, norm.num_actions(perm[j]));
    bytes += "|u:";
    for_each_canonical_rank(norm, perm, [&](std::uint64_t rank) {
        for (std::size_t j = 0; j < num_players; ++j) {
            append_rational(bytes, norm.payoff_at(rank, perm[j]));
        }
    });
    bytes += "|s:";
    for (std::size_t j = 0; j < num_players; ++j) {
        append_size(bytes, profile[perm[j]].size());
        for (const util::Rational& mass : profile[perm[j]]) append_rational(bytes, mass);
    }
    return bytes;
}

// --- symmetry folding (both paths) -------------------------------------

// Label-invariant per-class sort key: the class size, then its
// representative's player sort key. Equivalent uploads order their
// classes identically (ties keep detection order — a cache miss, never
// an unsoundness).
[[nodiscard]] std::string class_sort_key(const game::NormalFormGame& norm,
                                         const game::ExactMixedProfile& profile,
                                         const std::vector<std::size_t>& members) {
    std::string key;
    append_size(key, members.size());
    key += player_sort_key(norm, profile, members.front());
    return key;
}

// Symmetry-folded signature: detect the (finest, verified) symmetry of
// the normalized or rank tensor, refine it by the candidate, and — when
// any class is non-singleton — key on the QUOTIENT bytes plus per-class
// strategies instead of the full tensor. Equal keys imply isomorphic
// tensors with corresponding class-constant candidates, and the quotient
// determines the game up to within-class relabeling, which preserves
// every verdict (the orbit-sweep reduction) — so folding is as sound as
// the dense key. nullopt routes the caller to the dense serialization.
[[nodiscard]] std::optional<std::string> symmetric_signature(
    const game::NormalFormGame& norm, const game::ExactMixedProfile& profile,
    std::string_view tag) {
    const game::GameView view = game::GameView::full(norm);
    const game::SymmetryGroup refined = game::SymmetryGroup::detect(view).refined_by(profile);
    if (refined.is_trivial()) return std::nullopt;

    const auto& classes = refined.classes();
    std::vector<std::string> keys(classes.size());
    for (std::size_t cls = 0; cls < classes.size(); ++cls) {
        keys[cls] = class_sort_key(norm, profile, classes[cls]);
    }
    const std::vector<std::size_t> order = canonical_order(keys);

    // The quotient of the game with its players listed class by class in
    // canonical class order, so keys never depend on detection's class
    // order: on that view the classes are contiguous and in key order.
    std::vector<std::size_t> players;
    std::vector<std::vector<std::size_t>> contiguous(order.size());
    players.reserve(norm.num_players());
    for (std::size_t j = 0; j < order.size(); ++j) {
        for (const std::size_t player : classes[order[j]]) {
            contiguous[j].push_back(players.size());
            players.push_back(player);
        }
    }
    const game::QuotientGame quotient = game::build_quotient(
        game::GameView::permute(norm, players),
        game::SymmetryGroup::declared(std::move(contiguous), players.size()));

    std::string bytes(tag);
    append_size(bytes, quotient.num_classes());
    for (std::size_t j = 0; j < quotient.num_classes(); ++j) {
        append_size(bytes, quotient.class_sizes[j]);
        append_size(bytes, quotient.class_actions[j]);
    }
    bytes += "|s:";
    for (std::size_t j = 0; j < quotient.num_classes(); ++j) {
        const std::size_t rep = classes[order[j]].front();
        append_size(bytes, profile[rep].size());
        for (const util::Rational& mass : profile[rep]) append_rational(bytes, mass);
    }
    bytes += "|u:";
    for (const auto& row : quotient.payoff) {
        append_size(bytes, row.size());
        for (const util::Rational& value : row) append_rational(bytes, value);
    }
    return bytes;
}

// Folding is best-effort: rank arithmetic on degenerate shapes may
// overflow 64 bits, and that must cost dedup, not the request.
[[nodiscard]] std::optional<std::string> try_symmetric_signature(
    const game::NormalFormGame& norm, const game::ExactMixedProfile& profile,
    std::string_view tag) {
    try {
        return symmetric_signature(norm, profile, tag);
    } catch (const std::overflow_error&) {
        return std::nullopt;
    }
}

// The folded key when the tensor has a candidate-compatible symmetry,
// else the dense one. `kind` is "nrm:" or "raw:".
[[nodiscard]] std::string affine_signature(const game::NormalFormGame& norm,
                                           const game::ExactMixedProfile& profile,
                                           std::string_view kind) {
    if (auto sym = try_symmetric_signature(norm, profile, "bnashQ1:sym:" + std::string(kind))) {
        return *std::move(sym);
    }
    return serialize(norm, profile, "bnashQ1:" + std::string(kind));
}

// --- ordinal path (pure candidates) ------------------------------------

// Label-invariant per-player sort keys over the game's ordinal ranks
// (NormalFormGame::ordinal_ranks, shared with the sweep kernels):
// keys[player] is the action count, the candidate action, the rank at
// the candidate profile, then the rank histogram (how many profiles sit
// at each rank level).
struct OrdinalKeys final {
    std::vector<std::vector<std::uint32_t>> keys;
    std::size_t max_levels = 0;
};

[[nodiscard]] OrdinalKeys ordinal_keys(const game::NormalFormGame& game,
                                       const std::vector<std::uint32_t>& ranks,
                                       const game::PureProfile& candidate) {
    const std::size_t num_players = game.num_players();
    const std::size_t profiles = game.num_profiles();
    const std::uint64_t at_candidate = game.profile_rank(candidate);
    OrdinalKeys out;
    out.keys.resize(num_players);
    std::vector<std::uint32_t> histogram;
    for (std::size_t player = 0; player < num_players; ++player) {
        histogram.clear();
        for (std::size_t rank = 0; rank < profiles; ++rank) {
            const std::uint32_t level = ranks[rank * num_players + player];
            if (level >= histogram.size()) histogram.resize(level + 1, 0);
            ++histogram[level];
        }
        std::vector<std::uint32_t>& key = out.keys[player];
        key = {static_cast<std::uint32_t>(game.num_actions(player)),
               static_cast<std::uint32_t>(candidate[player]),
               ranks[at_candidate * num_players + player]};
        key.insert(key.end(), histogram.begin(), histogram.end());
        out.max_levels = std::max(out.max_levels, histogram.size());
    }
    return out;
}

// Ordinal key of a pure-candidate upload: the rank tensor in canonical
// player order as fixed-width binary ranks, then the candidate actions,
// or the folded "sym:ord:" key of the rank game.
[[nodiscard]] std::string ordinal_signature(const game::NormalFormGame& game,
                                            const game::ExactMixedProfile& profile,
                                            const game::PureProfile& candidate) {
    const std::vector<std::uint32_t>& ranks = game.ordinal_ranks();
    const OrdinalKeys ord = ordinal_keys(game, ranks, candidate);
    const std::size_t num_players = game.num_players();
    const std::vector<std::size_t> perm = canonical_order(ord.keys);
    // detect() only groups players with equal action counts and payoff
    // multisets (on ranks: equal histograms), and refined_by() then
    // splits them by candidate action; exchangeable players with one
    // candidate action also share their payoff at the candidate. Unless
    // two players share their whole sort key, the refined group is
    // provably trivial.
    const bool tied = std::adjacent_find(perm.begin(), perm.end(),
                                         [&ord](std::size_t a, std::size_t b) {
                                             return ord.keys[a] == ord.keys[b];
                                         }) != perm.end();
    if (tied) {
        const game::NormalFormGame rank_game =
            tabulate(game, [&](std::uint64_t rank, std::size_t player) {
                return util::Rational(ranks[rank * num_players + player]);
            });
        if (auto sym = try_symmetric_signature(rank_game, profile, "bnashQ1:sym:ord:")) {
            return *std::move(sym);
        }
    }
    const std::size_t width = ord.max_levels <= 0x100U ? 1 : (ord.max_levels <= 0x10000U ? 2 : 4);

    std::string bytes = "bnashQ1:ord:";
    append_size(bytes, num_players);
    for (std::size_t j = 0; j < num_players; ++j) append_size(bytes, game.num_actions(perm[j]));
    append_size(bytes, width);
    bytes += "|u:";
    bytes.reserve(bytes.size() + ranks.size() * width + 4 * num_players + 8);
    for_each_canonical_rank(game, perm, [&](std::uint64_t rank) {
        for (std::size_t j = 0; j < num_players; ++j) {
            append_fixed(bytes, ranks[rank * num_players + perm[j]], width);
        }
    });
    bytes += "|s:";
    for (std::size_t j = 0; j < num_players; ++j) append_size(bytes, candidate[perm[j]]);
    return bytes;
}

}  // namespace

CanonicalSignature canonical_signature(const game::NormalFormGame& game,
                                       const game::ExactMixedProfile& profile) {
    if (const auto candidate = core::as_pure_profile(profile)) {
        return {ordinal_signature(game, profile, *candidate), true};
    }
    try {
        return {affine_signature(apply_maps(game, build_affine_maps(game)), profile, "nrm:"),
                true};
    } catch (const util::RationalOverflow&) {
        // Exact normalization does not fit in 64-bit rationals: fall back
        // to the identity map. The "raw:" tag keeps the two key spaces
        // disjoint, so the fallback only costs dedup, never soundness.
        return {affine_signature(game, profile, "raw:"), false};
    }
}

std::string canonical_key(const game::NormalFormGame& game,
                          const game::ExactMixedProfile& profile, std::size_t k, std::size_t t,
                          core::GainCriterion criterion) {
    std::string key = canonical_signature(game, profile).bytes;
    key += "|q:";
    append_size(key, k);
    append_size(key, t);
    append_size(key, static_cast<std::size_t>(criterion));
    return key;
}

}  // namespace bnash::serve
