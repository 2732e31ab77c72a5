#include "serve/canonical.h"

#include <algorithm>
#include <charconv>
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

// Each to_chars stops one byte short of the buffer's end, leaving room
// for the separator it is followed by.
void append_size(std::string& out, std::size_t value) {
    char text[21];  // 20 digits and ','
    char* end = std::to_chars(text, text + sizeof text - 1, value).ptr;
    *end++ = ',';
    out.append(text, end);
}

void append_rational(std::string& out, const util::Rational& value) {
    char text[42];  // two signed 19-digit numbers, '/' and ','
    char* end = std::to_chars(text, text + 20, value.num()).ptr;
    *end++ = '/';
    end = std::to_chars(end, text + sizeof text - 1, value.den()).ptr;
    *end++ = ',';
    out.append(text, end);
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

// --- level tables (both paths) ----------------------------------------

// A game's payoffs with each player's levels replaced: cell (rank,
// player) reads levels[player] at the game's ordinal rank. Every
// replacement is strictly increasing, so the game's ranks and level
// counts describe the table too.
struct LevelTable final {
    const game::NormalFormGame& game;
    std::vector<std::vector<util::Rational>> levels;
    [[nodiscard]] const util::Rational& at(std::uint64_t rank, std::size_t player) const {
        return levels[player][game.ordinal_ranks()[rank * game.num_players() + player]];
    }
};

// The table whose levels for each player are relevel(its levels).
template <class Relevel>
[[nodiscard]] LevelTable level_table(const game::NormalFormGame& game, const Relevel& relevel) {
    LevelTable table{game, {}};
    for (std::size_t player = 0; player < game.num_players(); ++player) {
        table.levels.push_back(relevel(game.levels(player)));
    }
    return table;
}

// True when two entries of `keys` are equal (`perm` sorts them).
template <class Key>
[[nodiscard]] bool has_tie(const std::vector<Key>& keys, const std::vector<std::size_t>& perm) {
    return std::adjacent_find(perm.begin(), perm.end(), [&keys](std::size_t a, std::size_t b) {
               return keys[a] == keys[b];
           }) != perm.end();
}

// --- affine path (mixed candidates) ------------------------------------

// One player's levels pushed through the positive affine map sending
// [min, max] to [0, 1] (the offset alone when the payoffs are constant),
// so that players equivalent only up to rescaling still land in one
// class. Throws RationalOverflow when the exact values do not fit.
[[nodiscard]] std::vector<util::Rational> normalized(const std::vector<util::Rational>& levels) {
    const util::Rational& lo = levels.front();
    const util::Rational span = levels.back() - lo;
    const util::Rational scale = span.is_zero() ? util::Rational(1) : span.reciprocal();
    std::vector<util::Rational> out;
    out.reserve(levels.size());
    for (const util::Rational& value : levels) out.push_back((value - lo) * scale);
    return out;
}

// Invariant per-player sort key: action count, then the candidate
// strategy, then the sorted multiset of the table's payoffs (each level
// repeated by its count). Every component is preserved when players are
// relabeled.
[[nodiscard]] std::string player_sort_key(const LevelTable& table,
                                          const game::ExactMixedProfile& profile,
                                          std::size_t player) {
    std::string key;
    append_size(key, table.game.num_actions(player));
    key += '|';
    for (const util::Rational& mass : profile[player]) append_rational(key, mass);
    key += '|';
    const std::vector<std::uint32_t>& counts = table.game.level_counts(player);
    std::string value;
    for (std::size_t level = 0; level < counts.size(); ++level) {
        value.clear();
        append_rational(value, table.levels[player][level]);
        for (std::uint32_t i = 0; i < counts[level]; ++i) key += value;
    }
    return key;
}

// --- symmetry folding (both paths) -------------------------------------

// Label-invariant per-class sort key: the class size, then its
// representative's player sort key. Equivalent uploads order their
// classes identically (ties keep detection order — a cache miss, never
// an unsoundness).
[[nodiscard]] std::string class_sort_key(const LevelTable& table,
                                         const game::ExactMixedProfile& profile,
                                         const std::vector<std::size_t>& members) {
    std::string key;
    append_size(key, members.size());
    key += player_sort_key(table, profile, members.front());
    return key;
}

// Symmetry-folded signature: detect the (finest, verified) symmetry of
// the normalized or rank table (materialized as a game, since detection
// reads a view), refine it by the candidate, and — when
// any class is non-singleton — key on the QUOTIENT bytes plus per-class
// strategies instead of the full tensor. Equal keys imply isomorphic
// tensors with corresponding class-constant candidates, and the quotient
// determines the game up to within-class relabeling, which preserves
// every verdict (the orbit-sweep reduction) — so folding is as sound as
// the dense key. nullopt routes the caller to the dense serialization.
[[nodiscard]] std::optional<std::string> symmetric_signature(
    const LevelTable& table, const game::ExactMixedProfile& profile, std::string_view tag) {
    const game::NormalFormGame norm = table.game.with_levels(table.levels);
    const game::GameView view = game::GameView::full(norm);
    const game::SymmetryGroup refined = game::SymmetryGroup::detect(view).refined_by(profile);
    if (refined.is_trivial()) return std::nullopt;

    const auto& classes = refined.classes();
    std::vector<std::string> keys(classes.size());
    for (std::size_t cls = 0; cls < classes.size(); ++cls) {
        keys[cls] = class_sort_key(table, profile, classes[cls]);
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
    for (std::size_t j = 0; j < quotient.num_classes(); ++j) {
        append_size(bytes, quotient.rank[j].size());
        for (const std::uint32_t rank : quotient.rank[j]) {
            append_rational(bytes, quotient.levels[j][rank]);
        }
    }
    return bytes;
}

// Folding is best-effort: rank arithmetic on degenerate shapes may
// overflow 64 bits, and that must cost dedup, not the request.
[[nodiscard]] std::optional<std::string> try_symmetric_signature(
    const LevelTable& table, const game::ExactMixedProfile& profile, std::string_view tag) {
    try {
        return symmetric_signature(table, profile, tag);
    } catch (const std::overflow_error&) {
        return std::nullopt;
    }
}

// The folded key when the table has a candidate-compatible symmetry,
// else the dense one: the tag, the canonical action counts, the decimal
// payoff tensor in canonical rank order, then the per-player strategies.
// `kind` is "nrm:" or "raw:".
[[nodiscard]] std::string affine_signature(const LevelTable& table,
                                           const game::ExactMixedProfile& profile,
                                           std::string_view kind) {
    const game::NormalFormGame& game = table.game;
    const std::size_t num_players = game.num_players();
    std::vector<std::string> keys(num_players);
    for (std::size_t player = 0; player < num_players; ++player) {
        keys[player] = player_sort_key(table, profile, player);
    }
    const std::vector<std::size_t> perm = canonical_order(keys);
    // detect() only groups players with equal action counts and payoff
    // multisets, and refined_by() then splits them by strategy: unless two
    // players share their whole sort key, the refined group is provably
    // trivial.
    if (has_tie(keys, perm)) {
        if (auto sym =
                try_symmetric_signature(table, profile, "bnashQ1:sym:" + std::string(kind))) {
            return *std::move(sym);
        }
    }
    std::string bytes = "bnashQ1:" + std::string(kind);
    append_size(bytes, num_players);
    for (std::size_t j = 0; j < num_players; ++j) append_size(bytes, game.num_actions(perm[j]));
    bytes += "|u:";
    for_each_canonical_rank(game, perm, [&](std::uint64_t rank) {
        for (std::size_t j = 0; j < num_players; ++j) {
            append_rational(bytes, table.at(rank, perm[j]));
        }
    });
    bytes += "|s:";
    for (std::size_t j = 0; j < num_players; ++j) {
        append_size(bytes, profile[perm[j]].size());
        for (const util::Rational& mass : profile[perm[j]]) append_rational(bytes, mass);
    }
    return bytes;
}

// --- ordinal path (pure candidates) ------------------------------------

// The rank tensor in canonical player order, each rank as `Width`
// little-endian bytes, written to `out` (ranks().size() * Width bytes).
template <std::size_t Width>
void write_ranks(char* out, const game::NormalFormGame& game,
                 const std::vector<std::size_t>& perm) {
    const std::uint32_t* const ranks = game.ordinal_ranks().data();
    const std::size_t num_players = game.num_players();
    for_each_canonical_rank(game, perm, [&](std::uint64_t rank) {
        const std::uint32_t* const row = ranks + rank * num_players;
        for (const std::size_t player : perm) {
            const std::uint32_t value = row[player];
            for (std::size_t byte = 0; byte < Width; ++byte) {
                *out++ = static_cast<char>((value >> (8 * byte)) & 0xffU);
            }
        }
    });
}

// Ordinal key of a pure-candidate upload: the rank tensor in canonical
// player order as fixed-width binary ranks, then the candidate actions,
// or the folded "sym:ord:" key of the rank game.
[[nodiscard]] std::string ordinal_signature(const game::NormalFormGame& game,
                                            const game::ExactMixedProfile& profile,
                                            const game::PureProfile& candidate) {
    const std::vector<std::uint32_t>& ranks = game.ordinal_ranks();
    const std::size_t num_players = game.num_players();
    const std::uint64_t at_candidate = game.profile_rank(candidate);
    // Label-invariant per-player sort keys over the ranks the sweep
    // kernels read: the action count, the candidate action, the rank at
    // the candidate profile, then the level counts (how many profiles sit
    // at each rank).
    std::vector<std::vector<std::uint32_t>> keys(num_players);
    std::size_t max_levels = 0;
    for (std::size_t player = 0; player < num_players; ++player) {
        const std::vector<std::uint32_t>& counts = game.level_counts(player);
        keys[player] = {static_cast<std::uint32_t>(game.num_actions(player)),
                        static_cast<std::uint32_t>(candidate[player]),
                        ranks[at_candidate * num_players + player]};
        keys[player].insert(keys[player].end(), counts.begin(), counts.end());
        max_levels = std::max(max_levels, counts.size());
    }
    const std::vector<std::size_t> perm = canonical_order(keys);
    // detect() only groups players with equal action counts and payoff
    // multisets (on ranks: equal level counts), and refined_by() then
    // splits them by candidate action; exchangeable players with one
    // candidate action also share their payoff at the candidate. Unless
    // two players share their whole sort key, the refined group is
    // provably trivial.
    if (has_tie(keys, perm)) {
        // The rank game: the same ranks, with levels 0..L-1.
        const LevelTable rank_game =
            level_table(game, [](const std::vector<util::Rational>& levels) {
                std::vector<util::Rational> indices;
                for (std::size_t level = 0; level < levels.size(); ++level) {
                    indices.emplace_back(static_cast<std::int64_t>(level));
                }
                return indices;
            });
        if (auto sym = try_symmetric_signature(rank_game, profile, "bnashQ1:sym:ord:")) {
            return *std::move(sym);
        }
    }
    const std::size_t width = max_levels <= 0x100U ? 1 : (max_levels <= 0x10000U ? 2 : 4);

    std::string bytes = "bnashQ1:ord:";
    append_size(bytes, num_players);
    for (std::size_t j = 0; j < num_players; ++j) append_size(bytes, game.num_actions(perm[j]));
    append_size(bytes, width);
    bytes += "|u:";
    const std::size_t block = bytes.size();
    bytes.reserve(block + ranks.size() * width + 4 * num_players + 8);
    bytes.resize(block + ranks.size() * width);
    char* const out = bytes.data() + block;
    switch (width) {
        case 1: write_ranks<1>(out, game, perm); break;
        case 2: write_ranks<2>(out, game, perm); break;
        default: write_ranks<4>(out, game, perm); break;
    }
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
        return {affine_signature(level_table(game, normalized), profile, "nrm:"), true};
    } catch (const util::RationalOverflow&) {
        // Exact normalization does not fit in 64-bit rationals: fall back
        // to the identity map. The "raw:" tag keeps the two key spaces
        // disjoint, so the fallback only costs dedup, never soundness.
        const auto raw = [](const std::vector<util::Rational>& levels) { return levels; };
        return {affine_signature(level_table(game, raw), profile, "raw:"), false};
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
