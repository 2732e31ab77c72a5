#include "game/payoff_engine.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "game/game_view.h"
#include "util/audit.h"
#include "util/combinatorics.h"
#include "util/execution_grant.h"
#include "util/offset_walker.h"
#include "util/thread_pool.h"
#include "util/work_counters.h"

namespace bnash::game {
namespace {

inline bool sweep_zero(double value) { return value == 0.0; }
inline bool sweep_zero(const util::Rational& value) { return value.is_zero(); }

// double for a MixedProfile, util::Rational for an ExactMixedProfile.
template <typename ProfileT>
using ValueOf = typename ProfileT::value_type::value_type;

// Tensor accessors: the sweep kernels are generic over how a view
// player's payoff is read from a payoff row. `make_walker()` yields a
// util::OffsetWalker over the view's per-digit cell-offset tables (the
// ONE incremental odometer every kernel steps, straight into the parent
// tensor: zero copy), and `at(row, i)` reads view player i's payoff from
// the walker's current row.
struct ViewRows {
    const GameView* view;
    [[nodiscard]] util::OffsetWalker make_walker() const {
        util::OffsetWalker walker;
        walker.reserve(view->num_players());
        for (std::size_t p = 0; p < view->num_players(); ++p) {
            const auto& column = view->cell_offsets(p);
            walker.add_digit(column.data(), column.size());
        }
        return walker;
    }
};

// The view's player map is the identity (the full game and its action
// restrictions): view player i reads row + i, so a whole row is
// contiguous and the all-player accumulation vectorizes (kContiguousRow).
template <typename V>
struct IdentityRows : ViewRows {
    const V* data;  // the parent's flat tensor
    static constexpr bool kContiguousRow = true;
    [[nodiscard]] const V* row_ptr(std::uint64_t row) const noexcept { return data + row; }
    [[nodiscard]] const V& at(std::uint64_t row, std::size_t i) const noexcept {
        return data[row + i];
    }
};

// A player-permuted view reads through its player column map.
template <typename V>
struct MappedRows : ViewRows {
    static constexpr bool kContiguousRow = false;
    [[nodiscard]] decltype(auto) at(std::uint64_t row, std::size_t i) const {
        if constexpr (std::is_same_v<V, double>) {
            return view->payoff_d_from(row, i);
        } else {
            return view->payoff_from(row, i);
        }
    }
};

// Runs `sweep(acc)` with the accessor the view's layout allows. The
// choice is a property of the input, and both accessors accumulate in the
// same order, so results are bit-identical either way.
template <typename V, typename Sweep>
void with_rows(const GameView& view, const Sweep& sweep) {
    if (!view.identity_player_map()) {
        sweep(MappedRows<V>{{&view}});
    } else if constexpr (std::is_same_v<V, double>) {
        sweep(IdentityRows<V>{{&view}, view.parent().payoffs_d_flat().data()});
    } else {
        sweep(IdentityRows<V>{{&view}, view.parent().payoffs_flat().data()});
    }
}

// totals[i] += weight * row[i] for every player. On contiguous rows the
// loop is elementwise-independent, so the double mirror vectorizes
// (enabled with -fopenmp-simd; each totals[i] keeps its own accumulator,
// so SIMD changes no accumulation order and results stay bit-identical).
template <typename V, typename Acc>
inline void accumulate_all(const Acc& acc, std::uint64_t row, const V& weight,
                           std::vector<V>& totals) {
    const std::size_t n = totals.size();
    if constexpr (Acc::kContiguousRow) {
        const V* cells = acc.row_ptr(row);
        V* out = totals.data();
#pragma omp simd
        for (std::size_t i = 0; i < n; ++i) out[i] += weight * cells[i];
    } else {
        for (std::size_t i = 0; i < n; ++i) totals[i] += weight * acc.at(row, i);
    }
}

// Accumulates every player's deviation payoffs over ranks [begin, end).
// Prefix/suffix probability products give weight_excluding(i) for all i
// in O(players) per profile — the marginalization that replaces the
// seed's one-full-sweep-per-(player, action).
template <typename V, typename ProfileT, typename Acc>
void deviation_block(const ProfileT& profile, const Acc& acc, std::uint64_t begin,
                     std::uint64_t end, std::vector<std::vector<V>>& dev) {
    const std::size_t n = profile.size();
    util::OffsetWalker walker = acc.make_walker();
    walker.seek(begin);
    const auto& tuple = walker.tuple();
    std::vector<V> prefix(n + 1, V{1});
    std::vector<V> suffix(n + 1, V{1});
    for (std::uint64_t rank = begin; rank < end; ++rank) {
        for (std::size_t i = 0; i < n; ++i) {
            prefix[i + 1] = prefix[i] * profile[i][tuple[i]];
        }
        for (std::size_t i = n; i-- > 0;) {
            suffix[i] = suffix[i + 1] * profile[i][tuple[i]];
        }
        const std::uint64_t row = walker.row();
        for (std::size_t i = 0; i < n; ++i) {
            const V weight = prefix[i] * suffix[i + 1];
            if (!sweep_zero(weight)) dev[i][tuple[i]] += weight * acc.at(row, i);
        }
        (void)walker.advance();
    }
    util::work_counters_add(end - begin, walker.digit_moves());
}

// One player's deviation row only (best_responses against a fixed rival
// profile needs nothing else).
template <typename V, typename ProfileT, typename Acc>
void deviation_row_block(const ProfileT& profile, const Acc& acc, std::size_t player,
                         std::uint64_t begin, std::uint64_t end, std::vector<V>& dev_row) {
    const std::size_t n = profile.size();
    util::OffsetWalker walker = acc.make_walker();
    walker.seek(begin);
    const auto& tuple = walker.tuple();
    for (std::uint64_t rank = begin; rank < end; ++rank) {
        V weight{1};
        for (std::size_t i = 0; i < n && !sweep_zero(weight); ++i) {
            if (i != player) weight *= profile[i][tuple[i]];
        }
        if (!sweep_zero(weight)) {
            dev_row[tuple[player]] += weight * acc.at(walker.row(), player);
        }
        (void)walker.advance();
    }
    util::work_counters_add(end - begin, walker.digit_moves());
}

// One player's expected payoff: the weight product is still O(players)
// per profile, but only a single accumulation — on the exact path each
// accumulation is a Rational multiply-add, so single-player callers (the
// robustness Evaluator's mixed fallback) skip n-1 of them.
template <typename V, typename ProfileT, typename Acc>
void expected_single_block(const ProfileT& profile, const Acc& acc, std::size_t player,
                           std::uint64_t begin, std::uint64_t end, V& total) {
    const std::size_t n = profile.size();
    util::OffsetWalker walker = acc.make_walker();
    walker.seek(begin);
    const auto& tuple = walker.tuple();
    for (std::uint64_t rank = begin; rank < end; ++rank) {
        V weight{1};
        for (std::size_t i = 0; i < n && !sweep_zero(weight); ++i) {
            weight *= profile[i][tuple[i]];
        }
        if (!sweep_zero(weight)) total += weight * acc.at(walker.row(), player);
        (void)walker.advance();
    }
    util::work_counters_add(end - begin, walker.digit_moves());
}

// All players' expected payoffs: one weight product per profile.
template <typename V, typename ProfileT, typename Acc>
void expected_block(const ProfileT& profile, const Acc& acc, std::uint64_t begin,
                    std::uint64_t end, std::vector<V>& totals) {
    const std::size_t n = profile.size();
    util::OffsetWalker walker = acc.make_walker();
    walker.seek(begin);
    const auto& tuple = walker.tuple();
    for (std::uint64_t rank = begin; rank < end; ++rank) {
        V weight{1};
        for (std::size_t i = 0; i < n && !sweep_zero(weight); ++i) {
            weight *= profile[i][tuple[i]];
        }
        if (!sweep_zero(weight)) accumulate_all(acc, walker.row(), weight, totals);
        (void)walker.advance();
    }
    util::work_counters_add(end - begin, walker.digit_moves());
}

using BlockRanges = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

// [0, num_profiles) in kParallelBlock-sized chunks.
BlockRanges uniform_blocks(std::uint64_t num_profiles) {
    constexpr std::uint64_t kBlock = PayoffEngine::kParallelBlock;
    BlockRanges blocks;
    blocks.reserve(static_cast<std::size_t>((num_profiles + kBlock - 1) / kBlock));
    for (std::uint64_t lo = 0; lo < num_profiles; lo += kBlock) {
        blocks.emplace_back(lo, std::min(num_profiles, lo + kBlock));
    }
    return blocks;
}

// Elementwise into += part, recursing through nested tables.
template <typename V>
void add_into(V& into, const V& part) {
    into += part;
}
template <typename V>
void add_into(std::vector<V>& into, const std::vector<V>& part) {
    for (std::size_t i = 0; i < into.size(); ++i) add_into(into[i], part[i]);
}

// Runs block_fn over the given rank ranges into per-block accumulators
// (util::for_blocks: via the global pool in kAuto mode when it has
// capacity) and merges in block order. `out` holds zeros on entry; each
// block's accumulator starts as a copy of it. The decomposition is an
// explicit input — the dense sweeps pass uniform kParallelBlock chunks
// and the sparse sweeps pass the SAME dense boundaries mapped into
// support-rank space — so kAuto and kSerial (and dense and sparse) agree
// bit-for-bit. Blocks of an expired grant are skipped in both modes: a
// truncated reduction yields partial sums, and grant users must discard
// results when expired() after the call.
template <typename Table, typename BlockFn>
void blocked_sweep(const BlockRanges& blocks, SweepMode mode, Table& out,
                   const BlockFn& block_fn) {
    if (blocks.size() == 1) {
        util::ExecutionGrant* const grant = util::active_grant();
        if (grant != nullptr && grant->expired()) return;
        block_fn(blocks[0].first, blocks[0].second, out);
        return;
    }
    // Every accumulator starts as zeros, so a block the grant skipped
    // merges as zeros.
    std::vector<Table> partial(blocks.size(), out);
    util::for_blocks(blocks.size(), mode == SweepMode::kAuto, [&](std::size_t block) {
        block_fn(blocks[block].first, blocks[block].second, partial[block]);
    });
    for (const Table& part : partial) add_into(out, part);
}

template <typename V>
std::vector<std::vector<V>> make_table(const std::vector<std::size_t>& counts) {
    std::vector<std::vector<V>> table(counts.size());
    for (std::size_t i = 0; i < counts.size(); ++i) table[i].assign(counts[i], V{0});
    return table;
}

template <typename ProfileT>
void validate_profile_shape(const GameView& view, const ProfileT& profile, const char* what) {
    if (profile.size() != view.num_players()) {
        throw std::invalid_argument(std::string(what) + ": width");
    }
    for (std::size_t i = 0; i < profile.size(); ++i) {
        if (profile[i].size() != view.num_actions(i)) {
            throw std::invalid_argument(std::string(what) + ": strategy size for player " +
                                        std::to_string(i));
        }
    }
}

// --- dense sweeps: one per quantity ------------------------------------------

template <typename ProfileT>
auto deviation_sweep(const GameView& view, const ProfileT& profile, SweepMode mode,
                     const char* what) {
    using V = ValueOf<ProfileT>;
    validate_profile_shape(view, profile, what);
    auto dev = make_table<V>(view.action_counts());
    with_rows<V>(view, [&](const auto& acc) {
        blocked_sweep(uniform_blocks(view.num_profiles()), mode, dev,
                      [&](std::uint64_t lo, std::uint64_t hi, std::vector<std::vector<V>>& table) {
                          deviation_block<V>(profile, acc, lo, hi, table);
                      });
    });
    return dev;
}

template <typename ProfileT>
auto expected_sweep(const GameView& view, const ProfileT& profile, SweepMode mode,
                    const char* what) {
    using V = ValueOf<ProfileT>;
    validate_profile_shape(view, profile, what);
    std::vector<V> totals(view.num_players(), V{0});
    with_rows<V>(view, [&](const auto& acc) {
        blocked_sweep(uniform_blocks(view.num_profiles()), mode, totals,
                      [&](std::uint64_t lo, std::uint64_t hi, std::vector<V>& table) {
                          expected_block<V>(profile, acc, lo, hi, table);
                      });
    });
    return totals;
}

template <typename ProfileT>
auto expected_single_sweep(const GameView& view, const ProfileT& profile, std::size_t player,
                           const char* what) {
    using V = ValueOf<ProfileT>;
    validate_profile_shape(view, profile, what);
    V total{0};
    with_rows<V>(view, [&](const auto& acc) {
        blocked_sweep(uniform_blocks(view.num_profiles()), SweepMode::kAuto, total,
                      [&](std::uint64_t lo, std::uint64_t hi, V& table) {
                          expected_single_block<V>(profile, acc, player, lo, hi, table);
                      });
    });
    return total;
}

template <typename ProfileT>
auto row_sweep(const GameView& view, const ProfileT& profile, std::size_t player,
               const char* what) {
    using V = ValueOf<ProfileT>;
    validate_profile_shape(view, profile, what);
    std::vector<V> row(view.num_actions(player), V{0});
    with_rows<V>(view, [&](const auto& acc) {
        blocked_sweep(uniform_blocks(view.num_profiles()), SweepMode::kAuto, row,
                      [&](std::uint64_t lo, std::uint64_t hi, std::vector<V>& table) {
                          deviation_row_block<V>(profile, acc, player, lo, hi, table);
                      });
    });
    return row;
}

// --- sparse-support machinery ------------------------------------------------
//
// The shared game::SupportPlan (see payoff_engine.h) restricts each digit
// to the profile's support (the actions with nonzero probability),
// keeping the support actions in ascending order so the support walk
// visits exactly the profiles the dense sweep would NOT have skipped, in
// the same row-major order. A `full_player` digit (the deviating player
// of a deviation-row sweep) keeps its whole action range. Offset tables
// are materialized per plan (support-indexed slices of the view's
// cell-offset columns).

constexpr std::size_t kNoFullPlayer = SupportPlan::kNoFullPlayer;

template <typename ProfileT>
SupportPlan support_plan(const GameView& view, const ProfileT& profile,
                         std::size_t full_player) {
    const std::size_t n = profile.size();
    SupportPlan plan;
    plan.actions.resize(n);
    plan.offsets.resize(n);
    plan.radices.resize(n);
    for (std::size_t p = 0; p < n; ++p) {
        const auto& column = view.cell_offsets(p);
        if (p == full_player) {
            plan.actions[p].resize(column.size());
            for (std::size_t a = 0; a < column.size(); ++a) plan.actions[p][a] = a;
            plan.offsets[p] = column;
        } else {
            for (std::size_t a = 0; a < profile[p].size(); ++a) {
                if (!sweep_zero(profile[p][a])) {
                    plan.actions[p].push_back(a);
                    plan.offsets[p].push_back(column[a]);
                }
            }
            if (plan.actions[p].empty()) {
                plan.dead = true;
                return plan;
            }
        }
        plan.radices[p] = plan.actions[p].size();
    }
    plan.num_tuples = util::product_size(plan.radices);
    return plan;
}

// Support-space block boundaries aligned with the DENSE sweep's
// kParallelBlock cuts in full-rank space: partial accumulators merge at
// exactly the same summation boundaries as the dense sweep, which is
// what makes sparse results bit-identical to dense in every mode. One
// entry per NON-EMPTY dense block (adding an all-zero partial table is a
// bitwise no-op: accumulators start at +0.0 and x + 0.0 == x for every
// reachable x, so empty dense blocks are skipped).
BlockRanges support_blocks(const GameView& view, const SupportPlan& plan) {
    constexpr std::uint64_t kBlock = PayoffEngine::kParallelBlock;
    const auto& full_counts = view.action_counts();
    const std::uint64_t full_profiles = view.num_profiles();
    BlockRanges blocks;
    if (plan.num_tuples == 0) return blocks;
    if (full_profiles <= kBlock) {
        blocks.emplace_back(0, plan.num_tuples);
        return blocks;
    }
    const std::size_t n = plan.radices.size();
    std::vector<std::uint64_t> tail(n + 1, 1);
    for (std::size_t d = n; d-- > 0;) tail[d] = tail[d + 1] * plan.radices[d];
    // Support tuples with full-space rank strictly below `bound`.
    const auto count_below = [&](std::uint64_t bound) -> std::uint64_t {
        const auto digits = util::product_unrank(full_counts, bound);
        std::uint64_t count = 0;
        for (std::size_t d = 0; d < n; ++d) {
            const auto& supp = plan.actions[d];
            const auto it = std::lower_bound(supp.begin(), supp.end(), digits[d]);
            count += static_cast<std::uint64_t>(it - supp.begin()) * tail[d + 1];
            if (it == supp.end() || *it != digits[d]) return count;
        }
        return count;
    };
    std::uint64_t begin = 0;
    while (begin < plan.num_tuples) {
        // Full-space rank of support tuple `begin` -> its dense block.
        const auto tuple = util::product_unrank(plan.radices, begin);
        std::uint64_t full_rank = 0;
        for (std::size_t d = 0; d < n; ++d) {
            full_rank = full_rank * full_counts[d] + plan.actions[d][tuple[d]];
        }
        const std::uint64_t bound = (full_rank / kBlock + 1) * kBlock;
        const std::uint64_t end =
            bound >= full_profiles ? plan.num_tuples : count_below(bound);
        blocks.emplace_back(begin, end);
        begin = end;
    }
    return blocks;
}

#if BNASH_AUDIT_ENABLED
// From-scratch left-fold of the support weights up to `upto`. The fold
// order matches the incremental prefix exactly — ((1*x0)*x1)*... — so for
// doubles the comparison is bit-identical, not approximate.
template <typename V, typename ProfileT>
[[nodiscard]] V audit_support_weight(const SupportPlan& plan, const ProfileT& profile,
                                     const std::vector<std::size_t>& tuple,
                                     std::size_t upto) {
    V full{1};
    for (std::size_t j = 0; j < upto; ++j) {
        full = full * profile[j][plan.actions[j][tuple[j]]];
    }
    return full;
}
#endif

// Sparse expected sweep over one block: the weight is the same left-fold
// product the dense kernel computes, but only digits at or above the
// walker's lowest changed digit recompute (incremental prefix products).
template <typename V, typename ProfileT, typename Acc>
void sparse_expected_block(const SupportPlan& plan, const ProfileT& profile, const Acc& acc,
                           std::uint64_t begin, std::uint64_t end, std::vector<V>& totals) {
    const std::size_t n = plan.radices.size();
    util::OffsetWalker walker = plan.make_walker();
    walker.seek(begin);
    const auto& tuple = walker.tuple();
    std::vector<V> prefix(n + 1, V{1});
    std::size_t from = 0;
    for (std::uint64_t rank = begin; rank < end; ++rank) {
        for (std::size_t j = from; j < n; ++j) {
            prefix[j + 1] = prefix[j] * profile[j][plan.actions[j][tuple[j]]];
        }
        BNASH_AUDIT_CHECK(
            prefix[n] == (audit_support_weight<V>(plan, profile, tuple, n)),
            "sparse_expected_block: incremental prefix product drifted from a "
            "from-scratch left-fold of the support weights");
        if (!sweep_zero(prefix[n])) accumulate_all(acc, walker.row(), prefix[n], totals);
        (void)walker.advance();
        from = walker.lowest_changed();
    }
    util::work_counters_add(end - begin, walker.digit_moves());
}

template <typename V, typename ProfileT, typename Acc>
void sparse_expected_single_block(const SupportPlan& plan, const ProfileT& profile,
                                  const Acc& acc, std::size_t player, std::uint64_t begin,
                                  std::uint64_t end, V& total) {
    const std::size_t n = plan.radices.size();
    util::OffsetWalker walker = plan.make_walker();
    walker.seek(begin);
    const auto& tuple = walker.tuple();
    std::vector<V> prefix(n + 1, V{1});
    std::size_t from = 0;
    for (std::uint64_t rank = begin; rank < end; ++rank) {
        for (std::size_t j = from; j < n; ++j) {
            prefix[j + 1] = prefix[j] * profile[j][plan.actions[j][tuple[j]]];
        }
        BNASH_AUDIT_CHECK(
            prefix[n] == (audit_support_weight<V>(plan, profile, tuple, n)),
            "sparse_expected_single_block: incremental prefix product drifted "
            "from a from-scratch left-fold of the support weights");
        if (!sweep_zero(prefix[n])) total += prefix[n] * acc.at(walker.row(), player);
        (void)walker.advance();
        from = walker.lowest_changed();
    }
    util::work_counters_add(end - begin, walker.digit_moves());
}

// One player's deviation row, walking that player's FULL action range and
// everyone else's support. weight = prefix[player] * tail reproduces the
// dense kernel's prefix[i] * suffix[i+1] fold exactly (same operand
// order), so the row is bit-identical to the dense deviation table's.
template <typename V, typename ProfileT, typename Acc>
void sparse_row_block(const SupportPlan& plan, const ProfileT& profile, const Acc& acc,
                      std::size_t player, std::uint64_t begin, std::uint64_t end,
                      std::vector<V>& dev_row) {
    const std::size_t n = plan.radices.size();
    util::OffsetWalker walker = plan.make_walker();
    walker.seek(begin);
    const auto& tuple = walker.tuple();
    std::vector<V> prefix(player + 1, V{1});
    std::size_t from = 0;
    for (std::uint64_t rank = begin; rank < end; ++rank) {
        for (std::size_t j = from; j < player; ++j) {
            prefix[j + 1] = prefix[j] * profile[j][plan.actions[j][tuple[j]]];
        }
        BNASH_AUDIT_CHECK(
            prefix[player] == (audit_support_weight<V>(plan, profile, tuple, player)),
            "sparse_row_block: incremental prefix product drifted from a "
            "from-scratch left-fold of the opponents' support weights");
        V tail{1};
        for (std::size_t j = n; j-- > player + 1;) {
            tail = tail * profile[j][plan.actions[j][tuple[j]]];
        }
        const V weight = prefix[player] * tail;
        if (!sweep_zero(weight)) {
            dev_row[tuple[player]] += weight * acc.at(walker.row(), player);
        }
        (void)walker.advance();
        from = walker.lowest_changed();
    }
    util::work_counters_add(end - begin, walker.digit_moves());
}

template <typename ProfileT>
auto sparse_expected_sweep(const GameView& view, const ProfileT& profile, SweepMode mode,
                           const char* what) {
    using V = ValueOf<ProfileT>;
    validate_profile_shape(view, profile, what);
    std::vector<V> totals(view.num_players(), V{0});
    const auto plan = support_plan(view, profile, kNoFullPlayer);
    if (plan.dead) return totals;
    with_rows<V>(view, [&](const auto& acc) {
        blocked_sweep(support_blocks(view, plan), mode, totals,
                      [&](std::uint64_t lo, std::uint64_t hi, std::vector<V>& table) {
                          sparse_expected_block<V>(plan, profile, acc, lo, hi, table);
                      });
    });
    return totals;
}

template <typename ProfileT>
auto sparse_expected_single_sweep(const GameView& view, const ProfileT& profile,
                                  std::size_t player, const char* what) {
    using V = ValueOf<ProfileT>;
    validate_profile_shape(view, profile, what);
    V total{0};
    const auto plan = support_plan(view, profile, kNoFullPlayer);
    if (plan.dead) return total;
    with_rows<V>(view, [&](const auto& acc) {
        blocked_sweep(support_blocks(view, plan), SweepMode::kAuto, total,
                      [&](std::uint64_t lo, std::uint64_t hi, V& table) {
                          sparse_expected_single_block<V>(plan, profile, acc, player, lo, hi,
                                                          table);
                      });
    });
    return total;
}

template <typename ProfileT>
auto sparse_deviation_sweep(const GameView& view, const ProfileT& profile, SweepMode mode,
                            const char* what) {
    using V = ValueOf<ProfileT>;
    validate_profile_shape(view, profile, what);
    auto dev = make_table<V>(view.action_counts());
    with_rows<V>(view, [&](const auto& acc) {
        for (std::size_t player = 0; player < dev.size(); ++player) {
            const auto plan = support_plan(view, profile, player);
            if (plan.dead) continue;  // a rival support is empty: all weights are zero
            blocked_sweep(support_blocks(view, plan), mode, dev[player],
                          [&](std::uint64_t lo, std::uint64_t hi, std::vector<V>& table) {
                              sparse_row_block<V>(plan, profile, acc, player, lo, hi, table);
                          });
        }
    });
    return dev;
}

}  // namespace

util::OffsetWalker SupportPlan::make_walker() const {
#if BNASH_AUDIT_ENABLED
    // Plan invariants every sparse kernel leans on: parallel arrays stay
    // parallel, radices mirror the support widths, and num_tuples is the
    // true product (a dead plan never reaches a walker).
    BNASH_AUDIT_CHECK(actions.size() == offsets.size() && radices.size() == offsets.size(),
                      "SupportPlan::make_walker: actions/offsets/radices widths diverged");
    std::uint64_t tuples = 1;
    for (std::size_t p = 0; p < offsets.size(); ++p) {
        BNASH_AUDIT_CHECK(actions[p].size() == offsets[p].size() &&
                              radices[p] == offsets[p].size(),
                          "SupportPlan::make_walker: a player's support arrays "
                          "disagree on its radix");
        tuples *= offsets[p].size();
    }
    BNASH_AUDIT_CHECK(dead || tuples == num_tuples,
                      "SupportPlan::make_walker: num_tuples is not the product of "
                      "the support radices");
#endif
    util::OffsetWalker walker;
    walker.reserve(offsets.size());
    for (const auto& column : offsets) walker.add_digit(column.data(), column.size());
    return walker;
}

SupportPlan build_support_plan(const GameView& view, const ExactMixedProfile& profile,
                               std::size_t full_player) {
    return support_plan(view, profile, full_player);
}

SupportPlan build_support_plan_from_dists(const std::vector<std::vector<double>>& dists,
                                          const std::vector<std::uint64_t>& strides) {
    const std::size_t n = dists.size();
    if (strides.size() != n) {
        throw std::invalid_argument("build_support_plan_from_dists: stride width");
    }
    SupportPlan plan;
    plan.actions.resize(n);
    plan.offsets.resize(n);
    plan.radices.resize(n);
    for (std::size_t p = 0; p < n; ++p) {
        for (std::size_t a = 0; a < dists[p].size(); ++a) {
            if (dists[p][a] > 0.0) {
                plan.actions[p].push_back(a);
                plan.offsets[p].push_back(static_cast<std::uint64_t>(a) * strides[p]);
            }
        }
        if (plan.actions[p].empty()) {
            plan.dead = true;
            return plan;
        }
        plan.radices[p] = plan.actions[p].size();
    }
    plan.num_tuples = util::product_size(plan.radices);
    return plan;
}

PayoffEngine::PayoffEngine(const NormalFormGame& game) {
    const auto& counts = game.action_counts();
    strides_.assign(counts.size(), 1);
    for (std::size_t i = counts.size() - 1; i-- > 0;) {
        strides_[i] = strides_[i + 1] * counts[i + 1];
    }
}

std::uint64_t PayoffEngine::rank_of(const PureProfile& profile) const {
    std::uint64_t rank = 0;
    for (std::size_t i = 0; i < strides_.size(); ++i) {
        rank += profile[i] * strides_[i];
    }
    return rank;
}

double PayoffEngine::regret_from(const DeviationTable& dev, const MixedProfile& profile) {
    double worst = 0.0;
    for (std::size_t i = 0; i < dev.size(); ++i) {
        double current = 0.0;
        double best = -std::numeric_limits<double>::infinity();
        for (std::size_t a = 0; a < dev[i].size(); ++a) {
            current += profile[i][a] * dev[i][a];
            best = std::max(best, dev[i][a]);
        }
        worst = std::max(worst, best - current);
    }
    return worst;
}

std::vector<std::size_t> PayoffEngine::best_responses_from(const std::vector<double>& row,
                                                           double tol) {
    double best = -std::numeric_limits<double>::infinity();
    for (const double value : row) best = std::max(best, value);
    std::vector<std::size_t> out;
    for (std::size_t action = 0; action < row.size(); ++action) {
        if (row[action] >= best - tol) out.push_back(action);
    }
    return out;
}

// --- the sweep entries --------------------------------------------------------

std::vector<double> expected_payoffs(const GameView& view, const MixedProfile& profile,
                                     SweepMode mode) {
    return expected_sweep(view, profile, mode, "expected_payoffs");
}

double expected_payoff(const GameView& view, const MixedProfile& profile, std::size_t player) {
    return expected_single_sweep(view, profile, player, "expected_payoff");
}

DeviationTable deviation_payoffs_all(const GameView& view, const MixedProfile& profile,
                                     SweepMode mode) {
    return deviation_sweep(view, profile, mode, "deviation_payoffs_all");
}

std::vector<double> deviation_row(const GameView& view, const MixedProfile& profile,
                                  std::size_t player) {
    return row_sweep(view, profile, player, "deviation_row");
}

std::vector<util::Rational> expected_payoffs_exact(const GameView& view,
                                                   const ExactMixedProfile& profile,
                                                   SweepMode mode) {
    return expected_sweep(view, profile, mode, "expected_payoffs_exact");
}

util::Rational expected_payoff_exact(const GameView& view, const ExactMixedProfile& profile,
                                     std::size_t player) {
    return expected_single_sweep(view, profile, player, "expected_payoff_exact");
}

ExactDeviationTable deviation_payoffs_all_exact(const GameView& view,
                                                const ExactMixedProfile& profile,
                                                SweepMode mode) {
    return deviation_sweep(view, profile, mode, "deviation_payoffs_all_exact");
}

std::vector<util::Rational> deviation_row_exact(const GameView& view,
                                                const ExactMixedProfile& profile,
                                                std::size_t player) {
    return row_sweep(view, profile, player, "deviation_row_exact");
}

std::vector<double> expected_payoffs_sparse(const GameView& view, const MixedProfile& profile,
                                            SweepMode mode) {
    return sparse_expected_sweep(view, profile, mode, "expected_payoffs_sparse");
}

double expected_payoff_sparse(const GameView& view, const MixedProfile& profile,
                              std::size_t player) {
    return sparse_expected_single_sweep(view, profile, player, "expected_payoff_sparse");
}

DeviationTable deviation_payoffs_all_sparse(const GameView& view, const MixedProfile& profile,
                                            SweepMode mode) {
    return sparse_deviation_sweep(view, profile, mode, "deviation_payoffs_all_sparse");
}

std::vector<util::Rational> expected_payoffs_exact_sparse(const GameView& view,
                                                          const ExactMixedProfile& profile,
                                                          SweepMode mode) {
    return sparse_expected_sweep(view, profile, mode, "expected_payoffs_exact_sparse");
}

util::Rational expected_payoff_exact_sparse(const GameView& view,
                                            const ExactMixedProfile& profile,
                                            std::size_t player) {
    return sparse_expected_single_sweep(view, profile, player, "expected_payoff_exact_sparse");
}

ExactDeviationTable deviation_payoffs_all_exact_sparse(const GameView& view,
                                                       const ExactMixedProfile& profile,
                                                       SweepMode mode) {
    return sparse_deviation_sweep(view, profile, mode, "deviation_payoffs_all_exact_sparse");
}

namespace naive {

double deviation_payoff(const NormalFormGame& game, const MixedProfile& profile,
                        std::size_t player, std::size_t action) {
    MixedProfile deviated = profile;
    deviated[player] = pure_as_mixed(action, game.num_actions(player));
    // The seed's expected_payoff: full odometer walk with a from-scratch
    // product_rank per visited tuple.
    double total = 0.0;
    util::product_for_each(game.action_counts(), [&](const std::vector<std::size_t>& tuple) {
        double weight = 1.0;
        for (std::size_t i = 0; i < tuple.size() && weight > 0.0; ++i) {
            weight *= deviated[i][tuple[i]];
        }
        if (weight > 0.0) {
            total += weight *
                     game.payoff_d_at(util::product_rank(game.action_counts(), tuple), player);
        }
        return true;
    });
    return total;
}

util::Rational deviation_payoff_exact(const NormalFormGame& game,
                                      const ExactMixedProfile& profile, std::size_t player,
                                      std::size_t action) {
    ExactMixedProfile deviated = profile;
    ExactMixedStrategy point(game.num_actions(player), util::Rational{0});
    point.at(action) = util::Rational{1};
    deviated[player] = std::move(point);
    util::Rational total{0};
    util::product_for_each(game.action_counts(), [&](const std::vector<std::size_t>& tuple) {
        util::Rational weight{1};
        for (std::size_t i = 0; i < tuple.size(); ++i) {
            weight *= deviated[i][tuple[i]];
            if (weight.is_zero()) break;
        }
        if (!weight.is_zero()) {
            total += weight *
                     game.payoff_at(util::product_rank(game.action_counts(), tuple), player);
        }
        return true;
    });
    return total;
}

DeviationTable deviation_payoffs_all(const NormalFormGame& game, const MixedProfile& profile) {
    DeviationTable dev(game.num_players());
    for (std::size_t player = 0; player < game.num_players(); ++player) {
        dev[player].resize(game.num_actions(player));
        for (std::size_t action = 0; action < game.num_actions(player); ++action) {
            dev[player][action] = deviation_payoff(game, profile, player, action);
        }
    }
    return dev;
}

}  // namespace naive

}  // namespace bnash::game
