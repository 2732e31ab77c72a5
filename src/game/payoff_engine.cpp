#include "game/payoff_engine.h"

#include <algorithm>
#include <array>
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

constexpr std::size_t kNoFullPlayer = SupportPlan::kNoFullPlayer;

// Tensor accessors: the sweep kernels are generic over how a view
// player's payoff is read from a payoff row. `at(row, i)` reads view
// player i's payoff from a walker row (a cell offset into the parent
// tensor: zero copy).
//
// The doubles of a view whose player map is the identity (the full game
// and its action restrictions): view player i reads its rank at row + i
// and that rank's double, through level tables looked up once per sweep.
// Kernels take the accessor by value, so the table pointers stay out of
// the accumulation loops' loads; a fixed table keeps that copy free of
// allocation, and a game of more players reads through the view.
class LevelRows final {
public:
    static constexpr std::size_t kMaxPlayers = 16;
    explicit LevelRows(const GameView& view) : ranks_(view.parent().ordinal_ranks().data()) {
        for (std::size_t i = 0; i < view.num_players(); ++i) {
            levels_d_[i] = view.parent().levels_d(i).data();
        }
    }
    [[nodiscard]] double at(std::uint64_t row, std::size_t i) const noexcept {
        return levels_d_[i][ranks_[row + i]];
    }

private:
    const std::uint32_t* ranks_;
    std::array<const double*, kMaxPlayers> levels_d_{};
};

// Every other case reads through the view: exact payoffs as rank then
// level, and a player-permuted view through its player column map.
template <typename V>
struct MappedRows {
    const GameView* view;
    [[nodiscard]] decltype(auto) at(std::uint64_t row, std::size_t i) const {
        if constexpr (std::is_same_v<V, double>) {
            return view->payoff_d_from(row, i);
        } else {
            return view->payoff_from(row, i);
        }
    }
};

// Runs `sweep(acc)` with the accessor the view's layout allows. Both
// read the same level of the same cell, so the choice never changes a
// result bit.
template <typename V, typename Sweep>
void with_rows(const GameView& view, const Sweep& sweep) {
    if constexpr (std::is_same_v<V, double>) {
        if (view.identity_player_map() && view.num_players() <= LevelRows::kMaxPlayers) {
            sweep(LevelRows(view));
            return;
        }
    }
    sweep(MappedRows<V>{&view});
}

using BlockRanges = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

// [0, num_profiles) in kParallelBlock-sized chunks.
BlockRanges uniform_blocks(std::uint64_t num_profiles) {
    constexpr std::uint64_t kBlock = kParallelBlock;
    BlockRanges blocks;
    blocks.reserve(static_cast<std::size_t>((num_profiles + kBlock - 1) / kBlock));
    for (std::uint64_t lo = 0; lo < num_profiles; lo += kBlock) {
        blocks.emplace_back(lo, std::min(num_profiles, lo + kBlock));
    }
    return blocks;
}

// --- support plans -------------------------------------------------------------
//
// A game::SupportPlan (see payoff_engine.h) restricts each digit to the
// profile's support (the actions with nonzero probability), keeping the
// support actions in ascending order so the support walk visits exactly
// the profiles with nonzero weight, in row-major order. A `full_player`
// digit (the deviating player of a deviation-row sweep) keeps its whole
// action range. Offset tables are materialized per plan (support-indexed
// slices of the view's cell-offset columns).

// Plan over per-player weights: player p's support is the actions a with
// keep(weights[p][a]), and offset(p, a) is action a's cell offset.
// `full_player` keeps every action.
template <typename Weights, typename Keep, typename Offset>
SupportPlan plan_over(const Weights& weights, std::size_t full_player, const Keep& keep,
                      const Offset& offset) {
    const std::size_t n = weights.size();
    SupportPlan plan;
    plan.actions.resize(n);
    plan.offsets.resize(n);
    plan.radices.resize(n);
    for (std::size_t p = 0; p < n; ++p) {
        const auto& row = weights[p];
        const auto kept = [&](std::size_t a) { return p == full_player || keep(row[a]); };
        std::size_t width = 0;
        for (std::size_t a = 0; a < row.size(); ++a) width += kept(a) ? 1 : 0;
        if (width == 0) {
            plan.dead = true;
            return plan;
        }
        plan.actions[p].reserve(width);
        plan.offsets[p].reserve(width);
        for (std::size_t a = 0; a < row.size(); ++a) {
            if (!kept(a)) continue;
            plan.actions[p].push_back(a);
            plan.offsets[p].push_back(offset(p, a));
        }
        plan.radices[p] = width;
    }
    plan.num_tuples = util::product_size(plan.radices);
    return plan;
}

template <typename ProfileT>
SupportPlan support_plan(const GameView& view, const ProfileT& profile,
                         std::size_t full_player) {
    return plan_over(
        profile, full_player, [](const auto& weight) { return !sweep_zero(weight); },
        [&](std::size_t p, std::size_t a) { return view.cell_offsets(p)[a]; });
}

// Support-space block boundaries aligned with the DENSE kParallelBlock
// cuts in full-rank space: partial accumulators merge at exactly the same
// summation boundaries as a walk over the view's own columns, which is
// what makes a support walk bit-identical to a full one in every mode.
// One entry per NON-EMPTY dense block (adding an all-zero partial table is
// a bitwise no-op: accumulators start at +0.0 and x + 0.0 == x for every
// reachable x, so empty dense blocks are skipped).
BlockRanges support_blocks(const GameView& view, const SupportPlan& plan) {
    constexpr std::uint64_t kBlock = kParallelBlock;
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

// --- digit sources -------------------------------------------------------------
//
// The walker's digits and the block cuts come from one of two sources.
// Both visit the profiles with nonzero weight in the same row-major order
// and cut partial sums at the same dense boundaries, so the source never
// changes a result bit; it only decides how many zero-weight cells are
// walked past.

// The view's own columns, in uniform kParallelBlock blocks. No plan is
// built.
struct FullDigits {
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
    [[nodiscard]] static std::size_t action(std::size_t /*player*/, std::size_t digit) noexcept {
        return digit;
    }
    [[nodiscard]] BlockRanges blocks() const { return uniform_blocks(view->num_profiles()); }
};

// A support plan's columns, cut by support_blocks.
struct PlanDigits {
    const GameView* view;
    const SupportPlan* plan;
    [[nodiscard]] util::OffsetWalker make_walker() const { return plan->make_walker(); }
    [[nodiscard]] std::size_t action(std::size_t player, std::size_t digit) const noexcept {
        return plan->actions[player][digit];
    }
    [[nodiscard]] BlockRanges blocks() const { return support_blocks(*view, *plan); }
};

// Runs `sweep(digits)` over the source the profile's support calls for:
// the view's own columns when no weight is zero (except `full_player`'s,
// whose whole range is walked), otherwise a support plan. Nothing runs
// when another player's support is empty: every weight would be zero.
template <typename ProfileT, typename Sweep>
void with_digits(const GameView& view, const ProfileT& profile, std::size_t full_player,
                 const Sweep& sweep) {
    bool full = true;
    for (std::size_t p = 0; p < profile.size() && full; ++p) {
        if (p == full_player) continue;
        for (const auto& weight : profile[p]) full = full && !sweep_zero(weight);
    }
    if (full) {
        sweep(FullDigits{&view});
        return;
    }
    const SupportPlan plan = support_plan(view, profile, full_player);
    if (!plan.dead) sweep(PlanDigits{&view, &plan});
}

#if BNASH_AUDIT_ENABLED
// From-scratch left-fold of the weights of digits [0, upto). The fold
// order matches the incremental prefix exactly — ((1*x0)*x1)*... — so for
// doubles the comparison is bit-identical, not approximate.
template <typename V, typename Digits, typename ProfileT>
[[nodiscard]] V audit_left_fold(const Digits& digits, const ProfileT& profile,
                                const std::vector<std::size_t>& tuple, std::size_t upto) {
    V full{1};
    for (std::size_t j = 0; j < upto; ++j) full = full * profile[j][digits.action(j, tuple[j])];
    return full;
}
#endif

// --- the block kernels ---------------------------------------------------------

// Per-block weight products, on the stack for up to kInline entries so
// that a sweep of a small game allocates no scratch. Entries start
// unset; a kernel seeds the boundary 1 it folds from.
template <typename V>
class Products final {
public:
    explicit Products(std::size_t size) {
        if (size > kInline) heap_.resize(size);
        data_ = heap_.empty() ? inline_.data() : heap_.data();
    }
    Products(const Products&) = delete;
    Products& operator=(const Products&) = delete;
    V& operator[](std::size_t i) noexcept { return data_[i]; }

private:
    static constexpr std::size_t kInline = 16;
    std::array<V, kInline> inline_{};
    std::vector<V> heap_;
    V* data_;
};

// Expected payoffs over ranks [begin, end) of a digit source: every
// player's into a vector `out`, or `player`'s alone into a scalar `out`
// (on the exact path each accumulation is a Rational multiply-add, so
// single-player callers skip n-1 of them). The weight is the left fold
// ((1*x0)*x1)*..., kept as prefix products of which only digits at or
// above the walker's lowest changed digit recompute.
template <typename V, typename Digits, typename ProfileT, typename Acc, typename Out>
void expected_block(const Digits& digits, const ProfileT& profile, const Acc acc,
                    std::size_t player, std::uint64_t begin, std::uint64_t end, Out& out) {
    const std::size_t n = profile.size();
    util::OffsetWalker walker = digits.make_walker();
    walker.seek(begin);
    const auto& tuple = walker.tuple();
    Products<V> prefix(n + 1);
    prefix[0] = V{1};
    std::size_t from = 0;
    for (std::uint64_t rank = begin; rank < end; ++rank) {
        for (std::size_t j = from; j < n; ++j) {
            prefix[j + 1] = prefix[j] * profile[j][digits.action(j, tuple[j])];
        }
        BNASH_AUDIT_CHECK(prefix[n] == (audit_left_fold<V>(digits, profile, tuple, n)),
                          "expected_block: incremental prefix product drifted from a "
                          "from-scratch left-fold of the weights");
        if (!sweep_zero(prefix[n])) {
            if constexpr (std::is_same_v<Out, V>) {
                out += prefix[n] * acc.at(walker.row(), player);
            } else {
                for (std::size_t i = 0; i < n; ++i) out[i] += prefix[n] * acc.at(walker.row(), i);
            }
        }
        (void)walker.advance();
        from = walker.lowest_changed();
    }
    util::work_counters_add(end - begin, walker.digit_moves());
}

// One player's deviation row over ranks [begin, end) of a digit source
// that walks that player's whole action range (so its digit is its
// action). weight = prefix[player] * tail is deviation_block's
// prefix[i] * suffix[i+1] fold (same operand order), so the row is
// bit-identical to the deviation table's.
template <typename V, typename Digits, typename ProfileT, typename Acc>
void row_block(const Digits& digits, const ProfileT& profile, const Acc acc,
               std::size_t player, std::uint64_t begin, std::uint64_t end,
               std::vector<V>& dev_row) {
    const std::size_t n = profile.size();
    util::OffsetWalker walker = digits.make_walker();
    walker.seek(begin);
    const auto& tuple = walker.tuple();
    Products<V> prefix(player + 1);
    prefix[0] = V{1};
    std::size_t from = 0;
    for (std::uint64_t rank = begin; rank < end; ++rank) {
        for (std::size_t j = from; j < player; ++j) {
            prefix[j + 1] = prefix[j] * profile[j][digits.action(j, tuple[j])];
        }
        BNASH_AUDIT_CHECK(
            prefix[player] == (audit_left_fold<V>(digits, profile, tuple, player)),
            "row_block: incremental prefix product drifted from a from-scratch "
            "left-fold of the opponents' weights");
        V tail{1};
        for (std::size_t j = n; j-- > player + 1;) {
            tail = tail * profile[j][digits.action(j, tuple[j])];
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

// Every player's deviation payoffs over ranks [begin, end) of the view's
// own columns. Prefix/suffix probability products give weight_excluding(i)
// for all i in O(players) per profile — the marginalization that replaces
// the seed's one-full-sweep-per-(player, action).
template <typename V, typename ProfileT, typename Acc>
void deviation_block(const FullDigits& digits, const ProfileT& profile, const Acc acc,
                     std::uint64_t begin, std::uint64_t end, std::vector<std::vector<V>>& dev) {
    const std::size_t n = profile.size();
    util::OffsetWalker walker = digits.make_walker();
    walker.seek(begin);
    const auto& tuple = walker.tuple();
    Products<V> prefix(n + 1);
    Products<V> suffix(n + 1);
    prefix[0] = V{1};
    suffix[n] = V{1};
    std::size_t from = 0;
    for (std::uint64_t rank = begin; rank < end; ++rank) {
        // prefix[i] folds digits below i, so only the products above the
        // walker's lowest changed digit recompute.
        for (std::size_t i = from; i + 1 < n; ++i) {
            prefix[i + 1] = prefix[i] * profile[i][tuple[i]];
        }
        BNASH_AUDIT_CHECK(prefix[n - 1] == (audit_left_fold<V>(digits, profile, tuple, n - 1)),
                          "deviation_block: incremental prefix product drifted from a "
                          "from-scratch left-fold of the weights");
        for (std::size_t i = n; i-- > 0;) {
            suffix[i] = suffix[i + 1] * profile[i][tuple[i]];
        }
        const std::uint64_t row = walker.row();
        for (std::size_t i = 0; i < n; ++i) {
            const V weight = prefix[i] * suffix[i + 1];
            if (!sweep_zero(weight)) dev[i][tuple[i]] += weight * acc.at(row, i);
        }
        (void)walker.advance();
        from = walker.lowest_changed();
    }
    util::work_counters_add(end - begin, walker.digit_moves());
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
// explicit input — FullDigits passes uniform kParallelBlock chunks and
// PlanDigits the SAME dense boundaries mapped into support-rank space —
// so kAuto and kSerial (and both digit sources) agree bit-for-bit.
// Blocks of an expired grant are skipped in both modes: a truncated
// reduction yields partial sums, and grant users must discard results
// when expired() after the call.
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

// --- the sweeps: one per quantity ----------------------------------------------

// Every player's expected payoff (Out = std::vector<V>), or `player`'s
// alone (Out = V).
template <typename Out, typename ProfileT>
Out expected_sweep(const GameView& view, const ProfileT& profile, std::size_t player,
                   SweepMode mode, const char* what) {
    using V = ValueOf<ProfileT>;
    validate_profile_shape(view, profile, what);
    Out out{};
    if constexpr (std::is_same_v<Out, V>) {
        if (player >= view.num_players()) throw std::out_of_range(std::string(what) + ": player");
    } else {
        out.assign(view.num_players(), V{0});
    }
    with_rows<V>(view, [&](const auto& acc) {
        with_digits(view, profile, kNoFullPlayer, [&](const auto& digits) {
            blocked_sweep(digits.blocks(), mode, out,
                          [&](std::uint64_t lo, std::uint64_t hi, Out& table) {
                              expected_block<V>(digits, profile, acc, player, lo, hi, table);
                          });
        });
    });
    return out;
}

// One player's deviation row into `row` (zeros on entry).
template <typename V, typename ProfileT, typename Acc>
void sweep_row(const GameView& view, const ProfileT& profile, const Acc& acc,
               std::size_t player, SweepMode mode, std::vector<V>& row) {
    with_digits(view, profile, player, [&](const auto& digits) {
        blocked_sweep(digits.blocks(), mode, row,
                      [&](std::uint64_t lo, std::uint64_t hi, std::vector<V>& table) {
                          row_block<V>(digits, profile, acc, player, lo, hi, table);
                      });
    });
}

template <typename ProfileT>
auto row_sweep(const GameView& view, const ProfileT& profile, std::size_t player,
               const char* what) {
    using V = ValueOf<ProfileT>;
    validate_profile_shape(view, profile, what);
    std::vector<V> row(view.num_actions(player), V{0});
    with_rows<V>(view, [&](const auto& acc) {
        sweep_row(view, profile, acc, player, SweepMode::kAuto, row);
    });
    return row;
}

// Whether one support row per player (sum_p |A_p| * prod_{i != p}
// |supp_i| cells) walks fewer cells than one marginalization sweep
// (prod |A_i|). Ties go to marginalization.
template <typename ProfileT>
bool support_rows_cheaper(const GameView& view, const ProfileT& profile) {
    const std::size_t n = profile.size();
    const auto support = [&](std::size_t p) {
        std::uint64_t count = 0;
        for (const auto& weight : profile[p]) count += sweep_zero(weight) ? 0 : 1;
        return count;
    };
    const std::uint64_t dense = view.num_profiles();
    std::uint64_t rows = 0;
    for (std::size_t p = 0; p < n; ++p) {
        std::uint64_t cells = view.num_actions(p);
        for (std::size_t i = 0; i < n; ++i) cells *= i == p ? 1 : support(i);
        rows += cells;
        if (rows >= dense) return false;
    }
    return true;
}

// The deviation table, by whichever of its two walks is cheaper for the
// profile; both accumulate every entry over the same cells in the same
// order with the same fold and block cuts, so they give the same bits.
template <typename ProfileT>
auto deviation_sweep(const GameView& view, const ProfileT& profile, SweepMode mode,
                     const char* what) {
    using V = ValueOf<ProfileT>;
    validate_profile_shape(view, profile, what);
    std::vector<std::vector<V>> dev(view.num_players());
    for (std::size_t p = 0; p < dev.size(); ++p) dev[p].assign(view.num_actions(p), V{0});
    with_rows<V>(view, [&](const auto& acc) {
        if (support_rows_cheaper(view, profile)) {
            for (std::size_t p = 0; p < dev.size(); ++p) {
                sweep_row(view, profile, acc, p, mode, dev[p]);
            }
            return;
        }
        const FullDigits digits{&view};
        blocked_sweep(digits.blocks(), mode, dev,
                      [&](std::uint64_t lo, std::uint64_t hi, std::vector<std::vector<V>>& table) {
                          deviation_block<V>(digits, profile, acc, lo, hi, table);
                      });
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
    if (strides.size() != dists.size()) {
        throw std::invalid_argument("build_support_plan_from_dists: stride width");
    }
    return plan_over(
        dists, kNoFullPlayer, [](double weight) { return weight > 0.0; },
        [&](std::size_t p, std::size_t a) { return static_cast<std::uint64_t>(a) * strides[p]; });
}

// --- the sweep entries --------------------------------------------------------

std::vector<double> expected_payoffs(const GameView& view, const MixedProfile& profile,
                                     SweepMode mode) {
    return expected_sweep<std::vector<double>>(view, profile, 0, mode, "expected_payoffs");
}

double expected_payoff(const GameView& view, const MixedProfile& profile, std::size_t player) {
    return expected_sweep<double>(view, profile, player, SweepMode::kAuto, "expected_payoff");
}

DeviationTable deviation_payoffs_all(const GameView& view, const MixedProfile& profile,
                                     SweepMode mode) {
    return deviation_sweep(view, profile, mode, "deviation_payoffs_all");
}

std::vector<double> deviation_row(const GameView& view, const MixedProfile& profile,
                                  std::size_t player) {
    return row_sweep(view, profile, player, "deviation_row");
}

double regret_from(const DeviationTable& dev, const MixedProfile& profile) {
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

std::vector<std::size_t> best_responses_from(const std::vector<double>& row, double tol) {
    double best = -std::numeric_limits<double>::infinity();
    for (const double value : row) best = std::max(best, value);
    std::vector<std::size_t> out;
    for (std::size_t action = 0; action < row.size(); ++action) {
        if (row[action] >= best - tol) out.push_back(action);
    }
    return out;
}

std::vector<util::Rational> expected_payoffs_exact(const GameView& view,
                                                   const ExactMixedProfile& profile,
                                                   SweepMode mode) {
    return expected_sweep<std::vector<util::Rational>>(view, profile, 0, mode,
                                                       "expected_payoffs_exact");
}

util::Rational expected_payoff_exact(const GameView& view, const ExactMixedProfile& profile,
                                     std::size_t player) {
    return expected_sweep<util::Rational>(view, profile, player, SweepMode::kAuto,
                                          "expected_payoff_exact");
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
