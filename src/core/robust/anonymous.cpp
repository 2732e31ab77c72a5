#include "core/robust/anonymous.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/combinatorics.h"
#include "util/execution_grant.h"
#include "util/thread_pool.h"

namespace bnash::core {

using util::Rational;

namespace {

// Coalition sizes per first_hit block. The inner switcher loop is O(c),
// so chunks stay small to balance; pair counts per chunk still dwarf the
// pool's per-block claim cost.
constexpr std::size_t kSizeChunk = 64;
// Switcher counts per first_hit block (O(1) work each).
constexpr std::size_t kImmunityChunk = 2048;

}  // namespace

AnonymousBinaryGame::AnonymousBinaryGame(std::size_t num_players, PayoffFn payoff)
    : n_(num_players), payoff_(std::move(payoff)) {
    if (n_ < 2) throw std::invalid_argument("AnonymousBinaryGame: n >= 2");
    if (!payoff_) throw std::invalid_argument("AnonymousBinaryGame: payoff required");
}

AnonymousBinaryGame AnonymousBinaryGame::attack(std::size_t num_players) {
    return AnonymousBinaryGame(
        num_players, [](std::size_t action, std::size_t ones, std::size_t) -> Rational {
            if (ones == 0) return 1;                       // everyone played 0
            if (ones == 2 && action == 1) return 2;        // the two attackers
            return 0;
        });
}

AnonymousBinaryGame AnonymousBinaryGame::from_table(std::vector<std::vector<Rational>> table) {
    if (table.size() != 2 || table[0].size() < 3 || table[0].size() != table[1].size()) {
        throw std::invalid_argument(
            "AnonymousBinaryGame::from_table: need 2 rows of n+1 >= 3 entries");
    }
    const std::size_t n = table[0].size() - 1;
    return AnonymousBinaryGame(
        n, [table = std::move(table)](std::size_t action, std::size_t ones,
                                      std::size_t) -> Rational { return table[action][ones]; });
}

AnonymousBinaryGame AnonymousBinaryGame::bargaining(std::size_t num_players) {
    return AnonymousBinaryGame(
        num_players, [](std::size_t action, std::size_t leavers, std::size_t) -> Rational {
            if (leavers == 0) return 2;       // everyone stayed
            if (action == 1) return 1;        // a leaver
            return 0;                         // a stayer abandoned at the table
        });
}

Rational AnonymousBinaryGame::payoff(std::size_t action, std::size_t total_ones) const {
    if (action > 1 || total_ones > n_) throw std::out_of_range("AnonymousBinaryGame::payoff");
    return payoff_(action, total_ones, n_);
}

bool AnonymousBinaryGame::all_base_is_nash(std::size_t base_action) const {
    return all_base_is_k_resilient(base_action, 1);
}

bool AnonymousBinaryGame::all_base_is_k_resilient(std::size_t base_action, std::size_t k,
                                                  GainCriterion criterion,
                                                  game::SweepMode mode) const {
    return min_breaking_coalition_impl(base_action, k, criterion, mode) == 0;
}

bool AnonymousBinaryGame::all_base_is_t_immune(std::size_t base_action, std::size_t t,
                                               game::SweepMode mode) const {
    // t-immunity only depends on the worst switcher count j <= t (every
    // faulty set of size >= j can realize it), so it reduces to the same
    // scan the max_immunity boundary runs.
    const std::size_t limit = t < n_ ? t : n_ - 1;
    return first_harmful_switchers(base_action, limit, mode) > limit;
}

std::size_t AnonymousBinaryGame::min_breaking_coalition(std::size_t base_action,
                                                        std::size_t max_k,
                                                        game::SweepMode mode) const {
    return min_breaking_coalition_impl(base_action, max_k,
                                       GainCriterion::kAnyMemberGains, mode);
}

// Smallest violating coalition size c <= min(max_k, n), 0 when none: ONE
// (c, j) pair scan replaces the old per-k probe restarts. A coalition of
// c players in which j members switch to 1-base; by anonymity only
// (c, j) matters and j ranges 1..c (j = 0 is no change). Coalition sizes
// are split into chunks through util::first_hit (rank c - 1), so the
// returned boundary is the serial scan's in both modes.
std::size_t AnonymousBinaryGame::min_breaking_coalition_impl(std::size_t base_action,
                                                             std::size_t max_k,
                                                             GainCriterion criterion,
                                                             game::SweepMode mode) const {
    const std::size_t limit = std::min(max_k, n_);
    const std::size_t base_ones = base_action == 1 ? n_ : 0;
    const Rational baseline = payoff_(base_action, base_ones, n_);
    const auto pair_violates = [&](std::size_t c, std::size_t j) {
        const std::size_t ones_after = base_action == 0 ? j : n_ - j;
        const bool switcher_gains = payoff_(1 - base_action, ones_after, n_) > baseline;
        const bool stayer_gains = (j < c) && payoff_(base_action, ones_after, n_) > baseline;
        return criterion == GainCriterion::kAnyMemberGains
                   ? (switcher_gains || stayer_gains)
                   : (switcher_gains && (j == c || stayer_gains));
    };
    // Closed-form boundaries are exact whatever grant is active.
    const util::GrantScope ungated(nullptr);
    // lint: grant-ok(boundary pairs are O(k^2) closed-form table lookups,
    // not tensor sweep work — left uncounted to keep counter parity)
    const util::FirstHit hit = util::first_hit(
        (limit + kSizeChunk - 1) / kSizeChunk, kSizeChunk, mode == game::SweepMode::kAuto,
        [&](std::size_t block,
            const std::atomic<std::uint64_t>& best) -> std::optional<std::uint64_t> {
            const std::size_t lo = 1 + block * kSizeChunk;
            const std::size_t hi = std::min(limit, lo + kSizeChunk - 1);
            for (std::size_t c = lo; c <= hi && c - 1 < best.load(std::memory_order_acquire);
                 ++c) {
                for (std::size_t j = 1; j <= c; ++j) {
                    if (pair_violates(c, j)) return c - 1;
                }
            }
            return std::nullopt;
        });
    return hit.rank ? static_cast<std::size_t>(*hit.rank) + 1 : 0;
}

// Smallest harmful switcher count j <= limit (limit + 1 when none).
std::size_t AnonymousBinaryGame::first_harmful_switchers(std::size_t base_action,
                                                         std::size_t limit,
                                                         game::SweepMode mode) const {
    const std::size_t base_ones = base_action == 1 ? n_ : 0;
    const Rational baseline = payoff_(base_action, base_ones, n_);
    const util::GrantScope ungated(nullptr);  // see min_breaking_coalition_impl
    // lint: grant-ok(same closed-form boundary contract as the coalition
    // scan above — O(t) table lookups outside the gated sweep counters)
    const util::FirstHit hit = util::first_hit(
        (limit + kImmunityChunk - 1) / kImmunityChunk, kImmunityChunk,
        mode == game::SweepMode::kAuto,
        [&](std::size_t block,
            const std::atomic<std::uint64_t>& best) -> std::optional<std::uint64_t> {
            const std::size_t lo = 1 + block * kImmunityChunk;
            const std::size_t hi = std::min(limit, lo + kImmunityChunk - 1);
            for (std::size_t j = lo; j <= hi && j - 1 < best.load(std::memory_order_acquire);
                 ++j) {
                const std::size_t ones_after = base_action == 0 ? j : n_ - j;
                if (payoff_(base_action, ones_after, n_) < baseline) return j - 1;
            }
            return std::nullopt;
        });
    return hit.rank ? static_cast<std::size_t>(*hit.rank) + 1 : limit + 1;
}

std::size_t AnonymousBinaryGame::max_immunity(std::size_t base_action, std::size_t max_t,
                                              game::SweepMode mode) const {
    // The boundary is the smallest harmful switcher count minus one — one
    // scan instead of re-probing every t.
    const std::size_t limit = max_t < n_ ? max_t : n_ - 1;
    const std::size_t first = first_harmful_switchers(base_action, limit, mode);
    return first > limit ? max_t : first - 1;
}

game::NormalFormGame AnonymousBinaryGame::to_normal_form() const {
    if (n_ > 16) throw std::logic_error("AnonymousBinaryGame::to_normal_form: n too large");
    game::NormalFormGame out(std::vector<std::size_t>(n_, 2));
    std::vector<util::Rational> values;
    values.reserve(out.num_profiles() * n_);
    util::product_for_each(out.action_counts(), [&](const game::PureProfile& profile) {
        std::size_t ones = 0;
        for (const std::size_t a : profile) ones += a;
        for (std::size_t player = 0; player < n_; ++player) {
            values.push_back(payoff_(profile[player], ones, n_));
        }
        return true;
    });
    out.assign_payoffs(values);
    return out;
}

game::QuotientGame AnonymousBinaryGame::quotient() const {
    game::QuotientGame out;
    out.class_sizes = {n_};
    out.class_actions = {2};
    std::vector<util::Rational> payoff;
    payoff.reserve(2 * n_);
    // Others-orbit rank r is the number of OTHER players on action 1
    // (descending-lex compositions of n-1 into (zeros, ones)).
    for (std::size_t action = 0; action < 2; ++action) {
        for (std::size_t r = 0; r < n_; ++r) {
            payoff.push_back(payoff_(action, r + (action == 1 ? 1 : 0), n_));
        }
    }
    out.assign_payoffs({std::move(payoff)});
    return out;
}

}  // namespace bnash::core
