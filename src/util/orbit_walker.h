// Orbit enumerator over per-class action multisets — the symmetry-layer
// companion to util::OffsetWalker.
//
// A symmetric game's sweeps never need to distinguish WHICH member of a
// symmetry class plays an action, only HOW MANY play each one. One
// walker digit therefore represents one class of `m` interchangeable
// players with `A` actions, and enumerates the weak compositions
// (h_0, ..., h_{A-1}) with sum h_a = m — C(m + A - 1, A - 1) orbits
// instead of A^m raw tuples. Digits compose like OffsetWalker digits
// (last digit fastest), and every orbit is visited exactly once: the
// orbit sweeps ask whether SOME deviation gains, never how many raw
// tuples an orbit stands for, so the walker keeps no multiplicities.
// It offers
//
//   - seek() ranged-block entry: compositions rank/unrank in O(m * A)
//     via binomial prefix sums, so the two-level parallel split (tasks +
//     ranged blocks with a deterministic lowest-rank winner) carries
//     over unchanged;
//   - digit-move accounting (digit_moves()) compatible with the
//     offsets_advanced work counter the CI gates.
//
// Composition order is h_0-major DESCENDING lex — (m,0,...,0) first,
// (0,...,0,m) last — so rank 0 is "everyone plays action 0" and binary
// classes enumerate by ascending count of action 1.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/audit.h"

namespace bnash::util {

// Rank of a weak composition of `total` into counts.size() parts within
// the descending-lex order above; its inverse writes into `counts`.
// Both are O(parts * total) binomial-sum walks.
[[nodiscard]] std::uint64_t composition_rank(std::size_t total,
                                             const std::vector<std::size_t>& counts);
void composition_unrank(std::size_t total, std::size_t parts, std::uint64_t rank,
                        std::vector<std::size_t>& counts);
// C(total + parts - 1, parts - 1); throws std::overflow_error when the
// count does not fit in 64 bits (and std::invalid_argument for parts==0
// with total > 0).
[[nodiscard]] std::uint64_t composition_count(std::size_t total, std::size_t parts);

class OrbitWalker final {
public:
    OrbitWalker() = default;

    void clear();
    void reserve(std::size_t digits);

    // A class of `members` interchangeable players over `num_actions`
    // actions (num_actions >= 1). Starts at its first composition.
    void add_class(std::size_t members, std::size_t num_actions);

    [[nodiscard]] std::size_t num_digits() const noexcept { return digits_.size(); }
    // Product over digits; throws std::overflow_error when it overflows.
    [[nodiscard]] std::uint64_t num_orbits() const;

    // Rewind every digit to its first composition (rank 0).
    void reset();
    // Jump straight to the given joint rank (mixed-radix over the digits,
    // last digit fastest) — ranged-block entry.
    void seek(std::uint64_t rank);
    // Next orbit in joint order; false (and back at rank 0) on wrap.
    bool advance();

    [[nodiscard]] const std::vector<std::size_t>& counts(std::size_t digit) const {
        return digits_[digit].counts;
    }
    [[nodiscard]] std::uint64_t rank() const noexcept { return rank_; }
    // Smallest digit index whose composition changed in the last
    // advance()/seek()/reset() (num_digits() before any move).
    [[nodiscard]] std::size_t lowest_changed() const noexcept { return lowest_changed_; }

    // Cumulative per-digit composition steps (advance carries + seek
    // unranks), the odometer work the offsets_advanced counter charges.
    [[nodiscard]] std::uint64_t digit_moves() const noexcept { return digit_moves_; }

private:
    struct Digit final {
        std::size_t members = 0;
        std::size_t actions = 1;
        std::uint64_t orbits = 1;     // composition_count
        std::uint64_t digit_rank = 0;  // current composition's rank
        std::vector<std::size_t> counts;
    };

    // In-place next composition in descending-lex order; false on wrap
    // back to (m, 0, ..., 0).
    static bool next_composition(Digit& digit);
    static void first_composition(Digit& digit);

#if BNASH_AUDIT_ENABLED
    // Re-ranks every digit's composition from scratch and recomposes
    // the joint rank, aborting on any disagreement with the incremental
    // digit_rank/rank_ bookkeeping.
    void audit_state(const char* who) const;
#endif

    std::vector<Digit> digits_;
    std::uint64_t rank_ = 0;
    std::size_t lowest_changed_ = 0;
    std::uint64_t digit_moves_ = 0;
};

}  // namespace bnash::util
