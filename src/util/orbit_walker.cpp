#include "util/orbit_walker.h"

#include <stdexcept>

#include "util/audit.h"
#include "util/combinatorics.h"

namespace bnash::util {

namespace {

[[nodiscard]] std::uint64_t checked_mul(std::uint64_t a, std::uint64_t b) {
    const unsigned __int128 wide = static_cast<unsigned __int128>(a) * b;
    if (wide > static_cast<unsigned __int128>(~std::uint64_t{0})) {
        throw std::overflow_error("OrbitWalker: orbit count overflow");
    }
    return static_cast<std::uint64_t>(wide);
}

#if BNASH_AUDIT_ENABLED
// From-scratch cross-checks of the walker's incremental rank state: each
// digit's cached composition rank must agree with ranking its counts
// afresh (and the counts must still sum to the class size), and the
// joint rank must be the mixed-radix composition of the digit ranks. O(digits * members * actions) per call — audit builds
// pay it on every advance/seek.
void audit_digit_ranks(const char* who, std::size_t members,
                       const std::vector<std::size_t>& counts,
                       std::uint64_t cached_rank) {
    std::size_t sum = 0;
    for (const std::size_t c : counts) sum += c;
    BNASH_AUDIT_CHECK(sum == members,
                      "OrbitWalker: a digit's composition no longer sums to its "
                      "class size");
    BNASH_AUDIT_CHECK(composition_rank(members, counts) == cached_rank, who);
}
#endif
}  // namespace

#if BNASH_AUDIT_ENABLED
void OrbitWalker::audit_state(const char* who) const {
    std::uint64_t joint = 0;
    for (const Digit& digit : digits_) {
        audit_digit_ranks(who, digit.members, digit.counts, digit.digit_rank);
        joint = joint * digit.orbits + digit.digit_rank;
    }
    BNASH_AUDIT_CHECK(joint == rank_,
                      "OrbitWalker: joint rank diverged from the mixed-radix "
                      "composition of the per-digit ranks");
}
#endif

std::uint64_t composition_count(std::size_t total, std::size_t parts) {
    if (parts == 0) {
        if (total > 0) throw std::invalid_argument("composition_count: zero parts");
        return 1;
    }
    return binomial(total + parts - 1, parts - 1);
}

std::uint64_t composition_rank(std::size_t total, const std::vector<std::size_t>& counts) {
    // Descending-lex: compositions with first part v > counts[0] come
    // first; each contributes composition_count(total - v, parts - 1).
    std::uint64_t rank = 0;
    std::size_t remaining = total;
    const std::size_t parts = counts.size();
    for (std::size_t i = 0; i + 1 < parts; ++i) {
        for (std::size_t v = remaining; v > counts[i]; --v) {
            rank += composition_count(remaining - v, parts - 1 - i);
        }
        remaining -= counts[i];
    }
    return rank;
}

void composition_unrank(std::size_t total, std::size_t parts, std::uint64_t rank,
                        std::vector<std::size_t>& counts) {
    counts.assign(parts, 0);
    if (parts == 0) return;
    std::size_t remaining = total;
    for (std::size_t i = 0; i + 1 < parts; ++i) {
        std::size_t v = remaining;
        while (true) {
            const std::uint64_t block = composition_count(remaining - v, parts - 1 - i);
            if (rank < block) break;
            rank -= block;
            --v;  // v never underflows: total ranks == sum of the blocks
        }
        counts[i] = v;
        remaining -= v;
    }
    counts[parts - 1] = remaining;
}

void OrbitWalker::clear() {
    digits_.clear();
    rank_ = 0;
    lowest_changed_ = 0;
    digit_moves_ = 0;
}

void OrbitWalker::reserve(std::size_t digits) { digits_.reserve(digits); }

void OrbitWalker::first_composition(Digit& digit) {
    digit.counts.assign(digit.actions, 0);
    digit.counts[0] = digit.members;
    digit.digit_rank = 0;
}

bool OrbitWalker::next_composition(Digit& digit) {
    // Descending-lex successor: move one unit from the rightmost
    // non-final nonzero part one slot right, folding the tail back in.
    std::vector<std::size_t>& h = digit.counts;
    const std::size_t last = digit.actions - 1;
    std::size_t i = last;
    while (i > 0 && h[i - 1] == 0) --i;
    if (i == 0) {  // (0, ..., 0, m): wrap
        first_composition(digit);
        return false;
    }
    const std::size_t tail = h[last];
    h[last] = 0;
    h[i - 1] -= 1;
    h[i] += tail + 1;
    ++digit.digit_rank;
    return true;
}

void OrbitWalker::add_class(std::size_t members, std::size_t num_actions) {
    if (num_actions == 0) throw std::invalid_argument("OrbitWalker: class with no actions");
    Digit digit;
    digit.members = members;
    digit.actions = num_actions;
    digit.orbits = composition_count(members, num_actions);
    first_composition(digit);
    digits_.push_back(std::move(digit));
    lowest_changed_ = digits_.size();
}

std::uint64_t OrbitWalker::num_orbits() const {
    std::uint64_t total = 1;
    for (const Digit& digit : digits_) total = checked_mul(total, digit.orbits);
    return total;
}

void OrbitWalker::reset() {
    for (Digit& digit : digits_) first_composition(digit);
    rank_ = 0;
    lowest_changed_ = 0;
}

void OrbitWalker::seek(std::uint64_t rank) {
#if BNASH_AUDIT_ENABLED
    BNASH_AUDIT_CHECK(rank < num_orbits() || (rank == 0 && num_orbits() == 0),
                      "OrbitWalker::seek past the end of the orbit space");
#endif
    std::uint64_t place = num_orbits();
    rank_ = rank;
    lowest_changed_ = 0;
    for (Digit& digit : digits_) {
        place /= digit.orbits;  // orbits >= 1
        const std::uint64_t digit_rank = rank / place;
        rank %= place;
        composition_unrank(digit.members, digit.actions, digit_rank, digit.counts);
        digit.digit_rank = digit_rank;
        ++digit_moves_;
    }
#if BNASH_AUDIT_ENABLED
    audit_state("OrbitWalker::seek unranked a composition whose re-rank disagrees");
#endif
}

bool OrbitWalker::advance() {
    for (std::size_t d = digits_.size(); d-- > 0;) {
        ++digit_moves_;
        if (next_composition(digits_[d])) {
            lowest_changed_ = d;
            ++rank_;
#if BNASH_AUDIT_ENABLED
            audit_state("OrbitWalker::advance stepped to a composition whose "
                        "re-rank disagrees with the incremental digit rank");
#endif
            return true;
        }
        // carried: this digit wrapped to rank 0, move to the next digit
    }
    lowest_changed_ = 0;
    rank_ = 0;
#if BNASH_AUDIT_ENABLED
    audit_state("OrbitWalker::advance wrap-around left a digit off rank 0");
#endif
    return false;
}

}  // namespace bnash::util
