// The repo's ONE incremental cell-offset odometer.
//
// Every sweep kernel in the codebase — the payoff engine's dense and
// view tensor sweeps, the robustness engine's joint-deviation scans, the
// dominance scanner's opponent walk, GameView::materialize — enumerates a
// mixed-radix product space in row-major order while maintaining a flat
// "row" offset that is the SUM of per-digit contributions. PRs 1-3 grew
// four hand-rolled copies of that loop, pinned against each other only by
// the fuzz/bit-identity suites; this walker replaces all of them.
//
// Model: digit d ranges over 0..radix_d-1 and contributes offsets_d[a]
// (a borrowed table) to the running row. An odometer step increments the
// last digit and adds the table DELTA of every digit it touches, so the
// row never re-sums all digits (unsigned wrap-around on a carry is fine:
// every complete row sum is back in range). Three properties the
// consumers rely on, pinned by test_util:
//
//   - PINNED digits: add_pinned_digit(col, value) freezes a digit at
//     `value` (radix-1 digit aliased to the pinned entry). The walker
//     enumerates the remaining digits with the pinned contribution folded
//     into every row — the dominance scanner's "opponents of player p"
//     walk, and the joint-deviation scans' "everyone outside the
//     coalition stays put" rebase are both this.
//   - BLOCK decomposition: seek(rank, base) lands on any row-major rank
//     in O(digits) (with an external rebase folded in); walking
//     [seek(b), b + len) for consecutive blocks reproduces the full
//     enumeration exactly. The payoff engine's parallel sweeps hand each
//     worker a rank range this way, and the robustness engine's
//     intra-coalition ranged blocks split ONE coalition's candidate-
//     rebased joint-deviation scan across workers with a lowest-rank
//     winner — both merge bit-identically to the serial walk.
//   - WORK accounting: digit_moves() counts every digit the advance loop
//     touched (the CI-stable "offsets advanced" bench counter).
//
// The walker borrows the offset tables; callers keep them alive for the
// walker's lifetime. It is a cheap value type — the parallel sweeps copy
// a configured prototype per block and seek each copy independently.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "util/audit.h"

namespace bnash::util {

class OffsetWalker final {
public:
    OffsetWalker() = default;

    void clear() {
        offsets_.clear();
        radices_.clear();
        tuple_.clear();
        row_ = 0;
        lowest_changed_ = 0;
        digit_moves_ = 0;
#if BNASH_AUDIT_ENABLED
        audit_base_ = 0;
#endif
    }

    void reserve(std::size_t num_digits) {
        offsets_.reserve(num_digits);
        radices_.reserve(num_digits);
        tuple_.reserve(num_digits);
    }

    // Digit over 0..radix-1 contributing offsets[a] to the row. The table
    // must hold at least `radix` entries and outlive the walker.
    void add_digit(const std::uint64_t* offsets, std::size_t radix) {
        if (radix == 0) throw std::invalid_argument("OffsetWalker: zero radix");
        offsets_.push_back(offsets);
        radices_.push_back(radix);
        tuple_.push_back(0);
    }

    // Replaces digit d's table and radix in place (same contract as
    // add_digit), so a scan that swaps a few columns between walks does not
    // lay the walker out again. reset() or seek() before the next advance().
    void set_digit(std::size_t d, const std::uint64_t* offsets, std::size_t radix) {
        if (radix == 0) throw std::invalid_argument("OffsetWalker: zero radix");
        offsets_[d] = offsets;
        radices_[d] = radix;
        tuple_[d] = 0;
    }

    // Digit frozen at `value`: contributes offsets[value] to every row and
    // never advances (its tuple entry stays 0).
    void add_pinned_digit(const std::uint64_t* offsets, std::size_t value) {
        add_digit(offsets + value, 1);
    }

    [[nodiscard]] std::size_t num_digits() const noexcept { return radices_.size(); }

    // All-zeros tuple; row = base + sum of every digit's entry-0 offset.
    // `base` may encode an external rebase (unsigned wrap-around is fine).
    void reset(std::uint64_t base = 0) {
        std::uint64_t row = base;
        for (std::size_t d = 0; d < radices_.size(); ++d) {
            tuple_[d] = 0;
            row += offsets_[d][0];
        }
        row_ = row;
        lowest_changed_ = 0;
#if BNASH_AUDIT_ENABLED
        audit_base_ = base;
#endif
    }

    // Lands on the row-major `rank` (block entry for parallel sweeps).
    // Rank 0 is reset(), without the per-digit divisions.
    void seek(std::uint64_t rank, std::uint64_t base = 0) {
        if (rank == 0) {
            reset(base);
            return;
        }
        std::uint64_t row = base;
        for (std::size_t d = radices_.size(); d-- > 0;) {
            const std::size_t a = static_cast<std::size_t>(rank % radices_[d]);
            rank /= radices_[d];
            tuple_[d] = a;
            row += offsets_[d][a];
        }
        if (rank != 0) throw std::out_of_range("OffsetWalker: seek past end");
        row_ = row;
        lowest_changed_ = 0;
#if BNASH_AUDIT_ENABLED
        audit_base_ = base;
        BNASH_AUDIT_CHECK(row_ == audit_recomputed_row(),
                          "OffsetWalker::seek landed on a row that disagrees with a "
                          "from-scratch per-digit offset sum");
#endif
    }

    // One row-major step; false once the space wraps back to all-zeros.
    [[nodiscard]] bool advance() {
        for (std::size_t d = radices_.size(); d-- > 0;) {
            ++digit_moves_;
            const std::size_t a = ++tuple_[d];
            const std::uint64_t* column = offsets_[d];
            if (a < radices_[d]) {
                row_ += column[a] - column[a - 1];
                lowest_changed_ = d;
                BNASH_AUDIT_CHECK(row_ == audit_recomputed_row(),
                                  "OffsetWalker::advance drifted: incremental row "
                                  "delta disagrees with a from-scratch per-digit "
                                  "offset sum");
                return true;
            }
            row_ += column[0] - column[a - 1];
            tuple_[d] = 0;
        }
        lowest_changed_ = 0;
        BNASH_AUDIT_CHECK(row_ == audit_recomputed_row(),
                          "OffsetWalker::advance wrap-around drifted off the "
                          "all-zeros row");
        return false;
    }

    [[nodiscard]] std::uint64_t row() const noexcept { return row_; }
    [[nodiscard]] const std::vector<std::size_t>& tuple() const noexcept { return tuple_; }
    // Smallest digit index touched by the last advance() (every digit from
    // it to the end changed; digits below kept their values) — the sparse
    // kernels recompute prefix weight products from here only.
    [[nodiscard]] std::size_t lowest_changed() const noexcept { return lowest_changed_; }
    // Digits touched by advance() since construction/clear (work counter).
    [[nodiscard]] std::uint64_t digit_moves() const noexcept { return digit_moves_; }

private:
#if BNASH_AUDIT_ENABLED
    // From-scratch row recomputation (unsigned wrap-around matches the
    // incremental arithmetic exactly). The external rebase handed to
    // reset()/seek() is remembered so every later advance can re-derive
    // the full sum.
    [[nodiscard]] std::uint64_t audit_recomputed_row() const {
        std::uint64_t row = audit_base_;
        for (std::size_t d = 0; d < radices_.size(); ++d) {
            row += offsets_[d][tuple_[d]];
        }
        return row;
    }
    std::uint64_t audit_base_ = 0;
#endif

    std::vector<const std::uint64_t*> offsets_;
    std::vector<std::size_t> radices_;
    std::vector<std::size_t> tuple_;
    std::uint64_t row_ = 0;
    std::size_t lowest_changed_ = 0;
    std::uint64_t digit_moves_ = 0;
};

}  // namespace bnash::util
