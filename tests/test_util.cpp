// Unit and property tests for the util substrate: exact rationals,
// deterministic RNG, combinatorics, linear algebra, LP, statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <compare>
#include <cstdint>
#include <limits>
#include <set>
#include <sstream>
#include <vector>

#include "util/combinatorics.h"
#include "util/matrix.h"
#include "util/offset_walker.h"
#include "util/rational.h"
#include "util/rng.h"
#include "util/simplex.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/work_counters.h"

namespace bnash::util {
namespace {

// ---------------------------------------------------------------- Rational

TEST(Rational, DefaultIsZero) {
    const Rational r;
    EXPECT_TRUE(r.is_zero());
    EXPECT_EQ(r.den(), 1);
}

TEST(Rational, NormalizesSignAndGcd) {
    const Rational r{6, -8};
    EXPECT_EQ(r.num(), -3);
    EXPECT_EQ(r.den(), 4);
}

TEST(Rational, ZeroDenominatorThrows) {
    EXPECT_THROW(Rational(1, 0), std::invalid_argument);
}

TEST(Rational, Arithmetic) {
    const Rational a{1, 3};
    const Rational b{1, 6};
    EXPECT_EQ(a + b, Rational(1, 2));
    EXPECT_EQ(a - b, Rational(1, 6));
    EXPECT_EQ(a * b, Rational(1, 18));
    EXPECT_EQ(a / b, Rational(2));
}

TEST(Rational, ComparisonIsExact) {
    // 1/3 < 0.3333333333333333 is false in double but true here vs 33333/100000.
    EXPECT_GT(Rational(1, 3), Rational(33333, 100000));
    EXPECT_LT(Rational(1, 3), Rational(33334, 100000));
}

TEST(Rational, ReciprocalOfZeroThrows) {
    EXPECT_THROW((void)Rational(0).reciprocal(), std::domain_error);
}

TEST(Rational, DivisionByZeroThrows) {
    EXPECT_THROW(Rational(1) / Rational(0), std::domain_error);
}

TEST(Rational, OverflowDetected) {
    const Rational huge{std::numeric_limits<std::int64_t>::max(), 1};
    EXPECT_THROW(huge * huge, RationalOverflow);
}

TEST(Rational, FromDoubleRecoversSimpleFractions) {
    EXPECT_EQ(Rational::from_double(0.5), Rational(1, 2));
    EXPECT_EQ(Rational::from_double(-0.25), Rational(-1, 4));
    EXPECT_EQ(Rational::from_double(1.0 / 3.0), Rational(1, 3));
    EXPECT_EQ(Rational::from_double(7.0), Rational(7));
}

TEST(Rational, ToStringRoundTrip) {
    EXPECT_EQ(Rational(-3, 4).to_string(), "-3/4");
    EXPECT_EQ(Rational(5).to_string(), "5");
    std::ostringstream os;
    os << Rational(2, 6);
    EXPECT_EQ(os.str(), "1/3");
}

// Property: field axioms on a pseudo-random sample.
class RationalFieldProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RationalFieldProperty, AxiomsHold) {
    Rng rng{GetParam()};
    const auto draw = [&rng] {
        return Rational{rng.next_int(-50, 50), rng.next_int(1, 20)};
    };
    const Rational a = draw(), b = draw(), c = draw();
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a + Rational(0), a);
    EXPECT_EQ(a * Rational(1), a);
    EXPECT_EQ(a - a, Rational(0));
    if (!a.is_zero()) {
        EXPECT_EQ(a * a.reciprocal(), Rational(1));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RationalFieldProperty,
                         ::testing::Range<std::uint64_t>(1, 33));

// Independent reference order: sign of a.num * b.den - b.num * a.den,
// cross-multiplied in 128 bits with no equal-denominator shortcut.
int reference_order(const Rational& a, const Rational& b) {
    __extension__ typedef __int128 Wide;
    const Wide left = static_cast<Wide>(a.num()) * static_cast<Wide>(b.den());
    const Wide right = static_cast<Wide>(b.num()) * static_cast<Wide>(a.den());
    return left < right ? -1 : (left > right ? 1 : 0);
}

void expect_order_matches_reference(const Rational& a, const Rational& b) {
    const int expected = reference_order(a, b);
    const std::strong_ordering order = a <=> b;
    EXPECT_EQ(order < 0, expected < 0) << a << " vs " << b;
    EXPECT_EQ(order == 0, expected == 0) << a << " vs " << b;
    EXPECT_EQ(order > 0, expected > 0) << a << " vs " << b;
    EXPECT_EQ(a < b, expected < 0) << a << " vs " << b;
    EXPECT_EQ(a == b, expected == 0) << a << " vs " << b;
    EXPECT_EQ(b < a, expected > 0) << a << " vs " << b;
}

TEST(Rational, OrderingMatchesWideCrossMultiplication) {
    Rng rng{2024};
    const std::int64_t max = std::numeric_limits<std::int64_t>::max();
    const std::int64_t min = std::numeric_limits<std::int64_t>::min() + 1;
    const auto wide_int = [&rng, max, min] { return rng.next_int(min, max); };
    std::size_t equal_dens = 0;
    std::size_t distinct_dens = 0;
    for (int draw = 0; draw < 4000; ++draw) {
        // Equal denominators (the inlined fast path): a shared small or
        // near-2^62 denominator, full-range numerators.
        const std::int64_t den = draw % 2 == 0 ? rng.next_int(1, 1000)
                                               : (std::int64_t{1} << 62) - rng.next_int(0, 1000);
        const Rational a{wide_int(), den};
        const Rational b{wide_int(), den};
        const Rational c{a.num(), a.den()};  // a copy built from its parts
        expect_order_matches_reference(a, b);
        expect_order_matches_reference(a, c);
        // Different denominators (the 128-bit cross multiply).
        const Rational d{wide_int(), rng.next_int(1, max)};
        expect_order_matches_reference(a, d);
        expect_order_matches_reference(d, b);
        equal_dens += a.den() == b.den() ? 1 : 0;
        distinct_dens += a.den() != d.den() ? 1 : 0;
    }
    EXPECT_GT(equal_dens, 1000u);
    EXPECT_GT(distinct_dens, 3000u);

    // Extremes: numerators at INT64_MAX and INT64_MIN + 1, denominators at
    // and around 2^62, every pair in both orders.
    const std::int64_t two62 = std::int64_t{1} << 62;
    std::vector<Rational> edge;
    for (const std::int64_t num : {max, max - 1, min, min + 1, std::int64_t{0}, std::int64_t{1},
                                   std::int64_t{-1}, two62, -two62}) {
        for (const std::int64_t den : {std::int64_t{1}, std::int64_t{2}, two62 - 1, two62,
                                       two62 + 1, max}) {
            edge.emplace_back(num, den);
        }
    }
    for (const Rational& a : edge) {
        for (const Rational& b : edge) expect_order_matches_reference(a, b);
    }
}

// --------------------------------------------------------------------- Rng

TEST(Rng, DeterministicFromSeed) {
    Rng a{42};
    Rng b{42};
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
    Rng a{1};
    Rng b{2};
    int same = 0;
    for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
    EXPECT_LT(same, 4);
}

TEST(Rng, NextBelowInRange) {
    Rng rng{7};
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(13), 13u);
}

TEST(Rng, NextBelowRoughlyUniform) {
    Rng rng{11};
    std::array<int, 8> counts{};
    constexpr int kDraws = 80'000;
    for (int i = 0; i < kDraws; ++i) ++counts[rng.next_below(8)];
    for (const int c : counts) {
        EXPECT_NEAR(c, kDraws / 8, kDraws / 8 * 0.1);
    }
}

TEST(Rng, NextIntBoundsInclusive) {
    Rng rng{3};
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.next_int(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        saw_lo |= (v == -2);
        saw_hi |= (v == 2);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval) {
    Rng rng{5};
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.next_double();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, WeightedSamplingMatchesWeights) {
    Rng rng{13};
    const std::vector<double> weights{1.0, 3.0, 0.0, 6.0};
    std::array<int, 4> counts{};
    constexpr int kDraws = 100'000;
    for (int i = 0; i < kDraws; ++i) ++counts[rng.next_weighted(weights)];
    EXPECT_EQ(counts[2], 0);
    EXPECT_NEAR(counts[0], kDraws * 0.1, kDraws * 0.01);
    EXPECT_NEAR(counts[1], kDraws * 0.3, kDraws * 0.015);
    EXPECT_NEAR(counts[3], kDraws * 0.6, kDraws * 0.015);
}

TEST(Rng, ForkIsIndependent) {
    Rng parent{99};
    Rng child = parent.fork();
    // The child must not replay the parent stream.
    Rng parent_copy{99};
    (void)parent_copy.next_u64();  // parent consumed one draw by forking
    EXPECT_EQ(parent.next_u64(), parent_copy.next_u64());
    int same = 0;
    for (int i = 0; i < 64; ++i) same += (child.next_u64() == parent.next_u64());
    EXPECT_LT(same, 4);
}

TEST(Rng, ShufflePreservesMultiset) {
    Rng rng{17};
    std::vector<int> values{1, 2, 3, 4, 5, 6, 7, 8};
    auto shuffled = values;
    rng.shuffle(shuffled);
    auto sorted = shuffled;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, values);
}

// ------------------------------------------------------------ Combinatorics

TEST(Combinatorics, SubsetsOfSizeCounts) {
    EXPECT_EQ(subsets_of_size(5, 2).size(), 10u);
    EXPECT_EQ(subsets_of_size(5, 0).size(), 1u);  // the empty set
    EXPECT_EQ(subsets_of_size(3, 4).size(), 0u);
}

TEST(Combinatorics, SubsetsUpToSizeOrderedAndUnique) {
    const auto subsets = subsets_up_to_size(4, 2);
    EXPECT_EQ(subsets.size(), 4u + 6u);
    std::set<std::vector<std::size_t>> unique(subsets.begin(), subsets.end());
    EXPECT_EQ(unique.size(), subsets.size());
    EXPECT_EQ(count_subsets_up_to_size(4, 2), subsets.size());
}

TEST(Combinatorics, ProductForEachVisitsAll) {
    std::vector<std::vector<std::size_t>> seen;
    product_for_each({2, 3}, [&](const std::vector<std::size_t>& t) {
        seen.push_back(t);
        return true;
    });
    ASSERT_EQ(seen.size(), 6u);
    EXPECT_EQ(seen.front(), (std::vector<std::size_t>{0, 0}));
    EXPECT_EQ(seen.back(), (std::vector<std::size_t>{1, 2}));
}

TEST(Combinatorics, ProductForEachEarlyStop) {
    int visits = 0;
    const bool completed = product_for_each({10, 10}, [&](const auto&) {
        return ++visits < 5;
    });
    EXPECT_FALSE(completed);
    EXPECT_EQ(visits, 5);
}

TEST(Combinatorics, ProductForEachZeroRadixVisitsNothing) {
    int visits = 0;
    const bool completed = product_for_each({3, 0, 2}, [&](const auto&) {
        ++visits;
        return true;
    });
    EXPECT_TRUE(completed);
    EXPECT_EQ(visits, 0);
}

TEST(Combinatorics, RankUnrankRoundTrip) {
    const std::vector<std::size_t> radices{3, 4, 2};
    for (std::uint64_t rank = 0; rank < product_size(radices); ++rank) {
        EXPECT_EQ(product_rank(radices, product_unrank(radices, rank)), rank);
    }
}

TEST(Combinatorics, Binomial) {
    EXPECT_EQ(binomial(10, 3), 120u);
    EXPECT_EQ(binomial(10, 0), 1u);
    EXPECT_EQ(binomial(3, 5), 0u);
    EXPECT_EQ(binomial(52, 5), 2'598'960u);
}

TEST(Combinatorics, SubsetEnumeratorMatchesSubsetsUpToSize) {
    SubsetEnumerator::clear_cache();
    for (std::size_t n = 1; n <= 6; ++n) {
        for (std::size_t k = 1; k <= n; ++k) {
            const SubsetEnumerator enumerator(n, k);
            const auto expected = subsets_up_to_size(n, k);
            ASSERT_EQ(enumerator.size(), expected.size()) << "n=" << n << " k=" << k;
            for (std::size_t i = 0; i < expected.size(); ++i) {
                EXPECT_EQ(enumerator[i], expected[i]) << "n=" << n << " k=" << k;
            }
        }
    }
}

TEST(Combinatorics, SubsetEnumeratorCachesPerShape) {
    SubsetEnumerator::clear_cache();
    const SubsetEnumerator first(7, 3);
    const SubsetEnumerator second(7, 3);
    // Same (n, max_size): both enumerators share ONE materialized list.
    EXPECT_EQ(&first.items(), &second.items());
    const SubsetEnumerator other(7, 2);
    EXPECT_NE(&first.items(), &other.items());
}

TEST(Combinatorics, RangedProductForEachConcatenatesToFullEnumeration) {
    const std::vector<std::size_t> radices{3, 2, 2};
    std::vector<std::vector<std::size_t>> full;
    product_for_each(radices, [&](const auto& t) {
        full.push_back(t);
        return true;
    });
    std::vector<std::vector<std::size_t>> chunked;
    const std::uint64_t total = product_size(radices);
    for (std::uint64_t lo = 0; lo < total; lo += 5) {
        product_for_each(radices, lo, std::min(total, lo + 5), [&](const auto& t) {
            chunked.push_back(t);
            return true;
        });
    }
    EXPECT_EQ(chunked, full);
}

TEST(Combinatorics, RangedProductForEachEarlyStopAndBounds) {
    int visits = 0;
    EXPECT_FALSE(product_for_each({4, 4}, 2, 14, [&](const auto&) {
        return ++visits < 3;
    }));
    EXPECT_EQ(visits, 3);
    EXPECT_TRUE(product_for_each({4, 4}, 5, 5, [&](const auto&) { return true; }));
    EXPECT_THROW((void)product_for_each({2, 2}, 0, 5, [](const auto&) { return true; }),
                 std::out_of_range);
}

// ------------------------------------------------------------ OffsetWalker
//
// The shared pinned-digit walker must reproduce, bit for bit, the four
// legacy walk orders it replaced (PRs 1-3 hand-rolled each): the dense
// tensor sweep's rank*n rows, the view tensor sweep's per-digit delta
// walk, GameView::materialize's full walk, and the dominance scanner's
// pinned-digit opponent walk. The references below are the legacy loops,
// inlined verbatim over synthetic per-digit offset tables (what a view's
// cell-offset columns look like).

// Random "cell offset" columns: arbitrary non-monotone offsets are fine —
// the walker only ever adds deltas that cancel over complete rows.
std::vector<std::vector<std::uint64_t>> random_columns(Rng& rng, std::size_t digits,
                                                       std::size_t max_radix) {
    std::vector<std::vector<std::uint64_t>> columns(digits);
    for (auto& column : columns) {
        const std::size_t radix = 1 + rng.next_below(max_radix);
        column.resize(radix);
        for (auto& offset : column) offset = rng.next_u64() % 1000;
    }
    return columns;
}

std::uint64_t row_of(const std::vector<std::vector<std::uint64_t>>& columns,
                     const std::vector<std::size_t>& tuple) {
    std::uint64_t row = 0;
    for (std::size_t d = 0; d < tuple.size(); ++d) row += columns[d][tuple[d]];
    return row;
}

std::vector<std::size_t> radices_of(const std::vector<std::vector<std::uint64_t>>& columns) {
    std::vector<std::size_t> radices;
    for (const auto& column : columns) radices.push_back(column.size());
    return radices;
}

OffsetWalker make_walker(const std::vector<std::vector<std::uint64_t>>& columns) {
    OffsetWalker walker;
    for (const auto& column : columns) walker.add_digit(column.data(), column.size());
    return walker;
}

class OffsetWalkerProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OffsetWalkerProperty, MatchesFromScratchRowSumsEverywhere) {
    // Legacy order #3 (GameView::materialize): every visited row must be
    // the from-scratch sum of its tuple's offsets, in row-major order.
    Rng rng{GetParam()};
    const auto columns = random_columns(rng, 1 + rng.next_below(4), 4);
    const auto radices = radices_of(columns);
    OffsetWalker walker = make_walker(columns);
    walker.reset();
    std::uint64_t rank = 0;
    do {
        EXPECT_EQ(walker.tuple(), product_unrank(radices, rank));
        EXPECT_EQ(walker.row(), row_of(columns, walker.tuple()));
        ++rank;
    } while (walker.advance());
    EXPECT_EQ(rank, product_size(radices));
    EXPECT_EQ(walker.num_tuples(), product_size(radices));
}

TEST_P(OffsetWalkerProperty, MatchesLegacyViewTensorDeltaWalk) {
    // Legacy order #2 (ViewTensorBase::advance): incremental per-digit
    // deltas with unsigned wrap-around, starting from an arbitrary rank.
    Rng rng{GetParam() + 1000};
    const auto columns = random_columns(rng, 2 + rng.next_below(3), 4);
    const auto radices = radices_of(columns);
    const std::uint64_t total = product_size(radices);
    const std::uint64_t begin = rng.next_u64() % total;

    auto tuple = product_unrank(radices, begin);
    std::uint64_t row = row_of(columns, tuple);
    OffsetWalker walker = make_walker(columns);
    walker.seek(begin);
    for (std::uint64_t rank = begin; rank < total; ++rank) {
        EXPECT_EQ(walker.row(), row) << "rank " << rank;
        EXPECT_EQ(walker.tuple(), tuple);
        // The legacy loop, verbatim.
        for (std::size_t d = radices.size(); d-- > 0;) {
            const std::size_t a = ++tuple[d];
            if (a < radices[d]) {
                row += columns[d][a] - columns[d][a - 1];
                break;
            }
            row += columns[d][0] - columns[d][a - 1];
            tuple[d] = 0;
        }
        (void)walker.advance();
    }
}

TEST_P(OffsetWalkerProperty, BlockDecompositionConcatenatesToFullWalk) {
    // Legacy order #1 (the payoff engine's blocked sweeps): seeking block
    // entries and walking each block reproduces the full enumeration.
    Rng rng{GetParam() + 2000};
    const auto columns = random_columns(rng, 2 + rng.next_below(3), 4);
    const std::uint64_t total = product_size(radices_of(columns));
    std::vector<std::uint64_t> full;
    OffsetWalker walker = make_walker(columns);
    walker.reset();
    do {
        full.push_back(walker.row());
    } while (walker.advance());

    const std::uint64_t block = 1 + rng.next_u64() % 7;
    std::vector<std::uint64_t> chunked;
    for (std::uint64_t lo = 0; lo < total; lo += block) {
        const std::uint64_t hi = std::min(total, lo + block);
        OffsetWalker worker = make_walker(columns);
        worker.seek(lo);
        for (std::uint64_t rank = lo; rank < hi; ++rank) {
            chunked.push_back(worker.row());
            (void)worker.advance();
        }
    }
    EXPECT_EQ(chunked, full);
}

TEST_P(OffsetWalkerProperty, PinnedDigitMatchesLegacyOpponentWalk) {
    // Legacy order #4 (for_each_opponent_base): one digit pinned, the
    // rest enumerated row-major with the pinned contribution in every row.
    Rng rng{GetParam() + 3000};
    const auto columns = random_columns(rng, 2 + rng.next_below(3), 4);
    const auto radices = radices_of(columns);
    const std::size_t n = columns.size();
    const std::size_t pinned = rng.next_below(n);
    const std::size_t value = rng.next_below(radices[pinned]);

    // The legacy loop, verbatim (generalized from pin-at-0 to pin-at-v).
    std::vector<std::uint64_t> expected;
    {
        std::vector<std::size_t> tuple(n, 0);
        std::uint64_t row = 0;
        for (std::size_t p = 0; p < n; ++p) {
            row += columns[p][p == pinned ? value : 0];
        }
        while (true) {
            expected.push_back(row);
            std::size_t d = n;
            while (d-- > 0) {
                if (d == pinned) continue;
                if (++tuple[d] < radices[d]) {
                    row += columns[d][tuple[d]] - columns[d][tuple[d] - 1];
                    break;
                }
                row -= columns[d][tuple[d] - 1] - columns[d][0];
                tuple[d] = 0;
            }
            if (d == static_cast<std::size_t>(-1)) break;
        }
    }

    OffsetWalker walker;
    for (std::size_t p = 0; p < n; ++p) {
        if (p == pinned) {
            walker.add_pinned_digit(columns[p].data(), value);
        } else {
            walker.add_digit(columns[p].data(), columns[p].size());
        }
    }
    walker.reset();
    std::vector<std::uint64_t> actual;
    do {
        actual.push_back(walker.row());
    } while (walker.advance());
    EXPECT_EQ(actual, expected);

    // Pinned walk == the full walk filtered to tuples with digit = value.
    OffsetWalker full = make_walker(columns);
    full.reset();
    std::vector<std::uint64_t> filtered;
    do {
        if (full.tuple()[pinned] == value) filtered.push_back(full.row());
    } while (full.advance());
    EXPECT_EQ(actual, filtered);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OffsetWalkerProperty,
                         ::testing::Range<std::uint64_t>(1, 41));

TEST(OffsetWalker, ResetAppliesExternalBase) {
    const std::vector<std::vector<std::uint64_t>> columns{{10, 20}, {1, 2, 3}};
    OffsetWalker walker = make_walker(columns);
    walker.reset(100);
    EXPECT_EQ(walker.row(), 100u + 10u + 1u);
    // Rebase below zero wraps and cancels over a complete row sum.
    walker.reset(std::uint64_t{0} - 11);
    EXPECT_EQ(walker.row(), 0u);
}

TEST(OffsetWalker, SeekValidatesRange) {
    const std::vector<std::vector<std::uint64_t>> columns{{0, 1}, {0, 1, 2}};
    OffsetWalker walker = make_walker(columns);
    walker.seek(5);
    EXPECT_EQ(walker.tuple(), (std::vector<std::size_t>{1, 2}));
    EXPECT_THROW(walker.seek(6), std::out_of_range);
    EXPECT_THROW(walker.add_digit(columns[0].data(), 0), std::invalid_argument);
}

TEST(OffsetWalker, LowestChangedTracksCarries) {
    const std::vector<std::vector<std::uint64_t>> columns{{0, 0}, {0, 0}};
    OffsetWalker walker = make_walker(columns);
    walker.reset();
    ASSERT_TRUE(walker.advance());  // 00 -> 01
    EXPECT_EQ(walker.lowest_changed(), 1u);
    ASSERT_TRUE(walker.advance());  // 01 -> 10: both digits moved
    EXPECT_EQ(walker.lowest_changed(), 0u);
    ASSERT_TRUE(walker.advance());  // 10 -> 11
    EXPECT_EQ(walker.lowest_changed(), 1u);
    EXPECT_FALSE(walker.advance());
    EXPECT_EQ(walker.digit_moves(), 6u);  // 1 + 2 + 1 + 2 digit touches
}

TEST(WorkCounters, AccumulatesAndResets) {
    work_counters_reset();
    work_counters_add(5, 7);
    work_counters_add(1, 2);
    const auto snapshot = work_counters_snapshot();
    EXPECT_EQ(snapshot.cells_visited, 6u);
    EXPECT_EQ(snapshot.offsets_advanced, 9u);
    work_counters_reset();
    EXPECT_EQ(work_counters_snapshot().cells_visited, 0u);
}

// ------------------------------------------------------------------ Matrix

TEST(Matrix, SolveExactSystem) {
    // x + 2y = 5 ; 3x - y = 1  =>  x = 1, y = 2
    MatrixQ a(2, 2);
    a(0, 0) = 1;
    a(0, 1) = 2;
    a(1, 0) = 3;
    a(1, 1) = -1;
    const auto x = solve_linear_system(a, std::vector<Rational>{5, 1});
    ASSERT_TRUE(x.has_value());
    EXPECT_EQ((*x)[0], Rational(1));
    EXPECT_EQ((*x)[1], Rational(2));
}

TEST(Matrix, SingularSystemReturnsNullopt) {
    MatrixQ a(2, 2);
    a(0, 0) = 1;
    a(0, 1) = 2;
    a(1, 0) = 2;
    a(1, 1) = 4;
    EXPECT_FALSE(solve_linear_system(a, std::vector<Rational>{1, 2}).has_value());
}

TEST(Matrix, MultiplyIdentity) {
    const auto eye = MatrixD::identity(3);
    const std::vector<double> x{1.5, -2.0, 3.25};
    EXPECT_EQ(multiply(eye, x), x);
}

class MatrixSolveProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MatrixSolveProperty, SolutionSatisfiesSystem) {
    Rng rng{GetParam()};
    const std::size_t n = 1 + rng.next_below(5);
    MatrixQ a(n, n);
    std::vector<Rational> b(n);
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.next_int(-9, 9);
        b[r] = rng.next_int(-9, 9);
    }
    const auto x = solve_linear_system(a, b);
    if (!x.has_value()) return;  // singular draw: nothing to verify
    const auto ax = multiply(a, *x);
    for (std::size_t r = 0; r < n; ++r) EXPECT_EQ(ax[r], b[r]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatrixSolveProperty,
                         ::testing::Range<std::uint64_t>(1, 41));

// ----------------------------------------------------------------- Simplex

TEST(Simplex, SimpleMaximization) {
    // max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18 => (2, 6), z = 36.
    LpProblem lp;
    lp.objective = {3, 5};
    lp.constraints = {
        {{1, 0}, LpRelation::kLessEqual, 4},
        {{0, 2}, LpRelation::kLessEqual, 12},
        {{3, 2}, LpRelation::kLessEqual, 18},
    };
    const auto solution = solve_lp(lp);
    ASSERT_EQ(solution.status, LpStatus::kOptimal);
    EXPECT_NEAR(solution.objective_value, 36.0, 1e-7);
    EXPECT_NEAR(solution.x[0], 2.0, 1e-7);
    EXPECT_NEAR(solution.x[1], 6.0, 1e-7);
}

TEST(Simplex, DetectsUnbounded) {
    LpProblem lp;
    lp.objective = {1, 0};
    lp.constraints = {{{0, 1}, LpRelation::kLessEqual, 5}};
    EXPECT_EQ(solve_lp(lp).status, LpStatus::kUnbounded);
}

TEST(Simplex, DetectsInfeasible) {
    LpProblem lp;
    lp.objective = {1};
    lp.constraints = {
        {{1}, LpRelation::kLessEqual, 1},
        {{1}, LpRelation::kGreaterEqual, 2},
    };
    EXPECT_EQ(solve_lp(lp).status, LpStatus::kInfeasible);
}

TEST(Simplex, EqualityConstraints) {
    // max x + y st x + y = 3, x <= 2 => z = 3.
    LpProblem lp;
    lp.objective = {1, 1};
    lp.constraints = {
        {{1, 1}, LpRelation::kEqual, 3},
        {{1, 0}, LpRelation::kLessEqual, 2},
    };
    const auto solution = solve_lp(lp);
    ASSERT_EQ(solution.status, LpStatus::kOptimal);
    EXPECT_NEAR(solution.objective_value, 3.0, 1e-7);
}

TEST(Simplex, NegativeRhsNormalized) {
    // x >= 1 expressed as -x <= -1; max -x => x = 1.
    LpProblem lp;
    lp.objective = {-1};
    lp.constraints = {{{-1}, LpRelation::kLessEqual, -1}};
    const auto solution = solve_lp(lp);
    ASSERT_EQ(solution.status, LpStatus::kOptimal);
    EXPECT_NEAR(solution.x[0], 1.0, 1e-7);
}

TEST(Simplex, DegenerateProblemTerminates) {
    // Classic cycling-prone instance (Beale); Bland's rule must terminate.
    LpProblem lp;
    lp.objective = {0.75, -150, 0.02, -6};
    lp.constraints = {
        {{0.25, -60, -0.04, 9}, LpRelation::kLessEqual, 0},
        {{0.5, -90, -0.02, 3}, LpRelation::kLessEqual, 0},
        {{0, 0, 1, 0}, LpRelation::kLessEqual, 1},
    };
    const auto solution = solve_lp(lp);
    ASSERT_EQ(solution.status, LpStatus::kOptimal);
    EXPECT_NEAR(solution.objective_value, 0.05, 1e-7);
}

// Property: on random feasible-by-construction LPs, simplex matches a
// brute-force grid check as an upper bound witness (the simplex optimum
// must weakly dominate every feasible grid point).
class SimplexDominanceProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimplexDominanceProperty, OptimumDominatesFeasiblePoints) {
    Rng rng{GetParam()};
    const std::size_t num_vars = 2;
    LpProblem lp;
    lp.objective = {rng.next_double() * 4 - 2, rng.next_double() * 4 - 2};
    for (int c = 0; c < 3; ++c) {
        lp.constraints.push_back(
            {{rng.next_double() * 2, rng.next_double() * 2}, LpRelation::kLessEqual,
             1.0 + rng.next_double() * 4});
    }
    const auto solution = solve_lp(lp);
    if (solution.status != LpStatus::kOptimal) return;  // unbounded draws allowed
    for (double x = 0; x <= 5.0; x += 0.5) {
        for (double y = 0; y <= 5.0; y += 0.5) {
            bool feasible = true;
            for (const auto& constraint : lp.constraints) {
                if (constraint.coefficients[0] * x + constraint.coefficients[1] * y >
                    constraint.rhs + 1e-9) {
                    feasible = false;
                    break;
                }
            }
            if (!feasible) continue;
            const double value = lp.objective[0] * x + lp.objective[1] * y;
            EXPECT_LE(value, solution.objective_value + 1e-6)
                << "feasible point (" << x << "," << y << ") beats simplex; vars="
                << num_vars;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexDominanceProperty,
                         ::testing::Range<std::uint64_t>(1, 41));

// ------------------------------------------------------------------- Stats

TEST(Stats, Summary) {
    const std::vector<double> values{1, 2, 3, 4};
    const auto s = summarize(values);
    EXPECT_EQ(s.count, 4u);
    EXPECT_DOUBLE_EQ(s.mean, 2.5);
    EXPECT_NEAR(s.stddev, 1.2909944, 1e-6);
    EXPECT_DOUBLE_EQ(s.min, 1);
    EXPECT_DOUBLE_EQ(s.max, 4);
}

TEST(Stats, Percentile) {
    std::vector<double> values{4, 1, 3, 2};
    EXPECT_DOUBLE_EQ(percentile(values, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(values, 1.0), 4.0);
    EXPECT_DOUBLE_EQ(percentile(values, 0.5), 2.5);
}

TEST(Stats, EntropyUniformIsLogN) {
    const std::vector<double> counts{10, 10, 10, 10};
    EXPECT_NEAR(entropy_bits(counts), 2.0, 1e-12);
}

TEST(Stats, GiniExtremes) {
    EXPECT_NEAR(gini({1, 1, 1, 1}), 0.0, 1e-12);
    EXPECT_GT(gini({0, 0, 0, 100}), 0.7);
}

TEST(Stats, TotalVariation) {
    const std::vector<double> p{0.5, 0.5, 0.0};
    const std::vector<double> q{0.0, 0.5, 0.5};
    EXPECT_DOUBLE_EQ(total_variation(p, q), 0.5);
    EXPECT_DOUBLE_EQ(total_variation(p, p), 0.0);
}

// ------------------------------------------------------------------- Table

TEST(Table, FormatsAlignedColumns) {
    Table table({"n", "value"});
    table.add_row({"1", "alpha"});
    table.add_row({"10", "b"});
    const auto text = table.to_string();
    EXPECT_NE(text.find("| n  | value |"), std::string::npos);
    EXPECT_NE(text.find("| 10 | b     |"), std::string::npos);
}

TEST(Table, RejectsRaggedRows) {
    Table table({"a", "b"});
    EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, CsvOutput) {
    Table table({"a", "b"});
    table.add_row({"1", "2"});
    EXPECT_EQ(table.to_csv(), "a,b\n1,2\n");
}

TEST(Table, FmtHelpers) {
    EXPECT_EQ(Table::fmt(1.23456, 2), "1.23");
    EXPECT_EQ(Table::fmt(std::size_t{42}), "42");
    EXPECT_EQ(Table::fmt(true), "yes");
}

}  // namespace
}  // namespace bnash::util
