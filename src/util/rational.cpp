#include "util/rational.h"

#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <ostream>
#include <stdexcept>
#include <utility>

namespace bnash::util {
namespace {

__extension__ typedef __int128 Int128;  // GCC/Clang extension, pedantic-safe

constexpr Int128 kMinInt64 = std::numeric_limits<std::int64_t>::min();
constexpr Int128 kMaxInt64 = std::numeric_limits<std::int64_t>::max();

std::int64_t narrow_checked(Int128 value) {
    if (value < kMinInt64 || value > kMaxInt64) throw RationalOverflow{};
    return static_cast<std::int64_t>(value);
}

Int128 abs128(Int128 value) { return value < 0 ? -value : value; }

// Magnitudes below 2^62: their negation, quotient and gcd all fit in 64
// bits, so such values reduce without 128-bit division.
constexpr std::int64_t kSmallLimit = std::int64_t{1} << 62;

constexpr bool is_small(Int128 value) { return value > -kSmallLimit && value < kSmallLimit; }

constexpr std::uint64_t magnitude(std::int64_t value) {
    return value < 0 ? std::uint64_t{0} - static_cast<std::uint64_t>(value)
                     : static_cast<std::uint64_t>(value);
}

// Stein's binary gcd; gcd64(0, b) == b.
std::uint64_t gcd64(std::uint64_t a, std::uint64_t b) {
    if (a == 0) return b;
    if (b == 0) return a;
    const int shift = std::countr_zero(a | b);
    a >>= std::countr_zero(a);
    do {
        b >>= std::countr_zero(b);
        if (a > b) std::swap(a, b);
        b -= a;
    } while (b != 0);
    return a << shift;
}

Int128 gcd128(Int128 a, Int128 b) {
    a = abs128(a);
    b = abs128(b);
    while (b != 0) {
        const Int128 r = a % b;
        a = b;
        b = r;
    }
    return a;
}

}  // namespace

Rational::Rational(std::int64_t num, std::int64_t den) {
    if (den == 0) throw std::invalid_argument("Rational: zero denominator");
    if (den == 1) {
        num_ = num;
        return;
    }
    if (is_small(num) && is_small(den)) {
        if (den < 0) {
            num = -num;
            den = -den;
        }
        num_ = num;
        den_ = den;
        // A common factor is divided out in unsigned arithmetic, and only
        // when there is one: most payoff fractions are already reduced.
        const std::uint64_t top = magnitude(num);
        const std::uint64_t g = gcd64(top, static_cast<std::uint64_t>(den));
        if (g > 1) {
            const auto reduced = static_cast<std::int64_t>(top / g);
            num_ = num < 0 ? -reduced : reduced;
            den_ = static_cast<std::int64_t>(static_cast<std::uint64_t>(den) / g);
        }
        return;
    }
    Int128 n = num;
    Int128 d = den;
    if (d < 0) {
        n = -n;
        d = -d;
    }
    const Int128 g = gcd128(n, d);
    if (g > 1) {
        n /= g;
        d /= g;
    }
    num_ = narrow_checked(n);
    den_ = narrow_checked(d);
}

Rational Rational::from_double(double value, std::int64_t max_den) {
    if (!std::isfinite(value)) {
        throw std::invalid_argument("Rational::from_double: non-finite value");
    }
    if (max_den < 1) throw std::invalid_argument("Rational::from_double: max_den < 1");
    const bool negative = value < 0;
    double x = std::fabs(value);
    // Continued-fraction convergents: successive best rational approximations.
    std::int64_t p0 = 0, q0 = 1, p1 = 1, q1 = 0;
    double frac = x;
    for (int iter = 0; iter < 64; ++iter) {
        const double floor_part = std::floor(frac);
        if (floor_part > static_cast<double>(kMaxInt64) / 2) break;
        const auto a = static_cast<std::int64_t>(floor_part);
        const Int128 p2 = Int128{a} * p1 + p0;
        const Int128 q2 = Int128{a} * q1 + q0;
        if (q2 > max_den || p2 > kMaxInt64) break;
        p0 = p1;
        q0 = q1;
        p1 = static_cast<std::int64_t>(p2);
        q1 = static_cast<std::int64_t>(q2);
        const double remainder = frac - floor_part;
        if (remainder < 1e-15) break;
        frac = 1.0 / remainder;
    }
    if (q1 == 0) throw RationalOverflow{};
    return Rational{negative ? -p1 : p1, q1};
}

double Rational::to_double() const noexcept {
    return static_cast<double>(num_) / static_cast<double>(den_);
}

std::string Rational::to_string() const {
    if (den_ == 1) return std::to_string(num_);
    return std::to_string(num_) + "/" + std::to_string(den_);
}

Rational Rational::abs() const { return num_ >= 0 ? *this : -*this; }

Rational Rational::reciprocal() const {
    if (num_ == 0) throw std::domain_error("Rational::reciprocal of zero");
    return Rational{den_, num_};
}

namespace {

// Below 2^62 in magnitude the constructor reduces in 64 bits; wider
// values take the 128-bit loop first and are then already coprime.
Rational make_reduced(Int128 num, Int128 den) {
    if (is_small(num) && is_small(den)) {
        return Rational{static_cast<std::int64_t>(num), static_cast<std::int64_t>(den)};
    }
    if (den < 0) {
        num = -num;
        den = -den;
    }
    const Int128 g = gcd128(num, den);
    if (g > 1) {
        num /= g;
        den /= g;
    }
    return Rational{narrow_checked(num), narrow_checked(den)};
}

}  // namespace

Rational& Rational::operator+=(const Rational& rhs) {
    const Int128 num = Int128{num_} * rhs.den_ + Int128{rhs.num_} * den_;
    const Int128 den = Int128{den_} * rhs.den_;
    *this = make_reduced(num, den);
    return *this;
}

Rational& Rational::operator-=(const Rational& rhs) {
    const Int128 num = Int128{num_} * rhs.den_ - Int128{rhs.num_} * den_;
    const Int128 den = Int128{den_} * rhs.den_;
    *this = make_reduced(num, den);
    return *this;
}

Rational& Rational::operator*=(const Rational& rhs) {
    const Int128 num = Int128{num_} * rhs.num_;
    const Int128 den = Int128{den_} * rhs.den_;
    *this = make_reduced(num, den);
    return *this;
}

Rational& Rational::operator/=(const Rational& rhs) {
    if (rhs.num_ == 0) throw std::domain_error("Rational: division by zero");
    const Int128 num = Int128{num_} * rhs.den_;
    const Int128 den = Int128{den_} * rhs.num_;
    *this = make_reduced(num, den);
    return *this;
}

Rational operator-(const Rational& value) {
    Rational out;
    out.num_ = narrow_checked(-Int128{value.num_});
    out.den_ = value.den_;
    return out;
}

std::ostream& operator<<(std::ostream& os, const Rational& value) {
    return os << value.to_string();
}

}  // namespace bnash::util
