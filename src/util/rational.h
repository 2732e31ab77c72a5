// Exact rational arithmetic on 64-bit numerator/denominator.
//
// Equilibrium computations (support enumeration, Lemke-Howson pivoting,
// indifference systems) need exact arithmetic: floating point misclassifies
// degenerate best-response ties. Rational keeps values normalized
// (gcd-reduced, denominator > 0) and computes through __int128 so that any
// product of in-range values is detected before silent wrap-around.
#pragma once

#include <compare>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace bnash::util {

// Thrown when a Rational operation would overflow the int64 representation
// even after gcd reduction.
class RationalOverflow final : public std::exception {
public:
    const char* what() const noexcept override {
        return "bnash::util::Rational overflow";
    }
};

class Rational final {
public:
    constexpr Rational() noexcept = default;
    // Intentionally implicit: integer literals must behave as rationals in
    // payoff tables (`Rational p = 3;`) exactly as int behaves for double.
    constexpr Rational(std::int64_t value) noexcept : num_(value) {}  // NOLINT
    Rational(std::int64_t num, std::int64_t den);

    // Nearest rational with denominator <= max_den (Stern-Brocot walk).
    // Used when importing measured (double) payoffs into exact solvers.
    static Rational from_double(double value, std::int64_t max_den = 1'000'000);

    [[nodiscard]] constexpr std::int64_t num() const noexcept { return num_; }
    [[nodiscard]] constexpr std::int64_t den() const noexcept { return den_; }

    [[nodiscard]] double to_double() const noexcept;
    [[nodiscard]] std::string to_string() const;

    [[nodiscard]] constexpr bool is_zero() const noexcept { return num_ == 0; }
    [[nodiscard]] constexpr bool is_integer() const noexcept { return den_ == 1; }
    [[nodiscard]] constexpr int sign() const noexcept {
        return num_ > 0 ? 1 : (num_ < 0 ? -1 : 0);
    }

    [[nodiscard]] Rational abs() const;
    [[nodiscard]] Rational reciprocal() const;

    Rational& operator+=(const Rational& rhs);
    Rational& operator-=(const Rational& rhs);
    Rational& operator*=(const Rational& rhs);
    Rational& operator/=(const Rational& rhs);

    friend Rational operator+(Rational lhs, const Rational& rhs) { return lhs += rhs; }
    friend Rational operator-(Rational lhs, const Rational& rhs) { return lhs -= rhs; }
    friend Rational operator*(Rational lhs, const Rational& rhs) { return lhs *= rhs; }
    friend Rational operator/(Rational lhs, const Rational& rhs) { return lhs /= rhs; }
    friend Rational operator-(const Rational& value);

    friend bool operator==(const Rational& lhs, const Rational& rhs) noexcept = default;
    // Exact order, inline because the robustness kernels compare payoffs
    // once per cell. Equal denominators (every integer-payoff game) take
    // the fast path num <=> num, which is exact because values are kept
    // normalized with den > 0. Otherwise the cross products are formed in
    // 128 bits, where no product of two int64 values can overflow.
    friend std::strong_ordering operator<=>(const Rational& lhs, const Rational& rhs) noexcept {
        if (lhs.den_ == rhs.den_) return lhs.num_ <=> rhs.num_;
        __extension__ typedef __int128 Int128;  // GCC/Clang extension, pedantic-safe
        return Int128{lhs.num_} * rhs.den_ <=> Int128{rhs.num_} * lhs.den_;
    }

    friend std::ostream& operator<<(std::ostream& os, const Rational& value);

private:
    std::int64_t num_ = 0;
    std::int64_t den_ = 1;
};

}  // namespace bnash::util
