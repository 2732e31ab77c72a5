#include "solver/lemke_howson.h"

#include <algorithm>
#include <stdexcept>

#include "game/payoff_engine.h"
#include "util/matrix.h"

namespace bnash::solver {
namespace {

using util::MatrixQ;
using util::Rational;

// One best-response polytope in tableau form. Column index == variable
// label, so "enter the variable with label l" is "enter column l".
class PolytopeTableau final {
public:
    PolytopeTableau(std::size_t rows, std::size_t cols) : body_(rows, cols + 1), basis_(rows) {}

    Rational& at(std::size_t r, std::size_t c) { return body_(r, c); }
    Rational& rhs(std::size_t r) { return body_(r, body_.cols() - 1); }
    std::size_t& basis(std::size_t r) { return basis_[r]; }
    [[nodiscard]] std::size_t rows() const { return body_.rows(); }

    // Minimum-ratio row for entering column c; ties break toward the
    // smallest basis label. Returns nullopt when no coefficient is
    // positive (an unbounded ray).
    [[nodiscard]] std::optional<std::size_t> min_ratio_row(std::size_t c) {
        std::optional<std::size_t> best;
        Rational best_ratio{0};
        for (std::size_t r = 0; r < rows(); ++r) {
            if (body_(r, c).sign() <= 0) continue;
            const Rational ratio = rhs(r) / body_(r, c);
            if (!best || ratio < best_ratio ||
                (ratio == best_ratio && basis_[r] < basis_[*best])) {
                best = r;
                best_ratio = ratio;
            }
        }
        return best;
    }

    void pivot(std::size_t pivot_row, std::size_t pivot_col) {
        const Rational inv = body_(pivot_row, pivot_col).reciprocal();
        for (std::size_t c = 0; c < body_.cols(); ++c) body_(pivot_row, c) *= inv;
        for (std::size_t r = 0; r < rows(); ++r) {
            if (r == pivot_row) continue;
            const Rational factor = body_(r, pivot_col);
            if (factor.is_zero()) continue;
            for (std::size_t c = 0; c < body_.cols(); ++c) {
                body_(r, c) -= factor * body_(pivot_row, c);
            }
        }
        basis_[pivot_row] = pivot_col;
    }

private:
    MatrixQ body_;
    std::vector<std::size_t> basis_;
};

}  // namespace

std::optional<MixedEquilibrium> lemke_howson(const game::GameView& view,
                                             std::size_t initial_label,
                                             std::size_t max_pivots,
                                             LemkeHowsonStats* stats) {
    if (view.num_players() != 2) {
        throw std::logic_error("lemke_howson: 2-player games only");
    }
    const std::size_t m = view.num_actions(0);
    const std::size_t n = view.num_actions(1);
    if (initial_label >= m + n) throw std::out_of_range("lemke_howson: bad label");

    // Payoff matrices read through the view's cell offsets: no
    // restricted tensor is materialized.
    const MatrixQ a = view.payoff_matrix(0);
    const MatrixQ b = view.payoff_matrix(1);
    // Shift both payoff matrices strictly positive; equilibria are invariant
    // under adding a constant to all of one player's payoffs.
    Rational min_entry = a(0, 0);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            min_entry = std::min({min_entry, a(i, j), b(i, j)});
        }
    }
    const Rational shift = Rational{1} - min_entry;

    // System 1 (x-polytope): B'^T x + s = 1. Rows: n. Labels: x_i = i,
    // s_j = m + j.
    PolytopeTableau sys1(n, m + n);
    for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t i = 0; i < m; ++i) sys1.at(j, i) = b(i, j) + shift;
        sys1.at(j, m + j) = Rational{1};
        sys1.rhs(j) = Rational{1};
        sys1.basis(j) = m + j;
    }
    // System 2 (y-polytope): A' y + r = 1. Rows: m. Labels: r_i = i,
    // y_j = m + j.
    PolytopeTableau sys2(m, m + n);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) sys2.at(i, m + j) = a(i, j) + shift;
        sys2.at(i, i) = Rational{1};
        sys2.rhs(i) = Rational{1};
        sys2.basis(i) = i;
    }

    std::size_t entering = initial_label;
    bool in_sys1 = initial_label < m;
    std::size_t pivots = 0;
    while (true) {
        if (pivots++ >= max_pivots) return std::nullopt;  // degenerate cycling cap
        PolytopeTableau& tableau = in_sys1 ? sys1 : sys2;
        const auto row = tableau.min_ratio_row(entering);
        if (!row) return std::nullopt;  // ray: cannot happen with positive payoffs
        const std::size_t leaving = tableau.basis(*row);
        tableau.pivot(*row, entering);
        if (leaving == initial_label) break;
        entering = leaving;
        in_sys1 = !in_sys1;
    }
    if (stats != nullptr) stats->pivots = pivots;

    // Extract and normalize both strategies.
    game::ExactMixedStrategy x(m, Rational{0});
    game::ExactMixedStrategy y(n, Rational{0});
    Rational x_total{0};
    Rational y_total{0};
    for (std::size_t r = 0; r < sys1.rows(); ++r) {
        if (sys1.basis(r) < m) {
            x[sys1.basis(r)] = sys1.rhs(r);
            x_total += sys1.rhs(r);
        }
    }
    for (std::size_t r = 0; r < sys2.rows(); ++r) {
        if (sys2.basis(r) >= m) {
            y[sys2.basis(r) - m] = sys2.rhs(r);
            y_total += sys2.rhs(r);
        }
    }
    if (x_total.is_zero() || y_total.is_zero()) return std::nullopt;  // artificial point
    for (auto& v : x) v /= x_total;
    for (auto& v : y) v /= y_total;

    MixedEquilibrium out;
    out.profile = {std::move(x), std::move(y)};
    out.payoffs = {game::expected_payoff_exact(view, out.profile, 0),
                   game::expected_payoff_exact(view, out.profile, 1)};
    return out;
}

std::vector<MixedEquilibrium> lemke_howson_all_labels(const game::GameView& view,
                                                      std::size_t max_pivots) {
    const std::size_t num_labels = view.num_actions(0) + view.num_actions(1);
    std::vector<MixedEquilibrium> out;
    for (std::size_t label = 0; label < num_labels; ++label) {
        auto eq = lemke_howson(view, label, max_pivots);
        if (!eq) continue;
        const bool duplicate =
            std::any_of(out.begin(), out.end(), [&](const MixedEquilibrium& existing) {
                return existing.profile == eq->profile;
            });
        if (!duplicate) out.push_back(std::move(*eq));
    }
    return out;
}

}  // namespace bnash::solver
