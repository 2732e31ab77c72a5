#include "solver/support_enumeration.h"

#include <algorithm>
#include <stdexcept>

#include "util/combinatorics.h"
#include "util/matrix.h"

namespace bnash::solver {
namespace {

using util::MatrixQ;
using util::Rational;

// Solves the indifference system for the COLUMN player's strategy y over
// support s_col, making the ROW player indifferent across s_row:
//   sum_{j in s_col} payoff(i, j) * y_j = v   for every i in s_row
//   sum_{j in s_col} y_j = 1
// Returns (y over s_col, v) or nullopt when singular.
struct IndifferenceSolution final {
    std::vector<Rational> weights;
    Rational value;
};

std::optional<IndifferenceSolution> solve_indifference(
    const MatrixQ& payoffs, const std::vector<std::size_t>& s_row,
    const std::vector<std::size_t>& s_col) {
    const std::size_t k = s_row.size();
    // Unknowns: y_0..y_{k-1}, v. Equations: k indifference rows + simplex.
    MatrixQ system(k + 1, k + 1);
    std::vector<Rational> rhs(k + 1, Rational{0});
    for (std::size_t row = 0; row < k; ++row) {
        for (std::size_t col = 0; col < k; ++col) {
            system(row, col) = payoffs(s_row[row], s_col[col]);
        }
        system(row, k) = Rational{-1};
    }
    for (std::size_t col = 0; col < k; ++col) system(k, col) = Rational{1};
    rhs[k] = Rational{1};
    auto solution = util::solve_linear_system(std::move(system), std::move(rhs));
    if (!solution) return std::nullopt;
    IndifferenceSolution out;
    out.weights.assign(solution->begin(), solution->begin() + static_cast<std::ptrdiff_t>(k));
    out.value = (*solution)[k];
    return out;
}

bool all_nonnegative(const std::vector<Rational>& values) {
    return std::all_of(values.begin(), values.end(),
                       [](const Rational& v) { return v.sign() >= 0; });
}

// Checks that no action outside the support beats `value` against `mixed`.
bool no_profitable_outside_deviation(const MatrixQ& payoffs, bool transpose,
                                     const game::ExactMixedStrategy& mixed,
                                     const std::vector<std::size_t>& own_support,
                                     const Rational& value) {
    const std::size_t own_count = transpose ? payoffs.cols() : payoffs.rows();
    const std::size_t other_count = transpose ? payoffs.rows() : payoffs.cols();
    for (std::size_t action = 0; action < own_count; ++action) {
        if (std::find(own_support.begin(), own_support.end(), action) != own_support.end()) {
            continue;
        }
        Rational payoff{0};
        for (std::size_t other = 0; other < other_count; ++other) {
            if (mixed[other].is_zero()) continue;
            payoff += (transpose ? payoffs(other, action) : payoffs(action, other)) *
                      mixed[other];
        }
        if (payoff > value) return false;
    }
    return true;
}

}  // namespace

std::vector<MixedEquilibrium> support_enumeration(const game::GameView& view,
                                                  std::size_t max_support) {
    if (view.num_players() != 2) {
        throw std::logic_error("support_enumeration: 2-player games only");
    }
    const std::size_t m = view.num_actions(0);
    const std::size_t n = view.num_actions(1);
    // Payoff matrices read through the view's cell offsets: no
    // restricted tensor is materialized (the tensor_allocations() tests
    // pin this).
    const MatrixQ a = view.payoff_matrix(0);
    const MatrixQ b = view.payoff_matrix(1);

    std::vector<MixedEquilibrium> out;
    const std::size_t limit = std::min({m, n, max_support});
    for (std::size_t size = 1; size <= limit; ++size) {
        for (const auto& s_row : util::subsets_of_size(m, size)) {
            for (const auto& s_col : util::subsets_of_size(n, size)) {
                // Column strategy makes the row player indifferent on s_row.
                const auto col_solution = solve_indifference(a, s_row, s_col);
                if (!col_solution || !all_nonnegative(col_solution->weights)) continue;
                // Row strategy makes the column player indifferent on s_col.
                // Transposed system: payoff(j, i) entries come from b.
                MatrixQ bt(n, m);
                for (std::size_t r = 0; r < m; ++r) {
                    for (std::size_t c = 0; c < n; ++c) bt(c, r) = b(r, c);
                }
                const auto row_solution = solve_indifference(bt, s_col, s_row);
                if (!row_solution || !all_nonnegative(row_solution->weights)) continue;

                game::ExactMixedStrategy x(m, Rational{0});
                game::ExactMixedStrategy y(n, Rational{0});
                for (std::size_t i = 0; i < size; ++i) {
                    x[s_row[i]] = row_solution->weights[i];
                    y[s_col[i]] = col_solution->weights[i];
                }
                if (!no_profitable_outside_deviation(a, false, y, s_row,
                                                     col_solution->value) ||
                    !no_profitable_outside_deviation(b, true, x, s_col,
                                                     row_solution->value)) {
                    continue;
                }
                game::ExactMixedProfile profile{x, y};
                const bool duplicate =
                    std::any_of(out.begin(), out.end(), [&](const MixedEquilibrium& eq) {
                        return eq.profile == profile;
                    });
                if (duplicate) continue;
                out.push_back(MixedEquilibrium{
                    std::move(profile),
                    {col_solution->value, row_solution->value}});
            }
        }
    }
    return out;
}

}  // namespace bnash::solver
