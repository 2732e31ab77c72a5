#include "solver/iterated_elimination.h"

#include <functional>
#include <stdexcept>

#include "util/offset_walker.h"
#include "util/simplex.h"

namespace bnash::solver {
namespace {

using game::GameView;

// Visits the flat row offset of every profile of the players other than
// `player`, with `player`'s own digit pinned to its first view action, in
// row-major order. The player's payoff under own action a is
// payoff_from(base + cell_offset(player, a) - cell_offset(player, 0)):
// dominance scans walk the parent tensor through the shared pinned-digit
// OffsetWalker instead of materializing and re-ranking a PureProfile per
// cell.
void for_each_opponent_base(const GameView& view, std::size_t player,
                            const std::function<bool(std::uint64_t)>& visit) {
    const std::size_t n = view.num_players();
    util::OffsetWalker walker;
    walker.reserve(n);
    for (std::size_t p = 0; p < n; ++p) {
        const auto& column = view.cell_offsets(p);
        if (p == player) {
            walker.add_pinned_digit(column.data(), 0);
        } else {
            walker.add_digit(column.data(), column.size());
        }
    }
    walker.reset();
    do {
        if (!visit(walker.row())) return;
    } while (walker.advance());
}

bool pure_dominates(const GameView& view, std::size_t player, std::size_t dominator,
                    std::size_t dominated, bool strict) {
    const std::uint64_t dominator_delta =
        view.cell_offset(player, dominator) - view.cell_offset(player, 0);
    const std::uint64_t dominated_delta =
        view.cell_offset(player, dominated) - view.cell_offset(player, 0);
    // Both payoffs are the player's own, so they compare like their
    // ordinal ranks in the parent's column.
    const std::uint32_t* ranks =
        view.parent().ordinal_ranks().data() + view.parent_player(player);
    bool all_hold = true;
    bool somewhere_strict = false;
    for_each_opponent_base(view, player, [&](std::uint64_t base) {
        const std::uint32_t u_dominated = ranks[base + dominated_delta];
        const std::uint32_t u_dominator = ranks[base + dominator_delta];
        if (strict ? !(u_dominator > u_dominated) : (u_dominator < u_dominated)) {
            all_hold = false;
            return false;
        }
        if (u_dominator > u_dominated) somewhere_strict = true;
        return true;
    });
    if (!all_hold) return false;
    return strict || somewhere_strict;
}

// LP test: does some mixture of the player's other actions strictly
// dominate `action`? Maximizes the worst-case gap; dominated iff > 0.
bool mixed_dominates(const GameView& view, std::size_t player, std::size_t action) {
    const std::size_t num_actions = view.num_actions(player);
    if (num_actions < 2) return false;
    std::vector<std::size_t> others;
    for (std::size_t a = 0; a < num_actions; ++a) {
        if (a != action) others.push_back(a);
    }
    // Variables: sigma over `others` plus the gap epsilon (all >= 0).
    util::LpProblem lp;
    lp.objective.assign(others.size() + 1, 0.0);
    lp.objective.back() = 1.0;  // maximize epsilon
    // For every opponent profile o: sum_b sigma_b u(b,o) - u(action,o) - eps >= 0.
    const std::uint64_t base0 = view.cell_offset(player, 0);
    for_each_opponent_base(view, player, [&](std::uint64_t base) {
        util::LpConstraint constraint;
        constraint.coefficients.assign(others.size() + 1, 0.0);
        for (std::size_t b = 0; b < others.size(); ++b) {
            constraint.coefficients[b] = view.payoff_d_from(
                base + view.cell_offset(player, others[b]) - base0, player);
        }
        constraint.coefficients.back() = -1.0;
        constraint.relation = util::LpRelation::kGreaterEqual;
        constraint.rhs =
            view.payoff_d_from(base + view.cell_offset(player, action) - base0, player);
        lp.constraints.push_back(std::move(constraint));
        return true;
    });
    util::LpConstraint simplex_row;
    simplex_row.coefficients.assign(others.size() + 1, 1.0);
    simplex_row.coefficients.back() = 0.0;
    simplex_row.relation = util::LpRelation::kEqual;
    simplex_row.rhs = 1.0;
    lp.constraints.push_back(std::move(simplex_row));

    const auto solution = util::solve_lp(lp);
    return solution.status == util::LpStatus::kOptimal && solution.objective_value > 1e-7;
}

}  // namespace

bool is_dominated(const GameView& view, std::size_t player, std::size_t action,
                  DominanceKind kind) {
    if (player >= view.num_players() || action >= view.num_actions(player)) {
        throw std::out_of_range("is_dominated: bad player or action");
    }
    switch (kind) {
        case DominanceKind::kStrictPure:
        case DominanceKind::kWeakPure: {
            const bool strict = (kind == DominanceKind::kStrictPure);
            for (std::size_t b = 0; b < view.num_actions(player); ++b) {
                if (b == action) continue;
                if (pure_dominates(view, player, b, action, strict)) return true;
            }
            return false;
        }
        case DominanceKind::kStrictMixed:
            return mixed_dominates(view, player, action);
    }
    return false;
}

ViewEliminationResult iterated_elimination_view(const game::NormalFormGame& game,
                                                DominanceKind kind) {
    std::vector<std::vector<std::size_t>> kept(game.num_players());
    for (std::size_t player = 0; player < game.num_players(); ++player) {
        kept[player].resize(game.num_actions(player));
        for (std::size_t a = 0; a < game.num_actions(player); ++a) kept[player][a] = a;
    }
    std::vector<EliminationStep> trace;
    GameView view = GameView::full(game);
    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t player = 0; player < view.num_players() && !changed; ++player) {
            if (view.num_actions(player) < 2) continue;
            for (std::size_t action = 0; action < view.num_actions(player); ++action) {
                if (!is_dominated(view, player, action, kind)) continue;
                trace.push_back(EliminationStep{player, kept[player][action]});
                kept[player].erase(kept[player].begin() +
                                   static_cast<std::ptrdiff_t>(action));
                view = GameView::restrict(game, kept);
                changed = true;
                break;
            }
        }
    }
    return ViewEliminationResult{std::move(view), std::move(kept), std::move(trace)};
}

EliminationResult iterated_elimination(const game::NormalFormGame& game, DominanceKind kind) {
    auto result = iterated_elimination_view(game, kind);
    // The pipeline's only tensor allocation: the final reduced game.
    return EliminationResult{result.reduced.materialize(), std::move(result.kept),
                             std::move(result.trace)};
}

}  // namespace bnash::solver
