#include "game/game_view.h"

#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/combinatorics.h"
#include "util/offset_walker.h"

namespace bnash::game {

GameView::GameView(const NormalFormGame& parent, std::vector<std::size_t> player_map,
                   std::vector<std::vector<std::size_t>> kept)
    : parent_(&parent),
      ranks_(parent.ordinal_ranks().data()),
      levels_(&parent.levels(0)),
      levels_d_(&parent.levels_d(0)),
      player_map_(std::move(player_map)),
      kept_(std::move(kept)) {
    rebuild_tables();
}

void GameView::rebuild_tables() {
    const std::size_t parent_n = parent_->num_players();
    // Parent row-major strides, premultiplied by the row width so cell
    // offsets land directly in flat-tensor units.
    std::vector<std::uint64_t> strides(parent_n, parent_n);
    for (std::size_t i = parent_n - 1; i-- > 0;) {
        strides[i] = strides[i + 1] * parent_->num_actions(i + 1);
    }
    const std::size_t n = player_map_.size();
    action_counts_.assign(n, 0);
    cell_offsets_.assign(n, {});
    for (std::size_t p = 0; p < n; ++p) {
        action_counts_[p] = kept_[p].size();
        cell_offsets_[p].resize(kept_[p].size());
        for (std::size_t a = 0; a < kept_[p].size(); ++a) {
            cell_offsets_[p][a] = strides[player_map_[p]] * kept_[p][a];
        }
    }
    num_profiles_ = util::product_size(action_counts_);
    identity_players_ = n == parent_n;
    identity_ = identity_players_;
    for (std::size_t p = 0; p < n && identity_players_; ++p) {
        if (player_map_[p] != p) identity_players_ = identity_ = false;
        if (kept_[p].size() != parent_->num_actions(p)) identity_ = false;
        for (std::size_t a = 0; a < kept_[p].size() && identity_; ++a) {
            if (kept_[p][a] != a) identity_ = false;
        }
    }
}

GameView::GameView(const NormalFormGame& game)
    : GameView(permute(game, [&game] {
          std::vector<std::size_t> order(game.num_players());
          std::iota(order.begin(), order.end(), std::size_t{0});
          return order;
      }())) {}

GameView GameView::restrict(const NormalFormGame& game,
                            const std::vector<std::vector<std::size_t>>& kept_actions) {
    return full(game).restrict(kept_actions);
}

GameView GameView::permute(const NormalFormGame& game,
                           const std::vector<std::size_t>& player_order) {
    if (player_order.size() != game.num_players()) {
        throw std::invalid_argument("GameView::permute: width");
    }
    std::vector<bool> seen(game.num_players(), false);
    std::vector<std::vector<std::size_t>> kept(game.num_players());
    for (std::size_t p = 0; p < player_order.size(); ++p) {
        const std::size_t parent_player = player_order[p];
        if (parent_player >= game.num_players() || seen[parent_player]) {
            throw std::invalid_argument("GameView::permute: not a permutation");
        }
        seen[parent_player] = true;
        kept[p].resize(game.num_actions(parent_player));
        for (std::size_t a = 0; a < kept[p].size(); ++a) kept[p][a] = a;
    }
    return GameView(game, player_order, std::move(kept));
}

GameView GameView::restrict(const std::vector<std::vector<std::size_t>>& kept_actions) const {
    if (kept_actions.size() != num_players()) {
        throw std::invalid_argument("GameView::restrict: width");
    }
    std::vector<std::vector<std::size_t>> composed(num_players());
    for (std::size_t p = 0; p < num_players(); ++p) {
        if (kept_actions[p].empty()) {
            throw std::invalid_argument("GameView::restrict: player left with no actions");
        }
        composed[p].reserve(kept_actions[p].size());
        for (const std::size_t action : kept_actions[p]) {
            if (action >= num_actions(p)) {
                throw std::out_of_range("GameView::restrict: bad action");
            }
            composed[p].push_back(kept_[p][action]);
        }
    }
    return GameView(*parent_, player_map_, std::move(composed));
}

const util::Rational& GameView::payoff_at(std::uint64_t rank, std::size_t player) const {
    return payoff_from(row_offset(util::product_unrank(action_counts_, rank)), player);
}

double GameView::payoff_d_at(std::uint64_t rank, std::size_t player) const {
    return payoff_d_from(row_offset(util::product_unrank(action_counts_, rank)), player);
}

util::MatrixQ GameView::payoff_matrix(std::size_t player) const {
    if (num_players() != 2) throw std::logic_error("payoff_matrix: 2-player views only");
    util::MatrixQ out(action_counts_[0], action_counts_[1]);
    for (std::size_t r = 0; r < action_counts_[0]; ++r) {
        for (std::size_t c = 0; c < action_counts_[1]; ++c) {
            out(r, c) = payoff_from(cell_offsets_[0][r] + cell_offsets_[1][c], player);
        }
    }
    return out;
}

NormalFormGame GameView::materialize() const {
    const std::size_t n = num_players();
    std::vector<util::Rational> values;
    values.reserve(num_profiles_ * n);
    util::OffsetWalker walker;
    walker.reserve(n);
    for (std::size_t p = 0; p < n; ++p) {
        walker.add_digit(cell_offsets_[p].data(), cell_offsets_[p].size());
    }
    walker.reset();
    for (std::uint64_t rank = 0; rank < num_profiles_; ++rank) {
        for (std::size_t p = 0; p < n; ++p) values.push_back(payoff_from(walker.row(), p));
        // lint: no-charge(one-shot tensor copy, not sweep work; the CI
        // counters gate the sweep kernels and materialize predates them)
        (void)walker.advance();
    }
    NormalFormGame out(action_counts_);
    out.assign_payoffs(values);
    for (std::size_t p = 0; p < n; ++p) {
        const std::size_t parent_player = player_map_[p];
        if (!parent_->has_action_labels(parent_player)) continue;
        std::vector<std::string> labels;
        labels.reserve(kept_[p].size());
        for (const std::size_t action : kept_[p]) {
            labels.push_back(parent_->action_label(parent_player, action));
        }
        out.set_action_labels(p, std::move(labels));
    }
    return out;
}

}  // namespace bnash::game
