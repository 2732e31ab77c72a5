// Zero-copy views over a NormalFormGame's payoff store.
//
// A GameView is a non-owning, stride-indexed window onto a parent game's
// flat payoff store: the full game, an action-restricted subgame, a
// player-permuted slice, or any composition of those. It exposes the same
// payoff_at(rank, player) / action_counts() contract the payoff sweeps and
// the dominance scanners consume, so consumers sweep a subgame without
// ever materializing its tensor — iterated elimination runs its whole
// reduction loop on views and materializes only the final reduced game.
//
// Representation: every view cell (view player p, view action a)
// contributes a precomputed flat offset into the parent's flat tensors
// (cell_offset, premultiplied by the parent's player count), and every
// view player maps to a parent column (player_map). A profile's payoff
// row is then the SUM of its digits' cell offsets — O(players) adds, no
// division — and odometer walks update the row incrementally per digit.
// A payoff is two loads, the parent column's rank at the row and that
// rank's level: its Rational, or its double.
// Views are cheap value types (a pointer plus small index tables); they
// must not outlive their parent game, and the view caches pointers into
// the parent's store, so MUTATING the parent (set_payoff, assign_payoffs,
// copy-assigning over it) invalidates every view of it even while the
// parent object stays alive.
//
// A dense game IS its identity view: a NormalFormGame converts to
// GameView implicitly, so every checker and payoff sweep takes a view and
// is written once. The conversion refuses temporaries (the rvalue
// constructor is deleted) — a view or sweep built over a game that dies
// at the end of the full expression would dangle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "game/normal_form.h"
#include "game/strategy.h"
#include "util/rational.h"

namespace bnash::game {

class GameView final {
public:
    // The whole game, unchanged (identity view). Implicit on purpose: see
    // the file comment.
    GameView(const NormalFormGame& game);  // NOLINT
    GameView(NormalFormGame&&) = delete;
    [[nodiscard]] static GameView full(const NormalFormGame& game) { return GameView(game); }

    // Restriction to subsets of actions, per player: every player keeps
    // >= 1 action (else std::invalid_argument), each in range (else
    // std::out_of_range). materialize() gives the restricted game as a
    // copy (iterated elimination's final reduction).
    [[nodiscard]] static GameView restrict(
        const NormalFormGame& game, const std::vector<std::vector<std::size_t>>& kept_actions);

    // Player-permuted slice: view player p is parent player order[p]
    // (order must be a permutation of 0..n-1).
    [[nodiscard]] static GameView permute(const NormalFormGame& game,
                                          const std::vector<std::size_t>& player_order);

    // Further restriction of THIS view (indices are view-local); the
    // result still reads the original parent tensor directly.
    [[nodiscard]] GameView restrict(
        const std::vector<std::vector<std::size_t>>& kept_actions) const;

    [[nodiscard]] std::size_t num_players() const noexcept { return action_counts_.size(); }
    [[nodiscard]] std::size_t num_actions(std::size_t player) const {
        return action_counts_.at(player);
    }
    [[nodiscard]] const std::vector<std::size_t>& action_counts() const noexcept {
        return action_counts_;
    }
    [[nodiscard]] std::uint64_t num_profiles() const noexcept { return num_profiles_; }
    [[nodiscard]] const NormalFormGame& parent() const noexcept { return *parent_; }
    [[nodiscard]] std::size_t parent_player(std::size_t player) const {
        return player_map_.at(player);
    }
    // True when view player p reads parent column p for every p (the full
    // game and its action restrictions): a profile's payoffs then sit
    // contiguously at row_offset .. row_offset + num_players() - 1.
    [[nodiscard]] bool identity_player_map() const noexcept { return identity_players_; }
    // True for the parent game unchanged: the identity player map, and
    // every action of every player kept in order.
    [[nodiscard]] bool is_identity() const noexcept { return identity_; }

    // --- flat-offset hot path ------------------------------------------------
    // row_offset(tuple) = sum of cell_offset(p, tuple[p]): the flat index
    // of the profile's payoff row in the parent tensor. Odometer loops
    // update it incrementally: stepping digit p from a to b adds
    // cell_offset(p, b) - cell_offset(p, a) (unsigned wrap-around is fine,
    // any complete row sum is back in range).
    [[nodiscard]] std::uint64_t cell_offset(std::size_t player,
                                            std::size_t action) const noexcept {
        return cell_offsets_[player][action];
    }
    // One player's whole offset column (odometer loops — the robustness
    // sweep's range kernels — borrow the table instead of calling
    // cell_offset per step).
    [[nodiscard]] const std::vector<std::uint64_t>& cell_offsets(
        std::size_t player) const noexcept {
        return cell_offsets_[player];
    }
    [[nodiscard]] std::uint64_t row_offset(const PureProfile& tuple) const {
        std::uint64_t row = 0;
        for (std::size_t p = 0; p < tuple.size(); ++p) row += cell_offsets_[p][tuple[p]];
        return row;
    }
    [[nodiscard]] const util::Rational& payoff_from(std::uint64_t row,
                                                    std::size_t player) const {
        const std::size_t column = player_map_[player];
        return levels_[column][ranks_[row + column]];
    }
    [[nodiscard]] double payoff_d_from(std::uint64_t row, std::size_t player) const {
        const std::size_t column = player_map_[player];
        return levels_d_[column][ranks_[row + column]];
    }
    // The store behind payoff_from: the player's ordinal rank at `row`
    // and its level table, payoff_from(row, p) == levels(p)[rank_from(row,
    // p)]. Two ranks of one player compare like their payoffs.
    [[nodiscard]] std::uint32_t rank_from(std::uint64_t row, std::size_t player) const {
        return ranks_[row + player_map_[player]];
    }
    [[nodiscard]] const std::vector<util::Rational>& levels(std::size_t player) const {
        return levels_[player_map_[player]];
    }

    // --- rank / tuple lookups ------------------------------------------------
    // Rank is in the VIEW's row-major space (digit decomposition per call;
    // sweep loops should walk tuples and row offsets instead).
    [[nodiscard]] const util::Rational& payoff_at(std::uint64_t rank,
                                                  std::size_t player) const;
    [[nodiscard]] double payoff_d_at(std::uint64_t rank, std::size_t player) const;
    [[nodiscard]] const util::Rational& payoff(const PureProfile& tuple,
                                               std::size_t player) const {
        return payoff_from(row_offset(tuple), player);
    }
    [[nodiscard]] double payoff_d(const PureProfile& tuple, std::size_t player) const {
        return payoff_d_from(row_offset(tuple), player);
    }

    // One player's payoff matrix of a 2-player view (rows: view player
    // 0), read through the cell offsets (throws std::logic_error
    // otherwise) — what the 2-player solvers consume. A MatrixQ is not a
    // payoff tensor: building one does not count as a tensor allocation.
    [[nodiscard]] util::MatrixQ payoff_matrix(std::size_t player) const;

    // Copies the viewed subgame into an owning NormalFormGame (labels
    // carried over) — the ONE tensor allocation a view-based pipeline
    // performs.
    [[nodiscard]] NormalFormGame materialize() const;

private:
    GameView(const NormalFormGame& parent, std::vector<std::size_t> player_map,
             std::vector<std::vector<std::size_t>> kept);

    void rebuild_tables();

    const NormalFormGame* parent_ = nullptr;
    // The parent's ordinal ranks, and its levels and their doubles
    // (indexed by parent player).
    const std::uint32_t* ranks_ = nullptr;
    const std::vector<util::Rational>* levels_ = nullptr;
    const std::vector<double>* levels_d_ = nullptr;
    // View player p reads parent column player_map_[p]; its action a is
    // parent action kept_[p][a] of that same parent player.
    std::vector<std::size_t> player_map_;
    std::vector<std::vector<std::size_t>> kept_;
    std::vector<std::vector<std::uint64_t>> cell_offsets_;
    std::vector<std::size_t> action_counts_;
    std::uint64_t num_profiles_ = 0;
    bool identity_players_ = false;
    bool identity_ = false;
};

}  // namespace bnash::game
