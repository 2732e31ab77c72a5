// Normal-form (strategic-form) games with exact rational payoffs.
//
// Each game keeps ONE payoff store, shared by its copies; a mutator clones
// a shared store first and writes in place otherwise. The store holds
//   - the ORDINAL RANKS (ordinal_ranks), the exact storage: per (profile,
//     player), the index of the payoff among the player's sorted distinct
//     payoffs. They are all that a pure-candidate robustness check or its
//     cache key can observe (serve/canonical.h, ORDINAL INVARIANCE);
//   - per player, the LEVELS: those sorted distinct Rationals, each with
//     its cell count. An exact payoff is levels(player)[rank];
//   - per player, each level's DOUBLE (to_double of the level), for the
//     iterative dynamics and the simulators: a cell's double is
//     levels_d(player)[rank], one table of L doubles, not one per cell;
//   - a memo of SymmetryGroup::detect on the game's full view, so copies
//     that share the store detect once. A store written in place or
//     cloned for a write starts with an empty memo.
// A bulk build (Build, or assign_payoffs over a span) costs O(cells +
// L log L) per player, L being the player's number of distinct payoffs:
// one hashing pass over the values as they arrive, with no staged copy of
// the tensor, then a sort of the levels only.
// References into the store (payoff, payoff_at, ordinal_ranks, levels,
// levels_d, every GameView over the game) stay valid until the next
// mutation of this game. Copies may be read on other threads meanwhile.
//
// The store is all this class keeps. Every payoff quantity computed from
// it (expected and deviation payoffs, best responses, regret, a payoff
// matrix, a restriction) has one entry taking a GameView (game/
// payoff_engine.h, game/game_view.h), and a game is its identity view,
// so the store depends on nothing built over it.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "game/strategy.h"
#include "util/matrix.h"
#include "util/rational.h"
#include "util/rng.h"

namespace bnash::game {

class SymmetryGroup;  // game/symmetry.h

class NormalFormGame final {
public:
    // Creates a game with all payoffs zero; fill via assign_payoffs (or
    // set_payoff for a few cells).
    explicit NormalFormGame(std::vector<std::size_t> action_counts);

    // Number of payoff stores built (constructions and the clones a
    // mutation of a shared store makes) since process start. Copies share
    // their store and do not count. Lets tests assert that zero-copy
    // pipelines — view sweeps, view-based iterated elimination, server
    // requests — really allocate only what they must.
    [[nodiscard]] static std::uint64_t tensor_allocations() noexcept;

    // 2-player convenience: row player's and column player's payoff matrices.
    static NormalFormGame from_bimatrix(const util::MatrixQ& row_payoffs,
                                        const util::MatrixQ& col_payoffs);

    // Zero-sum 2-player game from the row player's payoff matrix.
    static NormalFormGame zero_sum(const util::MatrixQ& row_payoffs);

    // Random game with integer payoffs in [lo, hi] (solver stress tests).
    static NormalFormGame random(std::vector<std::size_t> action_counts, util::Rng& rng,
                                 std::int64_t lo = -9, std::int64_t hi = 9);

    [[nodiscard]] std::size_t num_players() const noexcept { return action_counts_.size(); }
    [[nodiscard]] std::size_t num_actions(std::size_t player) const {
        return action_counts_.at(player);
    }
    [[nodiscard]] const std::vector<std::size_t>& action_counts() const noexcept {
        return action_counts_;
    }
    [[nodiscard]] std::uint64_t num_profiles() const noexcept { return num_profiles_; }

    // One cell. Keeps the player's levels dense: a value that is not yet
    // a level inserts one, and a level whose last cell leaves is erased;
    // either shifts that player's ranks, in O(num_profiles). Builders that
    // fill a whole tensor use one Build (or assign_payoffs) instead.
    void set_payoff(const PureProfile& profile, std::size_t player, util::Rational value);
    void set_payoffs(const PureProfile& profile, const std::vector<util::Rational>& values);
    // Replaces the whole tensor in one step. `values` is in the flat order
    // [rank * num_players + player] and must hold exactly num_profiles *
    // num_players entries; on a size mismatch it throws and the game is
    // left unchanged. A Build fed `values` in order (see there).
    void assign_payoffs(std::span<const util::Rational> values);

    // A whole-tensor build fed in the flat order, a few values at a time,
    // by a producer that makes them as it goes: the text front parses an
    // upload straight into one, so no tensor of Rationals is staged.
    // Each value gets its player's first-seen level id from a hash table
    // sized by the player's distinct values L; commit() sorts only the L
    // levels and writes each cell's rank from its id:
    // O(num_profiles * num_players + sum of L log L). Nothing reaches the
    // game before commit(), so a build abandoned half way (a parse error)
    // leaves the game as it was. An unshared store is rewritten in place;
    // a shared one is replaced, and its other holders keep it.
    class Build final {
    public:
        explicit Build(NormalFormGame& game);
        ~Build();
        Build(const Build&) = delete;
        Build& operator=(const Build&) = delete;

        // The next values in flat order; throws std::length_error, adding
        // none, when they run past the last cell.
        void add(std::span<const util::Rational> values);
        // Installs the tensor. Throws std::invalid_argument, changing
        // nothing, unless every value was added.
        void commit();

    private:
        class LevelIds;

        NormalFormGame* game_;
        std::vector<LevelIds> tables_;     // one per player
        std::vector<std::uint32_t> ids_;    // per cell, flat order
        std::size_t next_ = 0;
        std::size_t player_ = 0;
    };

    [[nodiscard]] const util::Rational& payoff(const PureProfile& profile,
                                               std::size_t player) const {
        return payoff_at(profile_rank(profile), player);
    }
    [[nodiscard]] double payoff_d(const PureProfile& profile, std::size_t player) const {
        return payoff_d_at(profile_rank(profile), player);
    }

    // Rank-indexed lookups for stride-based hot paths (the pure-Nash
    // scans, the robustness Evaluator): no profile materialization, no
    // re-ranking.
    [[nodiscard]] const util::Rational& payoff_at(std::uint64_t rank,
                                                  std::size_t player) const {
        return store_->levels[player][store_->ranks[rank * num_players() + player]];
    }
    [[nodiscard]] double payoff_d_at(std::uint64_t rank, std::size_t player) const {
        return store_->levels_d[player][store_->ranks[rank * num_players() + player]];
    }
    // The exact tensor decoded into a new flat vector [rank * num_players +
    // player], for callers outside the library; library code reads the store.
    [[nodiscard]] std::vector<util::Rational> payoffs_flat() const;
    // Per-player dense payoff ranks in the same flat layout:
    // ordinal_ranks()[rank * num_players + player] is the number of
    // distinct payoffs of `player` strictly below its payoff at that
    // profile, so two cells of ONE player compare exactly like their
    // Rationals.
    [[nodiscard]] const std::vector<std::uint32_t>& ordinal_ranks() const noexcept {
        return store_->ranks;
    }
    // The player's distinct payoffs in increasing order, and how many
    // profiles pay each one (every count is positive; they sum to
    // num_profiles).
    [[nodiscard]] const std::vector<util::Rational>& levels(std::size_t player) const {
        return store_->levels.at(player);
    }
    [[nodiscard]] const std::vector<std::uint32_t>& level_counts(std::size_t player) const {
        return store_->counts.at(player);
    }
    // levels_d(player)[r] == levels(player)[r].to_double(), bit for bit.
    [[nodiscard]] const std::vector<double>& levels_d(std::size_t player) const {
        return store_->levels_d.at(player);
    }
    // This game with each player's levels replaced by `levels[player]`,
    // which must be strictly increasing and as many (else it throws
    // std::invalid_argument): same ranks and counts, new values.
    [[nodiscard]] NormalFormGame with_levels(
        std::vector<std::vector<util::Rational>> levels) const;
    // SymmetryGroup::detect's answer on the whole game, or null before the
    // first detection since the store was last written.
    [[nodiscard]] std::shared_ptr<const SymmetryGroup> detected_symmetry() const {
        return store_->symmetry.group.load();
    }

    [[nodiscard]] std::uint64_t profile_rank(const PureProfile& profile) const;
    [[nodiscard]] PureProfile profile_unrank(std::uint64_t rank) const;

    // Optional human-readable labels (catalog games set these).
    void set_action_labels(std::size_t player, std::vector<std::string> labels);
    [[nodiscard]] std::string action_label(std::size_t player, std::size_t action) const;
    [[nodiscard]] bool has_action_labels(std::size_t player) const {
        return !action_labels_.at(player).empty();
    }

    [[nodiscard]] std::string to_string() const;  // 2-player matrix rendering

private:
    friend class SymmetryGroup;  // fills Store::symmetry

    // SymmetryGroup::detect's answer for the full view, filled by the
    // first detection and read by every copy sharing the store; copies of
    // the store start empty, because they are made to be written.
    struct SymmetryMemo final {
        SymmetryMemo() = default;
        SymmetryMemo(const SymmetryMemo&) noexcept {}
        SymmetryMemo& operator=(const SymmetryMemo&) = delete;
        std::atomic<std::shared_ptr<const SymmetryGroup>> group;
    };

    // The payoff store (see the file comment). ranks is indexed
    // [profile_rank * num_players + player]; levels, counts and levels_d
    // by player, then rank.
    struct Store final {
        std::vector<std::uint32_t> ranks;
        std::vector<std::vector<util::Rational>> levels;
        std::vector<std::vector<std::uint32_t>> counts;
        std::vector<std::vector<double>> levels_d;
        SymmetryMemo symmetry;
    };

    // The store, cloned first when a copy shares it; either way its
    // symmetry memo is empty, since the caller is about to write.
    [[nodiscard]] Store& writable_store();

    std::vector<std::size_t> action_counts_;
    std::uint64_t num_profiles_ = 0;
    std::shared_ptr<Store> store_;
    std::vector<std::vector<std::string>> action_labels_;
};

}  // namespace bnash::game
