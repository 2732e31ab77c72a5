// Normal-form (strategic-form) games with exact rational payoffs.
//
// The payoff tensor has three representations:
//   - EXACT (Rational): consumed by the exact solvers and the robustness
//     checkers' mixed-candidate scans, where tie classification must not
//     depend on floating point;
//   - a DOUBLE mirror: consumed by the iterative dynamics and simulators
//     on their hot paths;
//   - ORDINAL (ordinal_ranks): per-player dense payoff ranks, all that a
//     pure-candidate robustness check or its cache key can observe (see
//     serve/canonical.h, ORDINAL INVARIANCE). It is derived lazily, once,
//     and held behind a pointer that copies of an unmodified game share;
//     every payoff mutation gives the mutated game a fresh holder, so a
//     copy's ranks are never cleared under it.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "game/strategy.h"
#include "util/matrix.h"
#include "util/rational.h"
#include "util/rng.h"

namespace bnash::game {

class GameView;

class NormalFormGame final {
public:
    // Creates a game with all payoffs zero; fill via set_payoff.
    explicit NormalFormGame(std::vector<std::size_t> action_counts);

    // Copies count as tensor allocations (below); moves do not.
    NormalFormGame(const NormalFormGame& other);
    NormalFormGame& operator=(const NormalFormGame& other);
    NormalFormGame(NormalFormGame&&) noexcept = default;
    NormalFormGame& operator=(NormalFormGame&&) noexcept = default;

    // Number of payoff tensors allocated (explicit constructions AND
    // copies) since process start. Lets tests assert that zero-copy
    // pipelines — view sweeps, view-based iterated elimination — really
    // allocate only their final materialization.
    [[nodiscard]] static std::uint64_t tensor_allocations() noexcept;
    // Number of ordinal_ranks() builds since process start (copies that
    // share a build count once). Lets tests pin one build per upload.
    [[nodiscard]] static std::uint64_t rank_builds() noexcept;

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

    void set_payoff(const PureProfile& profile, std::size_t player, util::Rational value);
    void set_payoffs(const PureProfile& profile, const std::vector<util::Rational>& values);
    // Replaces the whole tensor in one step. `values` is in the flat order
    // [rank * num_players + player] and must hold exactly num_profiles *
    // num_players entries; on a size mismatch it throws and the game is
    // left unchanged.
    void assign_payoffs(std::vector<util::Rational> values);

    [[nodiscard]] const util::Rational& payoff(const PureProfile& profile,
                                               std::size_t player) const;
    [[nodiscard]] double payoff_d(const PureProfile& profile, std::size_t player) const;

    // Rank-indexed lookups for stride-based hot paths (PayoffEngine, the
    // robustness Evaluator): no profile materialization, no re-ranking.
    [[nodiscard]] const util::Rational& payoff_at(std::uint64_t rank,
                                                  std::size_t player) const {
        return payoffs_[rank * num_players() + player];
    }
    [[nodiscard]] double payoff_d_at(std::uint64_t rank, std::size_t player) const {
        return payoffs_d_[rank * num_players() + player];
    }
    // Flat tensor views, indexed [rank * num_players + player].
    [[nodiscard]] const std::vector<util::Rational>& payoffs_flat() const noexcept {
        return payoffs_;
    }
    [[nodiscard]] const std::vector<double>& payoffs_d_flat() const noexcept {
        return payoffs_d_;
    }
    // Per-player dense payoff ranks in the same flat layout:
    // ordinal_ranks()[rank * num_players + player] is the number of
    // distinct payoffs of `player` strictly below its payoff at that
    // profile, so two cells of ONE player compare exactly like their
    // Rationals. Built on first use (thread-safe) and shared by unmodified
    // copies; the reference stays valid until this game's payoffs change.
    [[nodiscard]] const std::vector<std::uint32_t>& ordinal_ranks() const;

    // Expected utility of `player` under an independent mixed profile.
    [[nodiscard]] double expected_payoff(const MixedProfile& profile, std::size_t player) const;
    [[nodiscard]] std::vector<double> expected_payoffs(const MixedProfile& profile) const;

    // Expected utility when `player` deviates to pure `action` while everyone
    // else follows `profile`. The workhorse of best-response computation.
    [[nodiscard]] double deviation_payoff(const MixedProfile& profile, std::size_t player,
                                          std::size_t action) const;

    // Exact deviation payoff for exact profiles (robustness checkers).
    [[nodiscard]] util::Rational deviation_payoff_exact(const ExactMixedProfile& profile,
                                                        std::size_t player,
                                                        std::size_t action) const;
    [[nodiscard]] util::Rational expected_payoff_exact(const ExactMixedProfile& profile,
                                                       std::size_t player) const;

    // Best responses of `player` against the others (exact tie handling on
    // the double mirror with tolerance `tol`).
    [[nodiscard]] std::vector<std::size_t> best_responses(const MixedProfile& profile,
                                                          std::size_t player,
                                                          double tol = 1e-9) const;

    // Max over players of (best-response payoff - current payoff): 0 at a
    // Nash equilibrium, and <= epsilon at an epsilon-equilibrium.
    [[nodiscard]] double regret(const MixedProfile& profile) const;

    // Payoff matrix of one player in a 2-player game (rows: player 0).
    [[nodiscard]] util::MatrixQ payoff_matrix(std::size_t player) const;

    // Restriction of the game to subsets of actions (iterated elimination).
    [[nodiscard]] NormalFormGame restrict(
        const std::vector<std::vector<std::size_t>>& kept_actions) const;

    // Zero-copy sibling of restrict: a stride-indexed view over THIS
    // game's tensors (defined in game/game_view.h; the view must not
    // outlive the game). Same validation as restrict.
    [[nodiscard]] GameView restrict_view(
        const std::vector<std::vector<std::size_t>>& kept_actions) const;

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
    struct OrdinalRanks;

    // Called before every payoff mutation: a holder that is shared or
    // already built is replaced (never cleared), a pristine one is kept.
    void release_ordinal();

    std::vector<std::size_t> action_counts_;
    std::uint64_t num_profiles_ = 0;
    // Indexed [profile_rank * num_players + player].
    std::vector<util::Rational> payoffs_;
    std::vector<double> payoffs_d_;
    std::shared_ptr<OrdinalRanks> ordinal_;
    std::vector<std::vector<std::string>> action_labels_;
};

}  // namespace bnash::game
