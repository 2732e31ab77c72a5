// Player symmetry classes on a GameView, and the quotient game they
// induce — the verdict-preserving transformation behind the orbit sweeps.
//
// A partition of the players into CLASSES is a symmetry of the game when
// every within-class transposition tau satisfies
//     u_{tau(i)}(tau . a) = u_i(a)   for every player i and profile a.
// Transpositions of one class generate the class's full symmetric group,
// and checking the STAR transpositions (rep, member) suffices — that is
// what verify() does, and what detect() uses pairwise (exchangeability
// is transitive under conjugation, so greedy class-building is exact).
//
// The payoff of a class-c player then depends only on its own action and
// on HOW MANY players of each class play each action. build_quotient()
// tabulates exactly those representative payoffs: for each (class, own
// action), one entry per util::OrbitWalker orbit of the OTHER players'
// per-class action histograms, kept as the representative's store rank.
// The quotient determines the full game up to relabeling, which makes it
// both the substrate for the orbit-native robustness sweeps
// (core/robust/orbit_sweep.h) and a canonicalization hook:
// serve/canonical.h folds the quotient's payoffs into its cache key so
// uploads differing by a player relabeling inside symmetry classes hit
// one cache entry. Payoffs of a class-constant mixed profile have no
// orbit-native entry here: the view's support-sparse payoff sweeps
// (game/payoff_engine.h) answer them.
//
// detect() is for small tensor-backed views (it compares payoffs across
// the whole tensor); constructed games at large n — where no tensor
// exists — DECLARE their group (e.g. core::AnonymousBinaryGame's single
// class) and build the quotient from closed forms instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "game/game_view.h"
#include "game/strategy.h"
#include "util/audit.h"
#include "util/orbit_walker.h"
#include "util/rational.h"

namespace bnash::game {

class SymmetryGroup final {
public:
    // Every player its own class (the degenerate group: no reduction).
    [[nodiscard]] static SymmetryGroup trivial(std::size_t num_players);
    // All players in one class (anonymous games).
    [[nodiscard]] static SymmetryGroup single_class(std::size_t num_players);
    // A declared partition; validates that it IS a partition of
    // 0..num_players-1 (throws std::invalid_argument otherwise). Classes
    // and members are stored sorted. Declaration is a claim — pair with
    // verify() on tensor-backed views, or with a construction argument
    // (AnonymousBinaryGame) when no tensor exists.
    [[nodiscard]] static SymmetryGroup declared(std::vector<std::vector<std::size_t>> classes,
                                                std::size_t num_players);
    // Detection on a small tensor-backed view: classes are grown by exact
    // transposition checks, so the result is the FINEST partition whose
    // classes are pairwise exchangeable — maximal and always verified by
    // construction. Players share a class only when their action counts
    // and payoff multisets (the store's levels and level counts) agree,
    // which refutes most pairs in O(levels); the transpositions are then
    // checked on the store's ranks. On a whole game the answer is
    // memoized in its store (NormalFormGame::detected_symmetry), so the
    // copies that share it detect once; any other view detects on a copy
    // of its subgame.
    [[nodiscard]] static SymmetryGroup detect(const NormalFormGame& game);
    [[nodiscard]] static SymmetryGroup detect(const GameView& view);

    // Star-transposition check of every class against `view`; true iff
    // the declared partition is a symmetry of the game.
    [[nodiscard]] bool verify(const GameView& view) const;

    [[nodiscard]] std::size_t num_players() const noexcept { return class_of_.size(); }
    [[nodiscard]] std::size_t num_classes() const noexcept { return classes_.size(); }
    // Sorted members per class; classes ordered by smallest member.
    [[nodiscard]] const std::vector<std::vector<std::size_t>>& classes() const noexcept {
        return classes_;
    }
    [[nodiscard]] std::size_t class_of(std::size_t player) const { return class_of_[player]; }
    // True when every class is a singleton — the orbit path degenerates
    // and callers must route to the dense sweep.
    [[nodiscard]] bool is_trivial() const noexcept;

    // True when every class's members share one strategy — the
    // precondition for orbit-indexed candidate profiles.
    [[nodiscard]] bool class_constant(const ExactMixedProfile& profile) const;
    [[nodiscard]] bool class_constant(const PureProfile& profile) const;

    // Partition refinement: split classes so members with distinct
    // strategies part ways. The result is still a symmetry group of any
    // game this group is a symmetry of (a sub-partition is), and the
    // profile is class-constant on it by construction — how serve folds
    // arbitrary candidates.
    [[nodiscard]] SymmetryGroup refined_by(const ExactMixedProfile& profile) const;

private:
    SymmetryGroup() = default;
    void index_classes();  // fills class_of_ from classes_

    std::vector<std::vector<std::size_t>> classes_;
    std::vector<std::size_t> class_of_;
};

// The quotient of a symmetric game: payoffs at one representative per
// orbit, kept as ranks into a per-class level table. A class-c entry is a
// payoff of one player (the class representative), so its rank orders
// exactly like its Rational and a sweep compares ranks only.
// Indexing: rank[c][a * others_orbits(c) + r] is the rank, in levels[c],
// of the payoff of a class-c player playing action `a` when the OTHER n-1
// players' per-class action histograms form the rank-r orbit of
// others_walker(c) (class c reduced by the one member being evaluated;
// composition order is util::composition_rank's descending lex).
// build_quotient reads both from the payoff store (the representative's
// ordinal ranks and levels); assign_payoffs ranks explicit payoffs, for
// quotients built from closed forms.
struct QuotientGame final {
    std::vector<std::size_t> class_sizes;
    std::vector<std::size_t> class_actions;
    std::vector<std::vector<std::uint32_t>> rank;
    // Per class, increasing; every rank[c] entry indexes levels[c].
    std::vector<std::vector<util::Rational>> levels;

    [[nodiscard]] std::size_t num_classes() const noexcept { return class_sizes.size(); }
    [[nodiscard]] std::size_t num_players() const noexcept;
    // Walker over the other players' histograms as seen by one class-c
    // member: one digit per class, class c's size reduced by one.
    [[nodiscard]] util::OrbitWalker others_walker(std::size_t cls) const;
    [[nodiscard]] std::uint64_t others_orbits(std::size_t cls) const;
    // Joint rank of explicit per-class histograms `others` (others[d]
    // has class_actions[d] entries; class `cls` must sum to size-1).
    [[nodiscard]] std::uint64_t rank_others(
        std::size_t cls, const std::vector<std::vector<std::size_t>>& others) const;
    // The payoff at flat entry `index` of class `cls` (laid out like rank).
    [[nodiscard]] const util::Rational& value(std::size_t cls, std::uint64_t index) const {
        BNASH_AUDIT_CHECK(cls < rank.size() && index < rank[cls].size() &&
                              rank[cls][index] < levels[cls].size(),
                          "QuotientGame::value: entry outside the tabulated quotient");
        return levels[cls][rank[cls][index]];
    }
    [[nodiscard]] const util::Rational& at(std::size_t cls, std::size_t action,
                                           std::uint64_t others_rank) const {
        BNASH_AUDIT_CHECK(cls < rank.size() && others_rank < others_orbits_[cls],
                          "QuotientGame::at: (class, action, others_rank) indexes "
                          "outside the tabulated quotient");
        return value(cls, action * others_orbits_[cls] + others_rank);
    }

    // Ranks explicit payoffs: payoff[c] is laid out like rank[c] and must
    // have class_actions[c] * others_orbits(c) entries (else it throws
    // std::invalid_argument); levels[c] becomes its sorted distinct
    // values. Calls finalize() first.
    void assign_payoffs(const std::vector<std::vector<util::Rational>>& payoff);

    // Derived once by build_quotient / finalize().
    std::vector<std::uint64_t> others_orbits_;
    // Fills others_orbits_ from sizes/actions; throws std::overflow_error
    // when an orbit count does not fit in 64 bits.
    void finalize();
};

// Tabulate the quotient of `view` under `group` by representative
// lookups: one store rank per (class, action, orbit), read at the class
// representative's column, and that column's level table. No Rational is
// copied per entry. Requires the group to BE a symmetry of the view —
// verify()/detect() first; payoffs are read at representatives, so a
// non-symmetric view yields a quotient that silently misrepresents it.
[[nodiscard]] QuotientGame build_quotient(const GameView& view, const SymmetryGroup& group);

}  // namespace bnash::game
