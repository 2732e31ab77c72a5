// Canonical signatures for robustness queries: the serving layer's cache
// key.
//
// Two uploads of "the same" query should hit one cache entry even when
// they differ by a player relabeling or by a per-player payoff transform
// that preserves every (k,t)-robustness VERDICT. The candidate decides
// which transforms those are, and the two key spaces below never meet:
//
//   - ORDINAL INVARIANCE (pure candidates: core::as_pure_profile returns a
//     profile, the same test CoalitionSweep uses for its pure path).
//     Against a pure candidate every deviation is pure, and every check
//     compares two payoffs of the SAME player (a deviator's payoff with
//     and without the deviation, a bystander's before and after). Each
//     verdict is therefore invariant under ANY per-player strictly
//     increasing transform, not only positive affine ones, and the key is
//     built from per-player dense payoff ranks ("ord:" tag): players
//     sorted by (action count, candidate action, rank at the candidate,
//     rank histogram), then the rank tensor in canonical order as
//     fixed-width binary ranks, then the candidate actions. Ranking only
//     compares payoffs, so this path never overflows. The ranks are the
//     game's stored NormalFormGame::ordinal_ranks(), the histogram its
//     level counts; core::CoalitionSweep's pure-candidate kernels compare
//     the same ranks instead of Rationals, so the same argument is the
//     kernels' correctness contract.
//   - AFFINE INVARIANCE (mixed candidates). Expected payoffs are only
//     invariant under positive affine maps u_i -> a_i * u_i + b_i, so
//     each player's payoffs go through the map sending [min_i, max_i] to
//     [0, 1] (constant payoffs map to 0), the unique such normal form
//     ("nrm:" tag), and players sort by (action count, candidate
//     strategy, sorted multiset of normalized payoffs). The map is
//     strictly increasing, so it maps each player's L distinct levels,
//     not every cell, and the game's ranks and level counts still hold.
//   - PERMUTATION INVARIANCE (both): relabeling players (carrying the
//     payoff tensor, the candidate profile, and the action counts along)
//     permutes coalitions/faulty sets bijectively, so the quantified
//     verdict is unchanged. Ties in the player sort keep the original
//     order.
//   - SYMMETRY FOLDING (both): when game::SymmetryGroup::detect finds a
//     non-trivial symmetry of the rank or normalized tensor (refined by
//     the candidate so classes share one strategy), the key collapses to
//     the QUOTIENT bytes — class sizes/actions, per-class strategies,
//     orbit-indexed representative payoffs, classes in a label-
//     invariant order ("sym:ord:" / "sym:nrm:" tags). The quotient
//     determines the game up to within-class relabeling and such
//     relabelings preserve every verdict (the core/robust/orbit_sweep.h
//     reduction), so two uploads of one symmetric game share a cache
//     entry whose key is orbit-sized, not tensor-sized. On the ordinal
//     path detection only runs when two players share their whole sort
//     key; otherwise the refined group is provably trivial.
//
// SOUNDNESS vs BEST-EFFORT: the cache key is the full canonical byte
// serialization, so equal keys imply isomorphic rank (or normalized)
// queries and therefore equal verdicts — memoization can never serve a
// wrong answer. Equivalent games the normal form fails to identify (tied
// sort keys, or the util::RationalOverflow fallback below) merely MISS
// the cache and recompute. Witness details (who deviates, payoff values)
// are NOT invariant under these transforms — a rank game shares its
// upload's verdicts, not its payoffs — which is why the serve layer
// caches verdicts, not violations.
//
// Exact arithmetic may overflow while normalizing a mixed candidate's
// game (the affine map multiplies by 1/(max-min)); in that case the
// signature falls back to the identity map over the raw payoffs and tags
// the key ("raw:" / "sym:raw:") so normalized and raw signatures can
// never collide.
#pragma once

#include <cstddef>
#include <string>

#include "core/robust/robustness.h"
#include "game/normal_form.h"
#include "game/strategy.h"

namespace bnash::serve {

struct CanonicalSignature final {
    // Byte serialization of the canonicalized (game, candidate) pair.
    std::string bytes;
    // False when util::RationalOverflow forced the raw-payoff fallback
    // (mixed candidates only: the ordinal path never overflows).
    bool normalized = true;
};

// Signature of the (game, candidate profile) pair alone. The profile must
// be a valid exact mixed profile for the game.
[[nodiscard]] CanonicalSignature canonical_signature(const game::NormalFormGame& game,
                                                     const game::ExactMixedProfile& profile);

// Full cache key: the pair signature plus the query parameters (k, t,
// gain criterion).
[[nodiscard]] std::string canonical_key(const game::NormalFormGame& game,
                                        const game::ExactMixedProfile& profile, std::size_t k,
                                        std::size_t t, core::GainCriterion criterion);

}  // namespace bnash::serve
