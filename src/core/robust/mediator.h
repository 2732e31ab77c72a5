// Mediators for Bayesian games (Section 2's Gamma_d).
//
// A mediator policy is a randomized map from reported type profiles to
// recommended action profiles. The mediated extension's canonical strategy
// is "report truthfully, follow the recommendation"; the analysis routines
// here check whether that canonical strategy is an equilibrium (and how
// resilient it is), and the cheap-talk module implements the same policy
// without the trusted party.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/robust/robustness.h"
#include "game/bayesian.h"
#include "game/payoff_engine.h"
#include "game/strategy.h"
#include "util/rational.h"
#include "util/rng.h"

namespace bnash::core {

class MediatorPolicy final {
public:
    explicit MediatorPolicy(const game::BayesianGame& game);

    // The mediator recommends joint action profile `actions` with
    // probability `prob` when types are reported as `types`.
    void set_recommendation(const game::TypeProfile& types, const game::PureProfile& actions,
                            util::Rational prob);
    // Every row must be a distribution; throws otherwise.
    void validate() const;

    [[nodiscard]] const game::BayesianGame& base() const noexcept { return *game_; }

    // --- canonical policies ------------------------------------------------
    // Byzantine agreement with a mediator: "the general sends the mediator
    // his preference, and the mediator sends it to all the soldiers".
    static MediatorPolicy byzantine_consensus(const game::BayesianGame& game);
    // For catalog::correlated_types_game: tells each player the other's type.
    static MediatorPolicy reveal_types(const game::BayesianGame& game);

    // --- analysis ------------------------------------------------------------
    // Ex-ante value of truthful reporting + obedient play.
    [[nodiscard]] util::Rational truthful_value(std::size_t player) const;

    // Distribution over action-profile ranks induced by truthful play at a
    // fixed TRUE type profile (the object cheap talk must reproduce).
    [[nodiscard]] std::vector<util::Rational> induced_action_distribution(
        const game::TypeProfile& types) const;

    // Checks that no single player gains by any (misreport, disobey)
    // deviation map, holding others truthful and obedient. Exhaustive over
    // all report maps T_i -> T_i and response maps (T_i x A_i) -> A_i.
    [[nodiscard]] bool is_truthful_equilibrium() const;

    // Coalition version where each coalition member independently picks a
    // (misreport, disobey) map. NOTE: full ADGH resilience allows
    // coalition members to share types and recommendations mid-protocol;
    // this checker covers the communication-free subclass (exhaustive over
    // independent maps), which is exact for singleton coalitions and a
    // sound necessary condition for larger ones.
    //
    // Runs as a coalition sweep on the shared kernel: one pooled task per
    // coalition, a util::OffsetWalker odometer over the (report, response)
    // deviation maps with incremental reported-row / action-rank updates,
    // and relevance pruning — a response entry (type, recommendation) the
    // mediator can never reach under the current report map is held fixed,
    // so each scan evaluates one representative per class of maps with
    // equal member values. Verdicts match reference::
    // is_truthful_resilient_independent exactly; work is charged to the
    // thread's util::ExecutionGrant and an expired grant truncates the
    // scan (callers observing grant->expired() must treat the verdict as
    // truncated).
    //
    // `criterion` picks the coalition-gain semantics (kAnyMemberGains is
    // the classical some-member-strictly-gains reading; kAllMembersGain
    // requires every member to strictly gain). The two coincide for
    // singleton coalitions.
    [[nodiscard]] bool is_truthful_resilient_independent(
        std::size_t k, GainCriterion criterion = GainCriterion::kAnyMemberGains,
        game::SweepMode mode = game::SweepMode::kAuto) const;

    // --- sampling (cheap-talk substrate) ---------------------------------
    // Smallest R such that every probability in the table is a multiple of
    // 1/R (so a uniform coin in {0..R-1} samples the policy exactly).
    [[nodiscard]] std::size_t coin_space() const;
    // The action-profile rank selected at `types` by uniform coin value
    // `coin` in {0..coin_space-1}.
    [[nodiscard]] std::size_t sample_rank(const game::TypeProfile& types, std::size_t coin,
                                          std::size_t coin_space_size) const;

private:
    const game::BayesianGame* game_;
    std::uint64_t num_action_profiles_;
    std::vector<std::vector<util::Rational>> table_;  // [type_rank][action_rank]
};

namespace reference {

// The archived pre-sweep checker: enumerates EVERY joint (report,
// response) deviation map, re-unranking both maps and walking the full
// type x action-rank tensor per candidate. Golden baseline for the sweep's
// fuzz cross-validation and for the bench's deviation-map-evaluation
// comparison (it reports one cells_visited per evaluated map, like the
// sweep); not for production call sites.
[[nodiscard]] bool is_truthful_resilient_independent(
    const MediatorPolicy& policy, std::size_t k,
    GainCriterion criterion = GainCriterion::kAnyMemberGains);

}  // namespace reference

}  // namespace bnash::core
