// Orbit-indexed (k,t)-robustness sweeps for symmetric games — the
// engine that breaks the exhaustive-tensor wall.
//
// For a game::SymmetryGroup whose classes partition the players, and a
// CLASS-CONSTANT pure candidate, every quantity the dense CoalitionSweep
// scans depends only on per-class COUNTS, never on identities:
//
//   - a coalition C and faulty set T matter only through (c_1..c_m) and
//     (t_1..t_m), their per-class sizes (c_c + t_c <= n_c);
//   - a joint pure deviation matters only through per-class action
//     HISTOGRAMS (one util::OrbitWalker digit per class);
//   - any player's payoff at such a profile is a single lookup in the
//     game::QuotientGame built once per sweep.
//
// So the sweep walks ONE representative coalition per orbit and ONE
// representative joint deviation per orbit: prod_c C(n_c, c_c)-sized
// subset spaces collapse to bounded compositions, and prod |A|^|C|
// deviation spaces collapse to prod_c C(c_c + A_c - 1, A_c - 1). A
// violation found at a representative maps back to a CONCRETE witness
// (first t_c members of each class faulty, next c_c in the coalition,
// histograms expanded in ascending action order) that the dense checker
// verifies as-is; conversely any concrete violation has the same payoff
// pattern as its representative, so none is missed. VERDICTS (robust /
// broken per (k,t) cell, kmax boundaries) are therefore exactly the
// dense path's; only the reported witness may be a different — equally
// valid — member of the same orbit.
//
// As an ENGINE for SweepDriver (sweep_driver.h) it supplies only the
// task space and kernels. Phase (a) tasks are faulty sizes 1..t; phase
// (b) tasks are (coalition size, faulty size) pairs, coalition-size-
// major. Pair tasks run in order on the calling thread; a large pair
// scan splits into seek()-entered ranged blocks on util::global_pool()
// (run_ranked_blocks). Cells and walker digit-moves are charged to
// util::work_counters and through them to any active
// util::ExecutionGrant.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/robust/robustness.h"
#include "core/robust/sweep_driver.h"
#include "game/game_view.h"
#include "game/strategy.h"
#include "game/symmetry.h"
#include "util/rational.h"

namespace bnash::core {

class OrbitSweep final : public SweepDriver {
public:
    // `quotient` and `group` must describe the same game (class count and
    // sizes are cross-checked; throws std::invalid_argument otherwise);
    // base_by_class[c] is the candidate action every class-c member
    // plays. Group member indices are the player indices witnesses are
    // reported in.
    OrbitSweep(game::QuotientGame quotient, game::SymmetryGroup group,
               std::vector<std::size_t> base_by_class);

    [[nodiscard]] const game::QuotientGame& quotient() const noexcept { return quotient_; }
    [[nodiscard]] const game::SymmetryGroup& group() const noexcept { return group_; }

private:
    class ImmunityTasks;
    class PairTasks;

    [[nodiscard]] std::unique_ptr<SweepTasks> immunity_tasks(std::size_t max_t,
                                                             game::SweepMode mode) const override;
    [[nodiscard]] std::unique_ptr<SweepTasks> resilience_tasks(
        std::size_t max_k, std::size_t max_t, GainCriterion criterion,
        game::SweepMode mode) const override;

    // Every faulty orbit of exactly `faulty_size` players (resp. every
    // coalition orbit of `coalition_size` against faulty orbits of
    // `faulty_size`); the first violation or nullopt. Both stop early
    // once the active grant expires.
    [[nodiscard]] std::optional<RobustnessViolation> immunity_scan(std::size_t faulty_size) const;
    [[nodiscard]] std::optional<RobustnessViolation> resilience_scan(
        std::size_t coalition_size, std::size_t faulty_size, GainCriterion criterion,
        game::SweepMode mode) const;

    [[nodiscard]] RobustnessViolation make_immunity_witness(
        const std::vector<std::size_t>& tcounts, const util::OrbitWalker& walker,
        std::size_t witness_class, const util::Rational& after) const;

    game::QuotientGame quotient_;
    game::SymmetryGroup group_;
    std::vector<std::size_t> base_;
    std::vector<util::Rational> baseline_;  // per-class candidate payoff
};

// --- routed entry points ----------------------------------------------------
// The symmetry-aware mirrors of the robustness.h view-native checkers:
// when the group is non-trivial AND the candidate is pure and class-
// constant, they build the quotient and run the orbit sweep; otherwise
// they fall back to the dense CoalitionSweep, returning EXACTLY what the
// plain (view, profile) overloads return — witnesses included — so a
// degenerate (all-singleton) group is observationally a no-op.
[[nodiscard]] bool orbit_applicable(const game::SymmetryGroup& group,
                                    const game::ExactMixedProfile& profile);

[[nodiscard]] std::optional<RobustnessViolation> find_robustness_violation(
    const game::GameView& view, const game::SymmetryGroup& group,
    const game::ExactMixedProfile& profile, std::size_t k, std::size_t t,
    const RobustnessOptions& options = {});

[[nodiscard]] bool is_kt_robust(const game::GameView& view, const game::SymmetryGroup& group,
                                const game::ExactMixedProfile& profile, std::size_t k,
                                std::size_t t, const RobustnessOptions& options = {});

[[nodiscard]] FrontierVerdict batch_robustness_frontier(
    const game::GameView& view, const game::SymmetryGroup& group,
    const game::ExactMixedProfile& profile, std::size_t max_k, std::size_t max_t,
    const RobustnessOptions& options = {});

[[nodiscard]] MaxKtResult max_kt(const game::GameView& view, const game::SymmetryGroup& group,
                                 const game::ExactMixedProfile& profile, std::size_t max_k,
                                 std::size_t max_t, const RobustnessOptions& options = {});

}  // namespace bnash::core
