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
// major. In kAuto mode the driver claims pair tasks on util::global_pool()
// through util::first_hit, after an inline prefix too small to pay for a
// dispatch (kDispatchCells), and a task above the winner stops between
// its composition scans. A sweep one of whose composition scans would
// split (run_scan) keeps its pair tasks in order on the calling thread
// instead, so each large scan still splits into seek()-entered ranged
// blocks on the pool; both rules come from exact composition counts.
// Cells and walker digit-moves are charged through a ScanTally — one per
// immunity task, one per composition scan — to util::work_counters and
// any active util::ExecutionGrant.
//
// The quotient serves these sweeps only: there is no orbit-native
// expected- or deviation-payoff entry. A class-constant mixed profile's
// payoffs come from the view's support-sparse sweeps
// (game/payoff_engine.h), and a mixed candidate runs the dense engine.
//
// The sweep's kernels read no Rational: the quotient already holds one
// store rank per entry (game::QuotientGame), and the constructor builds,
// once, per-class tables that index the quotient by histogram ranks, so
// a cell costs table lookups and rank compares. A witness's payoffs are
// read from the quotient's level tables.
//
// Callers reach it through core::make_sweep (robustness.h), the one
// engine factory: it validates the candidate, builds this engine when
// orbit_applicable, and the dense CoalitionSweep otherwise. The (k,t)
// questions pass their `symmetry` argument; the query server
// (serve/server.h) passes the upload's detected group refined by the
// candidate, so its asks and frontiers on symmetric uploads sweep orbits,
// budgets and resume tokens included.
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
    class Index;
    class PairScan;
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
        game::SweepMode mode, const TaskBound& bound) const;
    // Orbit cells of each pair task of resilience_tasks(max_k, max_t, ...),
    // from exact composition counts; empty when one of their composition
    // scans would split (split_scan).
    [[nodiscard]] std::vector<std::uint64_t> pair_cells(std::size_t max_k,
                                                        std::size_t max_t) const;

    // `after` indexes the hurt class's quotient row.
    [[nodiscard]] RobustnessViolation make_immunity_witness(
        const std::vector<std::size_t>& tcounts, const util::OrbitWalker& walker,
        std::size_t witness_class, std::uint64_t after) const;

    game::QuotientGame quotient_;
    game::SymmetryGroup group_;
    std::vector<std::size_t> base_;
    // Built once per sweep: the tables that index the quotient by
    // per-class histogram ranks (see the .cpp).
    std::shared_ptr<const Index> index_;
    std::vector<std::uint64_t> baseline_;  // per class, the candidate's quotient index
};

// True when the orbit engine can answer for this candidate: the group is
// non-trivial and the candidate is pure and class-constant. Otherwise the
// router runs the dense sweep, so a degenerate (all-singleton) group is
// observationally a no-op.
[[nodiscard]] bool orbit_applicable(const game::SymmetryGroup& group,
                                    const game::ExactMixedProfile& profile);

}  // namespace bnash::core
