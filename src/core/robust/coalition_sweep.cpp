#include "core/robust/coalition_sweep.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <utility>

#include "util/audit.h"
#include "util/combinatorics.h"
#include "util/execution_grant.h"
#include "util/offset_walker.h"
#include "util/thread_pool.h"
#include "util/work_counters.h"

namespace bnash::core {
namespace {

using game::ExactMixedProfile;
using game::GameView;
using game::PureProfile;
using util::Rational;

std::atomic<std::uint64_t> g_intra_split_cells{CoalitionSweep::kDefaultIntraSplitCells};
std::atomic<std::uint64_t> g_intra_block_cells{CoalitionSweep::kIntraBlock};
std::atomic<bool> g_intra_split_force{false};
// set_intra_split_cells PINS the threshold (the legacy process-wide
// behavior tests and benches rely on); unpinned sweeps derive a
// per-sweep threshold from their measured task shape instead.
std::atomic<bool> g_intra_split_pinned{false};

// Joint-deviation scan over the players in `who`: a thin adapter that
// configures the shared util::OffsetWalker over those players' view
// cell-offset columns, rebased so reset(base) starts from the row where
// every scanned player still plays its CANDIDATE action — row(tau) =
// base + sum_d (cell_offset(who_d, tau_d) - cell_offset(who_d,
// candidate_d)). All actual walking (row-major order, incremental row
// deltas, unsigned wrap-around) lives in the walker.
class JointScan final {
public:
    void init(const GameView& view, const PureProfile& candidate,
              const std::vector<std::size_t>& who) {
        carried_moves_ += walker_.digit_moves();  // clear() resets the tally
        walker_.clear();
        walker_.reserve(who.size());
        rebase_ = 0;
        for (const std::size_t p : who) {
            const auto& column = view.cell_offsets(p);
            walker_.add_digit(column.data(), column.size());
            rebase_ -= column[candidate[p]];
        }
    }

    // Restart at the all-zeros tuple relative to `base` (the row with
    // every scanned player still on its candidate action).
    void reset(std::uint64_t base) { walker_.reset(base + rebase_); }

    // Advance one tuple; false once the space is exhausted.
    // lint: no-charge(thin adapter — the sweep loops driving JointScan
    // charge at their bulk-add points via the digit_moves() hand-off)
    [[nodiscard]] bool advance() { return walker_.advance(); }

    [[nodiscard]] std::uint64_t row() const noexcept { return walker_.row(); }
    [[nodiscard]] const PureProfile& tuple() const noexcept { return walker_.tuple(); }
    [[nodiscard]] std::uint64_t digit_moves() const noexcept {
        return carried_moves_ + walker_.digit_moves();
    }

private:
    util::OffsetWalker walker_;
    std::uint64_t rebase_ = 0;
    std::uint64_t carried_moves_ = 0;
};

// Serial scans poll their grant every kGrantCheckCells cells, flushing
// the pending counter chunk first so the budget sees the work already
// done. Overshoot past a budget/deadline/cancel is therefore bounded by
// one chunk per executing scan, matching the pool's one-block bound.
constexpr std::uint64_t kGrantCheckCells = 2048;

// --- intra-task ranged-block scans -------------------------------------------
//
// One faulty set's joint-deviation space, walked as ONE combined odometer
// (faulty digits then coalition digits — exactly the serial nesting
// order) and split into fixed-size rank blocks (run_ranked_blocks, block 0
// inline, the rest on the pool). The winner is the lowest violating RANK,
// so the reported violation is the first the serial nested scan would
// have produced; blocks whose range lies above the current winner are
// skipped. When the outer task level already owns the workers, the pool
// runs the blocks inline in order and the decomposition changes nothing
// observable.

// True when a per-faulty-set scan of `total` cells should split;
// `split_cells` is the sweep's threshold (pinned or adaptively derived
// once at sweep entry — see sweep_intra_split_cells).
bool should_split_intra(game::SweepMode mode, std::uint64_t total, std::uint64_t split_cells) {
    if (mode != game::SweepMode::kAuto) return false;
    if (total < split_cells) return false;
    if (total < 2 * g_intra_block_cells.load(std::memory_order_relaxed)) return false;
    return util::global_pool().size() > 1 ||
           g_intra_split_force.load(std::memory_order_relaxed);
}

// Saturating product of the `width` largest action counts: an upper
// bound on any single per-task joint scan this sweep can run. Only ever
// compared against thresholds, so saturation is harmless.
std::uint64_t max_scan_cells(const GameView& view, std::size_t width) {
    const std::size_t n = view.num_players();
    std::vector<std::uint64_t> counts(n);
    for (std::size_t p = 0; p < n; ++p) counts[p] = view.num_actions(p);
    std::sort(counts.begin(), counts.end(), std::greater<>());
    std::uint64_t total = 1;
    for (std::size_t i = 0; i < std::min(width, n); ++i) {
        if (counts[i] != 0 && total > (std::uint64_t{1} << 62) / counts[i]) {
            return std::uint64_t{1} << 62;  // saturate
        }
        total *= counts[i];
    }
    return total;
}

// Pure-candidate scans compare ordinal ranks (NormalFormGame::
// ordinal_ranks), read like payoffs: ranks[row + view.parent_player(p)]
// for view player p. Every check compares two cells of one player, where ranks
// order exactly like the Rationals, so verdicts, witness cells and work
// counters are those of the exact compare; a witness then reads its two
// exact payoffs once.
std::optional<RobustnessViolation> intra_resilience_scan(
    const GameView& view, const std::uint32_t* ranks, const PureProfile& candidate,
    std::uint64_t base_row, const std::vector<std::size_t>& coalition, const std::vector<std::size_t>& faulty,
    GainCriterion criterion, std::uint64_t total) {
    const std::size_t fw = faulty.size();
    const std::size_t width = coalition.size();
    std::vector<std::size_t> cols(width);
    for (std::size_t idx = 0; idx < width; ++idx) cols[idx] = view.parent_player(coalition[idx]);
    // Combined walker prototype: every scanned player rebased to its
    // candidate action (copied and seek()ed per block).
    util::OffsetWalker proto;
    proto.reserve(fw + width);
    std::uint64_t rebase = base_row;
    for (const std::size_t p : faulty) {
        const auto& column = view.cell_offsets(p);
        proto.add_digit(column.data(), column.size());
        rebase -= column[candidate[p]];
    }
    // With the coalition digits at zero, the reference row (coalition
    // back on its candidate actions) is the walker row minus this.
    std::uint64_t coalition_zero_delta = 0;
    for (const std::size_t p : coalition) {
        const auto& column = view.cell_offsets(p);
        proto.add_digit(column.data(), column.size());
        rebase -= column[candidate[p]];
        coalition_zero_delta += column[0] - column[candidate[p]];
    }
    const auto scan_block = [&](std::uint64_t lo, std::uint64_t hi,
                                const std::atomic<std::uint64_t>& best) {
        std::optional<RankHit> hit;
        std::uint64_t scanned = 0;
        util::OffsetWalker walker = proto;
        walker.seek(lo, rebase);
        const auto& tuple = walker.tuple();
        // Reference row for the block's entry faulty tuple.
        std::uint64_t ref_row = walker.row();
        for (std::size_t idx = 0; idx < width; ++idx) {
            const auto& column = view.cell_offsets(coalition[idx]);
            ref_row += column[candidate[coalition[idx]]] - column[tuple[fw + idx]];
        }
        std::vector<std::uint32_t> reference(width);
        for (std::size_t idx = 0; idx < width; ++idx) reference[idx] = ranks[ref_row + cols[idx]];
        for (std::uint64_t rank = lo; rank < hi; ++rank) {
            ++scanned;
            bool any_gain = false;
            bool all_gain = true;
            std::size_t witness = 0;
            for (std::size_t idx = 0; idx < width; ++idx) {
                if (ranks[walker.row() + cols[idx]] > reference[idx]) {
                    if (!any_gain) witness = idx;
                    any_gain = true;
                } else {
                    all_gain = false;
                }
            }
            const bool violated = criterion == GainCriterion::kAnyMemberGains
                                      ? any_gain
                                      : (all_gain && !coalition.empty());
            if (violated) {
                hit = RankHit{
                    rank,
                    RobustnessViolation{
                        coalition, faulty,
                        PureProfile(tuple.begin() + static_cast<std::ptrdiff_t>(fw), tuple.end()),
                        PureProfile(tuple.begin(), tuple.begin() + static_cast<std::ptrdiff_t>(fw)),
                        coalition[witness],
                        view.payoff_from(ref_row, coalition[witness]).to_double(),
                        view.payoff_from(walker.row(), coalition[witness]).to_double()}};
                break;
            }
            if (rank + 1 < hi) {
                (void)walker.advance();
                if (walker.lowest_changed() < fw) {
                    // Carry into the faulty digits: the coalition digits
                    // are back at zero, so the reference row is one
                    // constant away.
                    ref_row = walker.row() - coalition_zero_delta;
                    for (std::size_t idx = 0; idx < width; ++idx) {
                        reference[idx] = ranks[ref_row + cols[idx]];
                    }
                }
                // Ranks above an established winner can never win.
                if ((rank & 255) == 255 && rank + 1 >= best.load(std::memory_order_acquire)) {
                    break;
                }
            }
        }
        // Per-BLOCK bulk add (not one add per scan): the pool propagates
        // the submitter's grant to this thread, so the budget is charged
        // as each block retires and an expired grant stops claiming new
        // blocks one block later.
        util::work_counters_add(scanned, walker.digit_moves());
        return hit;
    };
    return run_ranked_blocks(total, g_intra_block_cells.load(std::memory_order_relaxed),
                             scan_block);
}

std::optional<RobustnessViolation> intra_immunity_scan(
    const GameView& view, const std::uint32_t* ranks, const PureProfile& candidate,
    std::uint64_t base_row, const std::vector<std::size_t>& faulty,
    const std::vector<std::size_t>& outsiders, std::uint64_t total) {
    util::OffsetWalker proto;
    proto.reserve(faulty.size());
    std::uint64_t rebase = base_row;
    for (const std::size_t p : faulty) {
        const auto& column = view.cell_offsets(p);
        proto.add_digit(column.data(), column.size());
        rebase -= column[candidate[p]];
    }
    std::vector<std::size_t> cols(outsiders.size());
    std::vector<std::uint32_t> baseline(outsiders.size());
    for (std::size_t j = 0; j < outsiders.size(); ++j) {
        cols[j] = view.parent_player(outsiders[j]);
        baseline[j] = ranks[base_row + cols[j]];
    }
    const auto scan_block = [&](std::uint64_t lo, std::uint64_t hi,
                                const std::atomic<std::uint64_t>& best) {
        std::optional<RankHit> hit;
        std::uint64_t scanned = 0;
        util::OffsetWalker walker = proto;
        walker.seek(lo, rebase);
        for (std::uint64_t rank = lo; rank < hi && !hit; ++rank) {
            ++scanned;
            for (std::size_t j = 0; j < outsiders.size(); ++j) {
                if (ranks[walker.row() + cols[j]] < baseline[j]) {
                    const std::size_t i = outsiders[j];
                    hit = RankHit{rank, RobustnessViolation{
                                            {}, faulty, {}, walker.tuple(), i,
                                            view.payoff_from(base_row, i).to_double(),
                                            view.payoff_from(walker.row(), i).to_double()}};
                    break;
                }
            }
            if (!hit && rank + 1 < hi) {
                (void)walker.advance();
                if ((rank & 255) == 255 && rank + 1 >= best.load(std::memory_order_acquire)) {
                    break;
                }
            }
        }
        // Per-block bulk add; see intra_resilience_scan.
        util::work_counters_add(scanned, walker.digit_moves());
        return hit;
    };
    return run_ranked_blocks(total, g_intra_block_cells.load(std::memory_order_relaxed),
                             scan_block);
}

}  // namespace

void CoalitionSweep::set_intra_split_cells(std::uint64_t cells) noexcept {
    g_intra_split_cells.store(cells, std::memory_order_relaxed);
    g_intra_split_pinned.store(true, std::memory_order_relaxed);
}

std::uint64_t CoalitionSweep::intra_split_cells() noexcept {
    return g_intra_split_cells.load(std::memory_order_relaxed);
}

void CoalitionSweep::set_intra_split_adaptive() noexcept {
    g_intra_split_cells.store(kDefaultIntraSplitCells, std::memory_order_relaxed);
    g_intra_split_pinned.store(false, std::memory_order_relaxed);
}

bool CoalitionSweep::intra_split_pinned() noexcept {
    return g_intra_split_pinned.load(std::memory_order_relaxed);
}

std::uint64_t CoalitionSweep::sweep_intra_split_cells(std::size_t num_tasks,
                                                      std::uint64_t max_task_cells) noexcept {
    if (g_intra_split_pinned.load(std::memory_order_relaxed)) {
        return g_intra_split_cells.load(std::memory_order_relaxed);
    }
    const std::uint64_t floor_cells = 2 * intra_block_cells();
    // Even the largest measured task cannot form two blocks: no split is
    // possible, keep the default gate.
    if (max_task_cells < floor_cells) return kDefaultIntraSplitCells;
    const std::size_t workers = std::max<std::size_t>(1, util::global_pool().size());
    // Two-plus tasks per executor: the outer task level saturates the
    // pool by itself, so only default-threshold-sized scans warrant the
    // extra block bookkeeping.
    if (num_tasks >= 2 * workers) return kDefaultIntraSplitCells;
    // Starved outer level (few big tasks — one huge coalition, an orbit
    // pair scan, a boundary-walk column): lower the gate in proportion
    // to the shortfall so the measured-largest scans do split, floored
    // at the two-block minimum.
    const std::uint64_t scaled = kDefaultIntraSplitCells *
                                 std::max<std::uint64_t>(1, num_tasks) / (2 * workers);
    return std::clamp(scaled, floor_cells, kDefaultIntraSplitCells);
}

void CoalitionSweep::set_intra_block_cells(std::uint64_t cells) noexcept {
    g_intra_block_cells.store(cells == 0 ? 1 : cells, std::memory_order_relaxed);
}

std::uint64_t CoalitionSweep::intra_block_cells() noexcept {
    return g_intra_block_cells.load(std::memory_order_relaxed);
}

void CoalitionSweep::set_intra_split_force(bool force) noexcept {
    g_intra_split_force.store(force, std::memory_order_relaxed);
}

bool CoalitionSweep::intra_split_force() noexcept {
    return g_intra_split_force.load(std::memory_order_relaxed);
}

CoalitionSweep::CoalitionSweep(GameView view, const ExactMixedProfile& profile)
    : view_(std::move(view)), profile_(&profile), pure_(as_pure_profile(profile)) {
    if (pure_) {
        base_row_ = view_.row_offset(*pure_);
        ranks_ = view_.parent().ordinal_ranks().data();
    } else {
        // One plan per sweep: every sparse coalition scan walks it.
        support_ = game::build_support_plan(view_, profile);
    }
}

// --- support-sparse fused scans (mixed candidates) ---------------------------
//
// Digit layout per scan: the deviators' FULL action ranges first (faulty
// then coalition — the serial enumeration order), then the remaining
// players' SUPPORT actions. The cells of one joint deviation are then a
// contiguous row-major run, so each deviation's expected utilities
// accumulate with incremental prefix-product weights (recomputed from the
// walker's lowest changed digit only) and finalize exactly when the walk
// carries out of the support digits. Exact arithmetic makes the
// accumulated values — hence verdicts and witnesses — identical to the
// per-evaluation expected sweeps this replaces.

std::optional<RobustnessViolation> CoalitionSweep::sparse_immunity_task(
    const std::vector<std::size_t>& faulty, const std::vector<Rational>& baseline) const {
    const std::size_t n = view_.num_players();
    const game::SupportPlan& plan = *support_;
    std::vector<std::size_t> outsiders;
    outsiders.reserve(n - faulty.size());
    for (std::size_t i = 0; i < n; ++i) {
        if (std::find(faulty.begin(), faulty.end(), i) == faulty.end()) {
            outsiders.push_back(i);
        }
    }
    const std::size_t fw = faulty.size();
    util::OffsetWalker walker;
    walker.reserve(fw + outsiders.size());
    for (const std::size_t p : faulty) {
        const auto& column = view_.cell_offsets(p);
        walker.add_digit(column.data(), column.size());
    }
    for (const std::size_t p : outsiders) {
        walker.add_digit(plan.offsets[p].data(), plan.offsets[p].size());
    }
    walker.reset();
    const auto& tuple = walker.tuple();
    std::vector<Rational> prefix(outsiders.size() + 1, Rational{1});
    std::vector<Rational> acc(outsiders.size(), Rational{0});
    PureProfile tau(fw, 0);
    std::size_t from = 0;
    std::uint64_t cells = 0;
    util::ExecutionGrant* const grant = util::active_grant();
    std::uint64_t flushed_cells = 0;
    std::uint64_t flushed_moves = 0;
    // Chunked counter flush: totals are identical to the old single add,
    // and each flush charges the active grant so the periodic expiry poll
    // below sees the budget state of the work already done.
    const auto flush = [&] {
        util::work_counters_add(cells - flushed_cells, walker.digit_moves() - flushed_moves);
        flushed_cells = cells;
        flushed_moves = walker.digit_moves();
    };
    bool more = true;
    while (more) {
        ++cells;
        if (grant != nullptr && (cells % kGrantCheckCells) == 0) {
            flush();
            if (grant->expired()) return std::nullopt;  // truncated
        }
        for (std::size_t j = from; j < outsiders.size(); ++j) {
            const std::size_t p = outsiders[j];
            prefix[j + 1] = prefix[j] * (*profile_)[p][plan.actions[p][tuple[fw + j]]];
        }
        const Rational& weight = prefix[outsiders.size()];
#if BNASH_AUDIT_ENABLED
        {
            Rational full{1};
            for (std::size_t j = 0; j < outsiders.size(); ++j) {
                const std::size_t p = outsiders[j];
                full = full * (*profile_)[p][plan.actions[p][tuple[fw + j]]];
            }
            BNASH_AUDIT_CHECK(full == weight,
                              "sparse_immunity_task: incremental outsider-weight "
                              "prefix drifted from a from-scratch product");
        }
#endif
        for (std::size_t i = 0; i < outsiders.size(); ++i) {
            acc[i] += weight * view_.payoff_from(walker.row(), outsiders[i]);
        }
        more = walker.advance();
        if (!more || walker.lowest_changed() < fw) {
            // Joint deviation `tau` complete: check the outsiders in
            // player order (the fallback's order).
            for (std::size_t i = 0; i < outsiders.size(); ++i) {
                if (acc[i] < baseline[outsiders[i]]) {
                    flush();
                    return RobustnessViolation{{},
                                               faulty,
                                               {},
                                               tau,
                                               outsiders[i],
                                               baseline[outsiders[i]].to_double(),
                                               acc[i].to_double()};
                }
            }
            if (!more) break;
            std::fill(acc.begin(), acc.end(), Rational{0});
            for (std::size_t d = 0; d < fw; ++d) tau[d] = tuple[d];
            from = 0;
        } else {
            from = walker.lowest_changed() - fw;
        }
    }
    flush();
    return std::nullopt;
}

std::optional<RobustnessViolation> CoalitionSweep::sparse_resilience_scan(
    const std::vector<std::size_t>& coalition, const std::vector<std::size_t>& faulty,
    GainCriterion criterion) const {
    const std::size_t n = view_.num_players();
    const game::SupportPlan& plan = *support_;
    const std::size_t width = coalition.size();
    const std::size_t fw = faulty.size();
    const auto member_of = [](const std::vector<std::size_t>& set, std::size_t p) {
        return std::find(set.begin(), set.end(), p) != set.end();
    };
    std::vector<std::size_t> rest;       // outside C u T, ascending
    std::vector<std::size_t> non_faulty; // outside T (coalition included)
    for (std::size_t i = 0; i < n; ++i) {
        if (member_of(faulty, i)) continue;
        non_faulty.push_back(i);
        if (!member_of(coalition, i)) rest.push_back(i);
    }
    std::uint64_t faulty_tuples = 1;
    for (const std::size_t p : faulty) faulty_tuples *= view_.num_actions(p);
    std::uint64_t cells = 0;
    std::uint64_t digit_moves = 0;
    util::ExecutionGrant* const grant = util::active_grant();
    std::uint64_t flushed_cells = 0;
    std::uint64_t flushed_moves = 0;
    // Chunked counter flush (totals identical to the old single add);
    // `moves_now` is the cumulative digit-move tally including the phase
    // currently walking.
    const auto flush_at = [&](std::uint64_t moves_now) {
        util::work_counters_add(cells - flushed_cells, moves_now - flushed_moves);
        flushed_cells = cells;
        flushed_moves = moves_now;
    };

    // Phase A — references: u_i(sigma_C, tau_T, sigma_-T) for every
    // coalition member i and every tau_T, in ONE support walk.
    std::vector<Rational> ref(static_cast<std::size_t>(faulty_tuples) * width,
                              Rational{0});
    {
        util::OffsetWalker walker;
        walker.reserve(fw + non_faulty.size());
        for (const std::size_t p : faulty) {
            const auto& column = view_.cell_offsets(p);
            walker.add_digit(column.data(), column.size());
        }
        for (const std::size_t p : non_faulty) {
            walker.add_digit(plan.offsets[p].data(), plan.offsets[p].size());
        }
        walker.reset();
        const auto& tuple = walker.tuple();
        std::vector<Rational> prefix(non_faulty.size() + 1, Rational{1});
        std::vector<Rational> acc(width, Rational{0});
        std::size_t from = 0;
        std::size_t tau_rank = 0;
        bool more = true;
        while (more) {
            ++cells;
            if (grant != nullptr && (cells % kGrantCheckCells) == 0) {
                flush_at(digit_moves + walker.digit_moves());
                if (grant->expired()) return std::nullopt;  // truncated
            }
            for (std::size_t j = from; j < non_faulty.size(); ++j) {
                const std::size_t p = non_faulty[j];
                prefix[j + 1] = prefix[j] * (*profile_)[p][plan.actions[p][tuple[fw + j]]];
            }
            const Rational& weight = prefix[non_faulty.size()];
#if BNASH_AUDIT_ENABLED
            {
                Rational full{1};
                for (std::size_t j = 0; j < non_faulty.size(); ++j) {
                    const std::size_t p = non_faulty[j];
                    full = full * (*profile_)[p][plan.actions[p][tuple[fw + j]]];
                }
                BNASH_AUDIT_CHECK(full == weight,
                                  "sparse_resilience_scan phase A: incremental "
                                  "non-faulty-weight prefix drifted from a "
                                  "from-scratch product");
            }
#endif
            for (std::size_t idx = 0; idx < width; ++idx) {
                acc[idx] += weight * view_.payoff_from(walker.row(), coalition[idx]);
            }
            more = walker.advance();
            if (!more || walker.lowest_changed() < fw) {
                for (std::size_t idx = 0; idx < width; ++idx) {
                    ref[tau_rank * width + idx] = std::move(acc[idx]);
                    acc[idx] = Rational{0};
                }
                ++tau_rank;
                from = 0;
            } else {
                from = walker.lowest_changed() - fw;
            }
        }
        digit_moves += walker.digit_moves();
    }

    // Phase B — joint deviations: (tau_T, tau_C) cells in the serial
    // enumeration order (faulty outer, coalition inner), each accumulated
    // over the remaining players' support and judged on completion.
    {
        const std::size_t dw = fw + width;
        util::OffsetWalker walker;
        walker.reserve(dw + rest.size());
        for (const std::size_t p : faulty) {
            const auto& column = view_.cell_offsets(p);
            walker.add_digit(column.data(), column.size());
        }
        for (const std::size_t p : coalition) {
            const auto& column = view_.cell_offsets(p);
            walker.add_digit(column.data(), column.size());
        }
        for (const std::size_t p : rest) {
            walker.add_digit(plan.offsets[p].data(), plan.offsets[p].size());
        }
        walker.reset();
        const auto& tuple = walker.tuple();
        std::vector<Rational> prefix(rest.size() + 1, Rational{1});
        std::vector<Rational> acc(width, Rational{0});
        PureProfile tau_t(fw, 0);
        PureProfile tau_c(width, 0);
        std::size_t from = 0;
        std::size_t tau_rank = 0;
        bool more = true;
        while (more) {
            ++cells;
            if (grant != nullptr && (cells % kGrantCheckCells) == 0) {
                flush_at(digit_moves + walker.digit_moves());
                if (grant->expired()) return std::nullopt;  // truncated
            }
            for (std::size_t j = from; j < rest.size(); ++j) {
                const std::size_t p = rest[j];
                prefix[j + 1] = prefix[j] * (*profile_)[p][plan.actions[p][tuple[dw + j]]];
            }
            const Rational& weight = prefix[rest.size()];
#if BNASH_AUDIT_ENABLED
            {
                Rational full{1};
                for (std::size_t j = 0; j < rest.size(); ++j) {
                    const std::size_t p = rest[j];
                    full = full * (*profile_)[p][plan.actions[p][tuple[dw + j]]];
                }
                BNASH_AUDIT_CHECK(full == weight,
                                  "sparse_resilience_scan phase B: incremental "
                                  "rest-weight prefix drifted from a from-scratch "
                                  "product");
            }
#endif
            for (std::size_t idx = 0; idx < width; ++idx) {
                acc[idx] += weight * view_.payoff_from(walker.row(), coalition[idx]);
            }
            more = walker.advance();
            if (!more || walker.lowest_changed() < dw) {
                const Rational* base = &ref[tau_rank * width];
                bool any_gain = false;
                bool all_gain = true;
                std::size_t witness = coalition[0];
                Rational witness_before;
                Rational witness_after;
                for (std::size_t idx = 0; idx < width; ++idx) {
                    if (acc[idx] > base[idx]) {
                        if (!any_gain) {
                            witness = coalition[idx];
                            witness_before = base[idx];
                            witness_after = acc[idx];
                        }
                        any_gain = true;
                    } else {
                        all_gain = false;
                    }
                }
                const bool violated = criterion == GainCriterion::kAnyMemberGains
                                          ? any_gain
                                          : (all_gain && !coalition.empty());
                if (violated) {
                    flush_at(digit_moves + walker.digit_moves());
                    return RobustnessViolation{coalition,
                                               faulty,
                                               tau_c,
                                               tau_t,
                                               witness,
                                               witness_before.to_double(),
                                               witness_after.to_double()};
                }
                if (!more) break;
                if (walker.lowest_changed() < fw) ++tau_rank;
                for (std::size_t d = 0; d < fw; ++d) tau_t[d] = tuple[d];
                for (std::size_t d = 0; d < width; ++d) tau_c[d] = tuple[fw + d];
                std::fill(acc.begin(), acc.end(), Rational{0});
                from = 0;
            } else {
                from = walker.lowest_changed() - dw;
            }
        }
        digit_moves += walker.digit_moves();
    }
    flush_at(digit_moves);
    return std::nullopt;
}

std::optional<RobustnessViolation> CoalitionSweep::immunity_task(
    const std::vector<std::size_t>& faulty, const std::vector<Rational>& baseline,
    game::SweepMode mode, std::uint64_t split_cells) const {
    const std::size_t n = view_.num_players();
    if (!pure_) return sparse_immunity_task(faulty, baseline);
    std::vector<std::size_t> outsiders;
    outsiders.reserve(n - faulty.size());
    for (std::size_t i = 0; i < n; ++i) {
        if (std::find(faulty.begin(), faulty.end(), i) == faulty.end()) {
            outsiders.push_back(i);
        }
    }
    std::uint64_t total = 1;
    for (const std::size_t p : faulty) total *= view_.num_actions(p);
    if (should_split_intra(mode, total, split_cells)) {
        return intra_immunity_scan(view_, ranks_, *pure_, base_row_, faulty, outsiders, total);
    }
    std::vector<std::size_t> cols(outsiders.size());
    std::vector<std::uint32_t> baseline_ranks(outsiders.size());
    for (std::size_t j = 0; j < outsiders.size(); ++j) {
        cols[j] = view_.parent_player(outsiders[j]);
        baseline_ranks[j] = ranks_[base_row_ + cols[j]];
    }
    JointScan scan;
    scan.init(view_, *pure_, faulty);
    scan.reset(base_row_);
    util::ExecutionGrant* const grant = util::active_grant();
    std::uint64_t cells = 0;
    std::uint64_t flushed_cells = 0;
    std::uint64_t flushed_moves = 0;
    // Chunked counter flush; totals identical to the old single add.
    const auto flush = [&] {
        util::work_counters_add(cells - flushed_cells, scan.digit_moves() - flushed_moves);
        flushed_cells = cells;
        flushed_moves = scan.digit_moves();
    };
    do {
        ++cells;
        for (std::size_t j = 0; j < outsiders.size(); ++j) {
            if (ranks_[scan.row() + cols[j]] < baseline_ranks[j]) {
                const std::size_t i = outsiders[j];
                flush();
                return RobustnessViolation{{},
                                           faulty,
                                           {},
                                           scan.tuple(),
                                           i,
                                           view_.payoff_from(base_row_, i).to_double(),
                                           view_.payoff_from(scan.row(), i).to_double()};
            }
        }
        if (grant != nullptr && (cells % kGrantCheckCells) == 0) {
            flush();
            if (grant->expired()) return std::nullopt;  // truncated
        }
    } while (scan.advance());
    flush();
    return std::nullopt;
}

std::optional<RobustnessViolation> CoalitionSweep::resilience_task(
    const std::vector<std::size_t>& coalition, std::size_t min_t, std::size_t max_t,
    GainCriterion criterion, game::SweepMode mode, std::uint64_t split_cells) const {
    const std::size_t n = view_.num_players();
    // Disjoint faulty sets, the empty one first (matches the reference
    // checker's enumeration order exactly).
    std::vector<std::size_t> others;
    others.reserve(n - coalition.size());
    for (std::size_t i = 0; i < n; ++i) {
        if (std::find(coalition.begin(), coalition.end(), i) == coalition.end()) {
            others.push_back(i);
        }
    }
    const std::size_t width = coalition.size();
    util::ExecutionGrant* const grant = util::active_grant();
    if (pure_) {
        std::uint64_t coalition_cells = 1;
        for (const std::size_t p : coalition) coalition_cells *= view_.num_actions(p);
        JointScan coalition_scan;
        coalition_scan.init(view_, *pure_, coalition);
        // Both scans and the reference row are reused across faulty sets:
        // the inner loops allocate nothing.
        JointScan faulty_scan;
        std::vector<std::size_t> cols(width);
        for (std::size_t idx = 0; idx < width; ++idx) cols[idx] = view_.parent_player(coalition[idx]);
        std::vector<std::uint32_t> reference(width);
        std::vector<std::size_t> faulty;
        std::uint64_t cells = 0;
        std::uint64_t flushed_cells = 0;
        std::uint64_t flushed_moves = 0;
        // Chunked flush (cells and moves are cumulative across faulty
        // sets); totals identical to the old single add per exit path.
        const auto flush_counters = [&] {
            const std::uint64_t moves =
                faulty_scan.digit_moves() + coalition_scan.digit_moves();
            util::work_counters_add(cells - flushed_cells, moves - flushed_moves);
            flushed_cells = cells;
            flushed_moves = moves;
        };
        const auto scan_serial =
            [&]() -> std::optional<RobustnessViolation> {
            faulty_scan.init(view_, *pure_, faulty);
            faulty_scan.reset(base_row_);
            do {
                // Coalition's reference ranks: sigma_C against this tau_T.
                const std::uint64_t ref_row = faulty_scan.row();
                for (std::size_t idx = 0; idx < width; ++idx) {
                    reference[idx] = ranks_[ref_row + cols[idx]];
                }
                coalition_scan.reset(ref_row);
                do {
                    ++cells;
                    bool any_gain = false;
                    bool all_gain = true;
                    std::size_t witness = 0;
                    for (std::size_t idx = 0; idx < width; ++idx) {
                        if (ranks_[coalition_scan.row() + cols[idx]] > reference[idx]) {
                            if (!any_gain) witness = idx;
                            any_gain = true;
                        } else {
                            all_gain = false;
                        }
                    }
                    const bool violated = criterion == GainCriterion::kAnyMemberGains
                                              ? any_gain
                                              : (all_gain && !coalition.empty());
                    if (violated) {
                        const std::size_t player = coalition[witness];
                        return RobustnessViolation{
                            coalition,
                            faulty,
                            coalition_scan.tuple(),
                            faulty_scan.tuple(),
                            player,
                            view_.payoff_from(ref_row, player).to_double(),
                            view_.payoff_from(coalition_scan.row(), player).to_double()};
                    }
                    if (grant != nullptr && (cells % kGrantCheckCells) == 0) {
                        flush_counters();
                        // Truncated — the caller observes the expired
                        // grant and discards the (absent) verdict.
                        if (grant->expired()) return std::nullopt;
                    }
                } while (coalition_scan.advance());
            } while (faulty_scan.advance());
            return std::nullopt;
        };
        // Ranged-block split for huge per-faulty-set scans; serial nested
        // walk otherwise. Both produce the first violation in the same
        // enumeration order.
        const auto scan_one = [&]() -> std::optional<RobustnessViolation> {
            std::uint64_t total = coalition_cells;
            for (const std::size_t p : faulty) total *= view_.num_actions(p);
            if (should_split_intra(mode, total, split_cells)) {
                return intra_resilience_scan(view_, ranks_, *pure_, base_row_, coalition, faulty,
                                             criterion, total);
            }
            return scan_serial();
        };
        // The empty faulty set first, then every disjoint T with
        // min_t <= |T| <= max_t — the reference checker's order.
        if (min_t == 0) {
            if (auto violation = scan_one()) {
                flush_counters();
                return violation;
            }
        }
        if (max_t > 0) {
            const util::SubsetEnumerator enumerator(others.size(), max_t);
            for (const auto& index_set : enumerator) {
                if (index_set.size() < min_t) continue;
                if (grant != nullptr && grant->expired()) {
                    flush_counters();
                    return std::nullopt;  // truncated between faulty sets
                }
                faulty.clear();
                for (const std::size_t idx : index_set) faulty.push_back(others[idx]);
                if (auto violation = scan_one()) {
                    flush_counters();
                    return violation;
                }
            }
        }
        flush_counters();
        return std::nullopt;
    }

    // Mixed candidate: one fused support-sparse scan per faulty set.
    if (min_t == 0) {
        if (auto violation = sparse_resilience_scan(coalition, {}, criterion)) {
            return violation;
        }
    }
    if (max_t > 0) {
        const util::SubsetEnumerator enumerator(others.size(), max_t);
        std::vector<std::size_t> faulty;
        for (const auto& index_set : enumerator) {
            if (index_set.size() < min_t) continue;
            if (grant != nullptr && grant->expired()) return std::nullopt;  // truncated
            faulty.clear();
            for (const std::size_t idx : index_set) faulty.push_back(others[idx]);
            if (auto violation = sparse_resilience_scan(coalition, faulty, criterion)) {
                return violation;
            }
        }
    }
    return std::nullopt;
}

std::vector<Rational> CoalitionSweep::immunity_baseline() const {
    // Pure candidates compare ranks against the candidate row instead.
    if (pure_) return {};
    // One shared support sweep for ALL players (the per-player fallback
    // ran n of them).
    return game::expected_payoffs_exact_sparse(view_, *profile_);
}

// Phase (a): the faulty sets of sizes 1..max_t, size-major.
class CoalitionSweep::ImmunityTasks final : public SweepTasks {
public:
    ImmunityTasks(const CoalitionSweep& sweep, std::size_t max_t, game::SweepMode mode)
        : SweepTasks(mode),
          sweep_(sweep),
          baseline_(sweep.immunity_baseline()),
          faulty_sets_(sweep.view_.num_players(), max_t),
          split_(sweep_intra_split_cells(faulty_sets_.size(), max_scan_cells(sweep.view_, max_t))) {
    }
    [[nodiscard]] std::size_t size() const override { return faulty_sets_.size(); }
    [[nodiscard]] std::size_t set_size(std::size_t task) const override {
        return faulty_sets_[task].size();
    }
    [[nodiscard]] std::optional<RobustnessViolation> run(std::size_t task, std::size_t,
                                                         std::size_t) const override {
        return sweep_.immunity_task(faulty_sets_[task], baseline_, mode(), split_);
    }

private:
    const CoalitionSweep& sweep_;
    std::vector<Rational> baseline_;
    util::SubsetEnumerator faulty_sets_;
    std::uint64_t split_;
};

// Phase (b): the coalitions of sizes 1..max_k, size-major.
class CoalitionSweep::ResilienceTasks final : public SweepTasks {
public:
    ResilienceTasks(const CoalitionSweep& sweep, std::size_t max_k, std::size_t max_t,
                    GainCriterion criterion, game::SweepMode mode)
        : SweepTasks(mode),
          sweep_(sweep),
          coalitions_(sweep.view_.num_players(), max_k),
          criterion_(criterion),
          split_(sweep_intra_split_cells(coalitions_.size(),
                                         max_scan_cells(sweep.view_, max_k + max_t))) {}
    [[nodiscard]] std::size_t size() const override { return coalitions_.size(); }
    [[nodiscard]] std::size_t set_size(std::size_t task) const override {
        return coalitions_[task].size();
    }
    [[nodiscard]] std::optional<RobustnessViolation> run(std::size_t task, std::size_t min_t,
                                                         std::size_t max_t) const override {
        return sweep_.resilience_task(coalitions_[task], min_t, max_t, criterion_, mode(), split_);
    }

private:
    const CoalitionSweep& sweep_;
    util::SubsetEnumerator coalitions_;
    GainCriterion criterion_;
    std::uint64_t split_;
};

std::unique_ptr<SweepTasks> CoalitionSweep::immunity_tasks(std::size_t max_t,
                                                           game::SweepMode mode) const {
    return std::make_unique<ImmunityTasks>(*this, max_t, mode);
}

std::unique_ptr<SweepTasks> CoalitionSweep::resilience_tasks(std::size_t max_k,
                                                             std::size_t max_t,
                                                             GainCriterion criterion,
                                                             game::SweepMode mode) const {
    return std::make_unique<ResilienceTasks>(*this, max_k, max_t, criterion, mode);
}

}  // namespace bnash::core
