#include "core/robust/orbit_sweep.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <stdexcept>
#include <utility>

#include "core/robust/coalition_sweep.h"
#include "util/execution_grant.h"
#include "util/orbit_walker.h"
#include "util/thread_pool.h"
#include "util/work_counters.h"

namespace bnash::core {
namespace {

using game::QuotientGame;
using game::SymmetryGroup;
using util::OrbitWalker;
using util::Rational;

// Same polling cadence as the dense serial scans: flush the pending
// counter chunk, then check the grant, so overshoot past a budget is
// bounded by one chunk per executing scan.
constexpr std::uint64_t kGrantCheckCells = 2048;

// Enumerate (x_0..x_{m-1}) with sum x_i == total and x_i <= cap[i],
// x_0-major descending lex (everything in the first class first). fn()
// reads `x` and returns false to stop; the enumerator then propagates
// the false. Vectors this enumerates are per-class coalition/faulty
// SIZES — the orbit analogue of util::SubsetEnumerator's subset lists.
template <typename Fn>
bool bounded_compositions_rec(std::vector<std::size_t>& x, const std::vector<std::size_t>& cap,
                              std::size_t pos, std::size_t remaining, const Fn& fn) {
    if (pos + 1 == x.size()) {
        if (remaining > cap[pos]) return true;  // no completion at this leaf
        x[pos] = remaining;
        return fn();
    }
    const std::size_t top = std::min(remaining, cap[pos]);
    for (std::size_t v = top + 1; v-- > 0;) {
        x[pos] = v;
        if (!bounded_compositions_rec(x, cap, pos + 1, remaining - v, fn)) return false;
    }
    return true;
}

template <typename Fn>
bool for_each_bounded_composition(std::size_t total, const std::vector<std::size_t>& cap,
                                  std::vector<std::size_t>& x, const Fn& fn) {
    x.assign(cap.size(), 0);
    return bounded_compositions_rec(x, cap, 0, total, fn);
}

// Everything one (ccounts, tcounts) resilience scan needs; `cls` lists
// the classes with coalition members.
struct PairContext final {
    const QuotientGame* quotient = nullptr;
    const SymmetryGroup* group = nullptr;
    const std::vector<std::size_t>* base = nullptr;
    std::vector<std::size_t> ccounts;
    std::vector<std::size_t> tcounts;
    std::vector<std::size_t> cls;
    GainCriterion criterion = GainCriterion::kAnyMemberGains;
};

// Expand a representative tuple back to a CONCRETE violation: per class,
// the first t_c members are faulty and the next c_c form the coalition,
// each block taking its histogram's actions in ascending order. The
// payoffs at this concrete tuple equal the representative's by symmetry,
// so the dense checker validates the witness as-is.
RobustnessViolation make_resilience_witness(const PairContext& ctx, const OrbitWalker& walker,
                                            std::size_t witness_class,
                                            std::size_t witness_action, const Rational& before,
                                            const Rational& after) {
    const auto& classes = ctx.group->classes();
    const std::size_t m = ctx.quotient->num_classes();
    RobustnessViolation v;
    for (std::size_t c = 0; c < m; ++c) {
        const auto& members = classes[c];
        std::size_t next = 0;
        const auto& fh = walker.counts(c);
        for (std::size_t a = 0; a < fh.size(); ++a) {
            for (std::size_t r = 0; r < fh[a]; ++r) {
                v.faulty.push_back(members[next++]);
                v.faulty_deviation.push_back(a);
            }
        }
        const auto& ch = walker.counts(m + c);
        for (std::size_t a = 0; a < ch.size(); ++a) {
            for (std::size_t r = 0; r < ch[a]; ++r) {
                v.coalition.push_back(members[next++]);
                v.coalition_deviation.push_back(a);
            }
        }
    }
    // The coalition member of witness_class assigned witness_action: its
    // class block starts after the faulty members, actions ascending.
    std::size_t offset = ctx.tcounts[witness_class];
    const auto& ch = walker.counts(m + witness_class);
    for (std::size_t a = 0; a < witness_action; ++a) offset += ch[a];
    v.witness_player = classes[witness_class][offset];
    v.payoff_before = before.to_double();
    v.payoff_after = after.to_double();
    return v;
}

struct RangeResult final {
    std::optional<RobustnessViolation> violation;
    std::uint64_t hit_rank = 0;
    bool truncated = false;
};

// Scan joint orbits [walker.rank(), hi) of a faulty-digits-then-
// coalition-digits walker (m digits each). Per-class reference payoffs
// are refreshed only when the faulty digits move (they are the SLOW
// digits, so refreshes are rare). Charges its own cells and digit moves
// to util::work_counters — callers never re-charge — and polls the
// grant every kGrantCheckCells cells; `best`, when given, is the block
// sweep's winning-rank early exit.
RangeResult scan_resilience_range(const PairContext& ctx, OrbitWalker& walker, std::uint64_t hi,
                                  util::ExecutionGrant* grant,
                                  const std::atomic<std::uint64_t>* best) {
    const QuotientGame& q = *ctx.quotient;
    const std::vector<std::size_t>& base = *ctx.base;
    const std::size_t m = q.num_classes();
    RangeResult out;
    const std::uint64_t moves_entry = walker.digit_moves();
    std::uint64_t scanned = 0;
    std::uint64_t flushed_cells = 0;
    std::uint64_t flushed_moves = 0;
    const auto flush = [&] {
        const std::uint64_t moves = walker.digit_moves() - moves_entry;
        util::work_counters_add(scanned - flushed_cells, moves - flushed_moves);
        flushed_cells = scanned;
        flushed_moves = moves;
    };

    std::vector<std::vector<std::size_t>> others(m);
    for (std::size_t d = 0; d < m; ++d) others[d].assign(q.class_actions[d], 0);
    std::vector<Rational> ref(m);
    bool ref_valid = false;
    // Reference payoff of a class-c coalition member when the whole
    // coalition still plays the candidate against the same faulty
    // deviation: others = fh_d + (n_d - t_d) at base_d, minus itself.
    const auto refresh_ref = [&] {
        for (const std::size_t c : ctx.cls) {
            for (std::size_t d = 0; d < m; ++d) {
                const auto& fh = walker.counts(d);
                auto& h = others[d];
                for (std::size_t a = 0; a < h.size(); ++a) h[a] = fh[a];
                h[base[d]] += q.class_sizes[d] - ctx.tcounts[d];
            }
            others[c][base[c]] -= 1;
            ref[c] = q.at(c, base[c], q.rank_others(c, others));
        }
        ref_valid = true;
    };

    for (std::uint64_t rank = walker.rank(); rank < hi; ++rank) {
        ++scanned;
        if (grant != nullptr && (scanned % kGrantCheckCells) == 0) {
            flush();
            if (grant->expired()) {
                out.truncated = true;
                return out;
            }
        }
        if (best != nullptr && (scanned & 255) == 0 &&
            rank >= best->load(std::memory_order_acquire)) {
            flush();
            return out;  // a lower rank already won; yield
        }
        if (!ref_valid || walker.lowest_changed() < m) refresh_ref();
        // Deviated-profile template: faulty histogram + coalition
        // histogram + everyone else on the candidate.
        for (std::size_t d = 0; d < m; ++d) {
            const auto& fh = walker.counts(d);
            const auto& ch = walker.counts(m + d);
            auto& h = others[d];
            for (std::size_t a = 0; a < h.size(); ++a) h[a] = fh[a] + ch[a];
            h[base[d]] += q.class_sizes[d] - ctx.tcounts[d] - ctx.ccounts[d];
        }
        bool any_gain = false;
        bool all_gain = true;
        std::size_t witness_class = 0;
        std::size_t witness_action = 0;
        const Rational* witness_before = nullptr;
        Rational witness_after;
        for (const std::size_t c : ctx.cls) {
            const auto& ch = walker.counts(m + c);
            for (std::size_t a = 0; a < ch.size(); ++a) {
                if (ch[a] == 0) continue;
                others[c][a] -= 1;
                const Rational& after = q.at(c, a, q.rank_others(c, others));
                others[c][a] += 1;
                if (after > ref[c]) {
                    if (!any_gain) {
                        witness_class = c;
                        witness_action = a;
                        witness_before = &ref[c];
                        witness_after = after;
                    }
                    any_gain = true;
                } else {
                    all_gain = false;
                }
            }
        }
        const bool violated =
            ctx.criterion == GainCriterion::kAnyMemberGains ? any_gain : all_gain;
        if (violated) {
            out.hit_rank = rank;
            out.violation = make_resilience_witness(ctx, walker, witness_class, witness_action,
                                                    *witness_before, witness_after);
            flush();
            return out;
        }
        if (rank + 1 < hi && !walker.advance()) break;
    }
    flush();
    return out;
}

// Same gate as the dense per-faulty-set scans: kAuto, above the
// sweep-resolved split threshold, and either a real pool or the force
// hook. Orbit pair scans are the whole sweep's work (one scan at a
// time), so the adaptive policy sees num_tasks = 1.
bool should_split(game::SweepMode mode, std::uint64_t total) {
    if (mode != game::SweepMode::kAuto) return false;
    if (total < CoalitionSweep::sweep_intra_split_cells(1, total)) return false;
    if (total < 2 * CoalitionSweep::intra_block_cells()) return false;
    return util::global_pool().size() > 1 || CoalitionSweep::intra_split_force();
}

}  // namespace

OrbitSweep::OrbitSweep(QuotientGame quotient, SymmetryGroup group,
                       std::vector<std::size_t> base_by_class)
    : quotient_(std::move(quotient)), group_(std::move(group)), base_(std::move(base_by_class)) {
    const std::size_t m = quotient_.num_classes();
    if (group_.num_classes() != m) {
        throw std::invalid_argument("OrbitSweep: group/quotient class count mismatch");
    }
    for (std::size_t c = 0; c < m; ++c) {
        if (group_.classes()[c].size() != quotient_.class_sizes[c]) {
            throw std::invalid_argument("OrbitSweep: group/quotient class size mismatch");
        }
    }
    if (base_.size() != m) {
        throw std::invalid_argument("OrbitSweep: base profile class count mismatch");
    }
    for (std::size_t c = 0; c < m; ++c) {
        if (base_[c] >= quotient_.class_actions[c]) {
            throw std::invalid_argument("OrbitSweep: base action out of range");
        }
    }
    if (quotient_.others_orbits_.size() != m) quotient_.finalize();
    // Candidate payoff per class: everyone on base, minus the evaluated
    // member itself.
    std::vector<std::vector<std::size_t>> others(m);
    for (std::size_t d = 0; d < m; ++d) {
        others[d].assign(quotient_.class_actions[d], 0);
        others[d][base_[d]] = quotient_.class_sizes[d];
    }
    baseline_.resize(m);
    for (std::size_t c = 0; c < m; ++c) {
        others[c][base_[c]] -= 1;
        baseline_[c] = quotient_.at(c, base_[c], quotient_.rank_others(c, others));
        others[c][base_[c]] += 1;
    }
}

RobustnessViolation OrbitSweep::make_immunity_witness(const std::vector<std::size_t>& tcounts,
                                                      const OrbitWalker& walker,
                                                      std::size_t witness_class,
                                                      const Rational& after) const {
    const auto& classes = group_.classes();
    RobustnessViolation v;
    for (std::size_t c = 0; c < quotient_.num_classes(); ++c) {
        const auto& members = classes[c];
        std::size_t next = 0;
        const auto& fh = walker.counts(c);
        for (std::size_t a = 0; a < fh.size(); ++a) {
            for (std::size_t r = 0; r < fh[a]; ++r) {
                v.faulty.push_back(members[next++]);
                v.faulty_deviation.push_back(a);
            }
        }
    }
    // First outsider of the hurt class: its members [0, t_c) are faulty.
    v.witness_player = classes[witness_class][tcounts[witness_class]];
    v.payoff_before = baseline_[witness_class].to_double();
    v.payoff_after = after.to_double();
    return v;
}

OrbitSweep::ScanOutcome OrbitSweep::immunity_scan(std::size_t faulty_size) const {
    ScanOutcome out;
    if (faulty_size == 0) return out;
    const std::size_t m = quotient_.num_classes();
    util::ExecutionGrant* const grant = util::active_grant();
    if (grant != nullptr && grant->expired()) {
        out.truncated = true;
        return out;
    }
    std::uint64_t cells = 0;
    std::uint64_t carried_moves = 0;
    std::uint64_t flushed_cells = 0;
    std::uint64_t flushed_moves = 0;
    OrbitWalker walker;
    const auto flush = [&] {
        const std::uint64_t moves = carried_moves + walker.digit_moves();
        util::work_counters_add(cells - flushed_cells, moves - flushed_moves);
        flushed_cells = cells;
        flushed_moves = moves;
    };
    std::vector<std::vector<std::size_t>> others(m);
    for (std::size_t d = 0; d < m; ++d) others[d].assign(quotient_.class_actions[d], 0);
    std::vector<std::size_t> tcounts;
    for_each_bounded_composition(faulty_size, quotient_.class_sizes, tcounts, [&] {
        carried_moves += walker.digit_moves();
        walker.clear();
        walker.reserve(m);
        for (std::size_t d = 0; d < m; ++d) {
            walker.add_class(tcounts[d], quotient_.class_actions[d]);
        }
        bool more = true;
        while (more) {
            ++cells;
            if (grant != nullptr && (cells % kGrantCheckCells) == 0) {
                flush();
                if (grant->expired()) {
                    out.truncated = true;
                    return false;
                }
            }
            // Every class with an outsider left checks its candidate
            // payoff against the faulty deviation.
            for (std::size_t c = 0; c < m; ++c) {
                if (tcounts[c] >= quotient_.class_sizes[c]) continue;
                for (std::size_t d = 0; d < m; ++d) {
                    const auto& fh = walker.counts(d);
                    auto& h = others[d];
                    for (std::size_t a = 0; a < h.size(); ++a) h[a] = fh[a];
                    h[base_[d]] += quotient_.class_sizes[d] - tcounts[d];
                }
                others[c][base_[c]] -= 1;
                const Rational& after =
                    quotient_.at(c, base_[c], quotient_.rank_others(c, others));
                if (after < baseline_[c]) {
                    out.violation = make_immunity_witness(tcounts, walker, c, after);
                    flush();
                    return false;
                }
            }
            more = walker.advance();
        }
        return true;
    });
    flush();
    return out;
}

OrbitSweep::ScanOutcome OrbitSweep::resilience_scan(std::size_t coalition_size,
                                                    std::size_t faulty_size,
                                                    GainCriterion criterion,
                                                    game::SweepMode mode) const {
    ScanOutcome out;
    if (coalition_size == 0) return out;
    const std::size_t m = quotient_.num_classes();
    util::ExecutionGrant* const grant = util::active_grant();
    if (grant != nullptr && grant->expired()) {
        out.truncated = true;
        return out;
    }
    PairContext ctx;
    ctx.quotient = &quotient_;
    ctx.group = &group_;
    ctx.base = &base_;
    ctx.criterion = criterion;
    std::vector<std::size_t> ccounts;
    std::vector<std::size_t> tcounts;
    std::vector<std::size_t> fcap(m);
    for_each_bounded_composition(coalition_size, quotient_.class_sizes, ccounts, [&] {
        ctx.ccounts = ccounts;
        ctx.cls.clear();
        for (std::size_t d = 0; d < m; ++d) {
            if (ccounts[d] > 0) ctx.cls.push_back(d);
            fcap[d] = quotient_.class_sizes[d] - ccounts[d];
        }
        return for_each_bounded_composition(faulty_size, fcap, tcounts, [&] {
            ctx.tcounts = tcounts;
            OrbitWalker proto;
            proto.reserve(2 * m);
            for (std::size_t d = 0; d < m; ++d) {
                proto.add_class(tcounts[d], quotient_.class_actions[d]);
            }
            for (std::size_t d = 0; d < m; ++d) {
                proto.add_class(ccounts[d], quotient_.class_actions[d]);
            }
            const std::uint64_t total = proto.num_orbits();
            if (!should_split(mode, total)) {
                proto.reset();
                RangeResult run = scan_resilience_range(ctx, proto, total, grant, nullptr);
                if (run.violation) {
                    out.violation = std::move(run.violation);
                    return false;
                }
                if (run.truncated) {
                    out.truncated = true;
                    return false;
                }
                return true;
            }
            // Ranged seek() blocks on the pool, deterministic lowest-rank
            // winner — the orbit mirror of intra_resilience_scan. Block
            // size growth keeps the bookkeeping bounded on huge scans.
            constexpr std::uint64_t kMaxIntraBlocks = 4096;
            const std::uint64_t block_cells =
                std::max(CoalitionSweep::intra_block_cells(),
                         (total + kMaxIntraBlocks - 1) / kMaxIntraBlocks);
            const std::uint64_t num_blocks = (total + block_cells - 1) / block_cells;
            std::atomic<std::uint64_t> best{total};
            std::vector<std::optional<RobustnessViolation>> found(num_blocks);
            std::vector<std::uint64_t> hit_rank(num_blocks, total);
            std::vector<std::pair<std::uint64_t, std::exception_ptr>> errors(num_blocks,
                                                                             {total, nullptr});
            util::global_pool().run_blocks(
                static_cast<std::size_t>(num_blocks), [&](std::size_t block) {
                    const std::uint64_t lo = block * block_cells;
                    const std::uint64_t hi = std::min(total, lo + block_cells);
                    if (lo >= best.load(std::memory_order_acquire)) return;
                    try {
                        OrbitWalker walker = proto;
                        walker.seek(lo);
                        RangeResult run = scan_resilience_range(ctx, walker, hi, grant, &best);
                        if (run.violation) {
                            found[block] = std::move(run.violation);
                            hit_rank[block] = run.hit_rank;
                            std::uint64_t current = best.load(std::memory_order_acquire);
                            while (run.hit_rank < current &&
                                   !best.compare_exchange_weak(current, run.hit_rank,
                                                               std::memory_order_acq_rel)) {
                            }
                        }
                    } catch (...) {
                        errors[block] = {lo, std::current_exception()};
                    }
                });
            const std::uint64_t winner = best.load(std::memory_order_acquire);
            std::uint64_t error_rank = total;
            std::exception_ptr error;
            for (std::size_t block = 0; block < num_blocks; ++block) {
                if (errors[block].second != nullptr && errors[block].first < error_rank) {
                    error_rank = errors[block].first;
                    error = errors[block].second;
                }
            }
            // Serial-equivalent error surfacing: an error below the
            // winning rank is what the in-order scan would have hit
            // first.
            if (error != nullptr && error_rank < winner) std::rethrow_exception(error);
            if (winner < total) {
                for (std::size_t block = 0; block < num_blocks; ++block) {
                    if (hit_rank[block] == winner) {
                        out.violation = std::move(found[block]);
                        break;
                    }
                }
                return false;
            }
            if (grant != nullptr && grant->expired()) {
                out.truncated = true;
                return false;
            }
            return true;
        });
    });
    return out;
}

std::optional<RobustnessViolation> OrbitSweep::immunity_violation(std::size_t t,
                                                                  game::SweepMode mode) const {
    // Orbit immunity spaces are composition-sized — always serial.
    (void)mode;
    for (std::size_t s = 1; s <= t; ++s) {
        ScanOutcome outcome = immunity_scan(s);
        if (outcome.violation) return outcome.violation;
        if (outcome.truncated) return std::nullopt;  // caller checks the grant
    }
    return std::nullopt;
}

std::optional<RobustnessViolation> OrbitSweep::resilience_violation(std::size_t k, std::size_t t,
                                                                    GainCriterion criterion,
                                                                    game::SweepMode mode) const {
    // Coalition-size-major, faulty-size-minor: the first hit has the
    // smallest breaking coalition, like the dense size-major task order.
    for (std::size_t coalition_size = 1; coalition_size <= k; ++coalition_size) {
        for (std::size_t faulty_size = 0; faulty_size <= t; ++faulty_size) {
            ScanOutcome outcome = resilience_scan(coalition_size, faulty_size, criterion, mode);
            if (outcome.violation) return outcome.violation;
            if (outcome.truncated) return std::nullopt;
        }
    }
    return std::nullopt;
}

std::optional<RobustnessViolation> OrbitSweep::robustness_violation(
    std::size_t k, std::size_t t, const RobustnessOptions& options) const {
    if (auto violation = immunity_violation(t, options.mode)) return violation;
    return resilience_violation(k, t, options.criterion, options.mode);
}

std::optional<RobustnessViolation> OrbitSweep::robustness_violation(
    std::size_t k, std::size_t t, const RobustnessOptions& options,
    const SweepCheckpoint* resume, SweepCheckpoint* checkpoint) const {
    // An empty checkpoint (no progress recorded) is a fresh run.
    if (resume != nullptr && !resume->immunity_done && resume->immunity_next == 0) {
        resume = nullptr;
    }
    if (checkpoint != nullptr) *checkpoint = SweepCheckpoint{};
    // Part (a) over faulty sizes. Scans below the recorded size were
    // verified clean by the earlier runs, so any hit here is the
    // global-first witness (smallest-size-first order is fixed).
    if (!(resume != nullptr && resume->immunity_done)) {
        const std::size_t start_s =
            resume != nullptr ? static_cast<std::size_t>(resume->immunity_next) : 1;
        check_resume_position(start_s, t + 1);
        for (std::size_t s = std::max<std::size_t>(start_s, 1); s <= t; ++s) {
            ScanOutcome outcome = immunity_scan(s);
            if (outcome.violation) {
                if (checkpoint != nullptr) checkpoint->finished = true;
                return outcome.violation;
            }
            if (outcome.truncated) {
                if (checkpoint != nullptr) checkpoint->immunity_next = s;
                return std::nullopt;
            }
        }
    }
    if (checkpoint != nullptr) checkpoint->immunity_done = true;
    // Part (b) over (coalition size, faulty size) pairs, sc-major; the
    // checkpoint linearizes the pair to its scan rank.
    const std::size_t row = t + 1;
    const std::size_t start_rank = resume != nullptr && resume->immunity_done
                                       ? static_cast<std::size_t>(resume->next_task)
                                       : 0;
    // A resume rank beyond the (sc, st) scan space means the checkpoint
    // was recorded against different sweep parameters.
    check_resume_position(start_rank, k * row);
    for (std::size_t sc = 1; sc <= k; ++sc) {
        for (std::size_t st = 0; st <= t; ++st) {
            const std::size_t rank = (sc - 1) * row + st;
            if (rank < start_rank) continue;  // verified by earlier runs
            ScanOutcome outcome = resilience_scan(sc, st, options.criterion, options.mode);
            if (outcome.violation) {
                if (checkpoint != nullptr) checkpoint->finished = true;
                return outcome.violation;
            }
            if (outcome.truncated) {
                if (checkpoint != nullptr) checkpoint->next_task = rank;
                return std::nullopt;
            }
        }
    }
    if (checkpoint != nullptr) checkpoint->finished = true;
    return std::nullopt;
}

OrbitSweep::Boundary OrbitSweep::immunity_boundary(std::size_t max_t) const {
    return immunity_boundary_phase(1, max_t).boundary;
}

OrbitSweep::BoundaryPhase OrbitSweep::immunity_boundary_phase(std::size_t start_s,
                                                              std::size_t max_t) const {
    check_resume_position(start_s, max_t + 1);
    BoundaryPhase phase;
    Boundary& boundary = phase.boundary;
    boundary.max_ok = start_s > 1 ? start_s - 1 : 0;
    for (std::size_t s = std::max<std::size_t>(start_s, 1); s <= max_t; ++s) {
        ScanOutcome outcome = immunity_scan(s);
        if (outcome.violation) {
            boundary.max_ok = s - 1;
            boundary.violation = std::move(outcome.violation);
            phase.next_s = max_t + 1;
            phase.done = true;
            return phase;
        }
        if (outcome.truncated) {
            boundary.max_ok = s - 1;
            boundary.complete = false;
            phase.next_s = s;
            return phase;
        }
        boundary.max_ok = s;
    }
    phase.next_s = max_t + 1;
    phase.done = true;
    return phase;
}

FrontierVerdict OrbitSweep::batch_robustness_frontier(std::size_t max_k, std::size_t max_t,
                                                      GainCriterion criterion,
                                                      game::SweepMode mode) const {
    return batch_robustness_frontier(max_k, max_t, criterion, mode, nullptr, nullptr);
}

FrontierVerdict OrbitSweep::batch_robustness_frontier(std::size_t max_k, std::size_t max_t,
                                                      GainCriterion criterion,
                                                      game::SweepMode mode,
                                                      const SweepCheckpoint* resume,
                                                      SweepCheckpoint* checkpoint) const {
    // An empty checkpoint (no progress recorded) is a fresh run.
    if (resume != nullptr && !resume->immunity_done && resume->immunity_next == 0) {
        resume = nullptr;
    }
    FrontierVerdict out;
    out.max_k = max_k;
    out.max_t = max_t;
    const std::size_t stride = max_t + 1;
    out.cells.assign((max_k + 1) * stride, std::nullopt);

    // Part (a): the t-axis boundary; broken columns take the immunity
    // witness for every k (the independent probes check immunity first).
    // A resumed run whose checkpoint already finished the phase leaves
    // those columns kUnknown — their witnesses were delivered by the run
    // that finished it.
    bool immunity_done = false;
    bool immunity_exact_now = false;  // phase finished THIS run
    std::size_t immunity_ok = 0;
    std::uint64_t immunity_next = 0;
    if (resume != nullptr && resume->immunity_done) {
        immunity_done = true;
        immunity_ok = resume->immunity_ok;
    } else {
        const BoundaryPhase phase = immunity_boundary_phase(
            resume != nullptr ? static_cast<std::size_t>(resume->immunity_next) : 1, max_t);
        immunity_done = phase.done;
        immunity_ok = phase.boundary.max_ok;
        immunity_next = phase.next_s;
        if (immunity_done) {
            immunity_exact_now = true;
            for (std::size_t t = immunity_ok + 1; t <= max_t; ++t) {
                for (std::size_t k = 0; k <= max_k; ++k) {
                    out.cells[k * stride + t] = phase.boundary.violation;
                }
            }
        }
    }
    const std::size_t t_res = std::min(max_t, immunity_ok);

    // Minimal violating pairs earlier runs found: their cells (and the
    // robust prefix below the recorded pair rank) were delivered then and
    // stay kUnknown here. Prior pairs always precede new ones in scan
    // rank, so a cell under both takes the prior witness in an unbudgeted
    // run too — skipping it keeps the merged grid bit-identical.
    std::vector<std::pair<std::size_t, std::size_t>> prior;
    std::size_t start_rank = 0;
    if (resume != nullptr && resume->immunity_done) {
        prior = resume->hit_pairs;
        start_rank = static_cast<std::size_t>(resume->next_task);
    }
    std::vector<std::size_t> breaking_prior(t_res + 1, max_k + 1);
    for (const auto& [psc, pst] : prior) {
        for (std::size_t t = pst; t <= t_res; ++t) {
            breaking_prior[t] = std::min(breaking_prior[t], psc);
        }
    }

    // Part (b): scan (coalition size, faulty size) PAIRS, skipping any
    // pair dominated by an already-found violation — it could only break
    // cells that violation already breaks. The found list therefore
    // holds the minimal violating pairs, and cell (k, t) is broken iff
    // some found pair fits under it: exactly the dense verdict.
    struct PairHit final {
        std::size_t coalition_size;
        std::size_t faulty_size;
        RobustnessViolation violation;
    };
    std::vector<PairHit> found;
    bool truncated = false;
    std::size_t trunc_sc = max_k + 1;
    std::size_t trunc_st = 0;
    const std::size_t row = t_res + 1;  // pairs per coalition size
    check_resume_position(start_rank, max_k * row);
    std::size_t next_rank = max_k * row;
    if (max_k > 0) {
        for (std::size_t sc = 1; sc <= max_k && !truncated; ++sc) {
            for (std::size_t st = 0; st <= t_res; ++st) {
                const std::size_t rank = (sc - 1) * row + st;
                if (rank < start_rank) continue;  // verified by earlier runs
                bool dominated = false;
                for (const auto& [psc, pst] : prior) {
                    if (psc <= sc && pst <= st) {
                        dominated = true;
                        break;
                    }
                }
                for (const PairHit& hit : found) {
                    if (dominated) break;
                    if (hit.coalition_size <= sc && hit.faulty_size <= st) {
                        dominated = true;
                        break;
                    }
                }
                if (dominated) continue;
                ScanOutcome outcome = resilience_scan(sc, st, criterion, mode);
                if (outcome.violation) {
                    found.push_back({sc, st, std::move(*outcome.violation)});
                    continue;
                }
                if (outcome.truncated) {
                    truncated = true;
                    trunc_sc = sc;
                    trunc_st = st;
                    next_rank = rank;
                    break;
                }
            }
        }
    }
    // First dominating pair in scan order provides each broken cell's
    // violation — deterministic, and valid evidence even when the sweep
    // was later truncated. Cells under a PRIOR pair were delivered by an
    // earlier run and stay untouched.
    for (const PairHit& hit : found) {
        for (std::size_t k = hit.coalition_size; k <= max_k; ++k) {
            for (std::size_t t = hit.faulty_size; t <= t_res; ++t) {
                if (k >= breaking_prior[t]) continue;
                auto& cell = out.cells[k * stride + t];
                if (!cell) cell = hit.violation;
            }
        }
    }

    const bool sweep_finished = immunity_done && !truncated;
    if (checkpoint != nullptr) {
        *checkpoint = SweepCheckpoint{};
        checkpoint->finished = sweep_finished;
        checkpoint->immunity_done = immunity_done;
        checkpoint->immunity_next = immunity_next;
        checkpoint->immunity_ok = immunity_ok;
        if (immunity_done && !sweep_finished) {
            checkpoint->next_task = next_rank;
            checkpoint->hit_pairs = prior;
            for (const PairHit& hit : found) {
                checkpoint->hit_pairs.emplace_back(hit.coalition_size, hit.faulty_size);
            }
        }
    }

    if (resume == nullptr && immunity_exact_now && !truncated) {
        out.cells_resolved = out.cells.size();
        return out;
    }
    out.states.assign(out.cells.size(), CellVerdict::kUnknown);
    for (std::size_t t = 0; t <= max_t; ++t) {
        if (t > t_res) {
            if (immunity_exact_now) {
                for (std::size_t k = 0; k <= max_k; ++k) {
                    out.states[k * stride + t] = CellVerdict::kBroken;
                }
            }
            continue;
        }
        // Pairs (sc <= verified_k, st <= t) all ran (or were dominated)
        // before the cutoff; above that the column is unknown. Ranks
        // below start_rank ran in earlier runs, so the robust prefix they
        // certified — k <= prior_vk — was already delivered then.
        const std::size_t verified_k =
            !truncated ? max_k : (t < trunc_st ? trunc_sc : trunc_sc - 1);
        const std::size_t prior_vk =
            start_rank > t ? std::min(max_k, (start_rank - 1 - t) / row + 1) : 0;
        std::size_t breaking = max_k + 1;
        for (const PairHit& hit : found) {
            if (hit.faulty_size <= t) breaking = std::min(breaking, hit.coalition_size);
        }
        for (std::size_t k = 0; k <= max_k; ++k) {
            if (k >= breaking_prior[t]) continue;  // broken, delivered earlier
            if (k >= breaking) {
                out.states[k * stride + t] = CellVerdict::kBroken;
            } else if (k <= verified_k && (start_rank == 0 || k > prior_vk)) {
                out.states[k * stride + t] = CellVerdict::kRobust;
            }
        }
    }
    for (const CellVerdict state : out.states) {
        if (state != CellVerdict::kUnknown) ++out.cells_resolved;
    }
    return out;
}

MaxKtResult OrbitSweep::max_kt(std::size_t max_k, std::size_t max_t, GainCriterion criterion,
                               game::SweepMode mode) const {
    return max_kt(max_k, max_t, criterion, mode, nullptr, nullptr);
}

MaxKtResult OrbitSweep::max_kt(std::size_t max_k, std::size_t max_t, GainCriterion criterion,
                               game::SweepMode mode, const SweepCheckpoint* resume,
                               SweepCheckpoint* checkpoint) const {
    // An empty checkpoint (no progress recorded) is a fresh run.
    if (resume != nullptr && !resume->immunity_done && resume->immunity_next == 0) {
        resume = nullptr;
    }
    MaxKtResult out;
    out.max_k = max_k;
    out.max_t = max_t;
    std::size_t t0 = 0;
    std::size_t k_prev = max_k;
    std::size_t sc_start = 1;
    if (resume != nullptr && resume->immunity_done) {
        out.immunity_ok = resume->immunity_ok;
        out.immunity_exact = true;
        out.complete = true;
        out.cells_resolved = static_cast<std::size_t>(resume->walk_cells_resolved);
        out.k_of_t = resume->walk_k_of_t;
        t0 = resume->walk_t;
        k_prev = resume->walk_k_prev;
        check_resume_position(resume->next_task, max_k + 1);
        sc_start = std::max<std::size_t>(static_cast<std::size_t>(resume->next_task), 1);
    } else {
        const BoundaryPhase phase = immunity_boundary_phase(
            resume != nullptr ? static_cast<std::size_t>(resume->immunity_next) : 1, max_t);
        out.immunity_ok = phase.boundary.max_ok;
        out.immunity_exact = phase.done;
        out.complete = phase.done;
        // Same resolution accounting as the dense walk: the
        // (0, immunity_ok) confirmation, plus the broken cell above it
        // when interior & exact.
        out.cells_resolved = 1 + (out.immunity_ok < max_t && phase.done ? 1 : 0);
        if (!phase.done && checkpoint != nullptr) {
            // A resumable run truncated mid-immunity reports no columns:
            // the retry re-derives the walk from the exact boundary more
            // cheaply than re-walking a provisional one.
            *checkpoint = SweepCheckpoint{};
            checkpoint->immunity_next = phase.next_s;
            return out;
        }
    }
    out.k_of_t.reserve(out.immunity_ok + 1);
    bool truncated_walk = false;
    std::uint64_t walk_next = 1;
    for (std::size_t t = t0; t <= out.immunity_ok; ++t) {
        if (k_prev == 0) {
            out.k_of_t.push_back(0);  // column survives on immunity alone
            sc_start = 1;
            continue;
        }
        // Coalition sizes <= k_prev are clean for faulty sizes < t, so
        // this column sweeps faulty size EXACTLY t; the first violating
        // coalition size pins kmax(t). The seek applies only to the
        // resumed column: sizes below sc_start were verified clean for
        // this exact column by the run that truncated here.
        std::optional<std::size_t> hit_size;
        bool truncated = false;
        std::size_t sc = sc_start;
        sc_start = 1;
        for (; sc <= k_prev; ++sc) {
            ScanOutcome outcome = resilience_scan(sc, t, criterion, mode);
            if (outcome.violation) {
                hit_size = sc;
                break;
            }
            if (outcome.truncated) {
                truncated = true;
                break;
            }
        }
        if (truncated && !hit_size) {
            out.complete = false;
            truncated_walk = true;
            walk_next = sc;
            break;
        }
        const std::size_t kt = hit_size ? *hit_size - 1 : k_prev;
        out.k_of_t.push_back(kt);
        out.cells_resolved += 1 + (hit_size ? 1 : 0);
        k_prev = kt;
    }
    if (checkpoint != nullptr) {
        *checkpoint = SweepCheckpoint{};
        checkpoint->immunity_done = true;
        checkpoint->immunity_ok = out.immunity_ok;
        checkpoint->finished = !truncated_walk;
        if (truncated_walk) {
            checkpoint->walk_t = out.k_of_t.size();
            checkpoint->walk_k_prev = k_prev;
            checkpoint->walk_k_of_t = out.k_of_t;
            checkpoint->walk_cells_resolved = out.cells_resolved;
            checkpoint->next_task = walk_next;
        }
    }
    for (std::size_t t = 0; t < out.k_of_t.size(); ++t) {
        if (t + 1 == out.k_of_t.size() || out.k_of_t[t + 1] < out.k_of_t[t]) {
            out.maximal.emplace_back(out.k_of_t[t], t);
        }
    }
    return out;
}

// --- routed entry points ----------------------------------------------------

namespace {

OrbitSweep make_orbit_sweep(const game::GameView& view, const SymmetryGroup& group,
                            const game::PureProfile& pure) {
    std::vector<std::size_t> base(group.num_classes());
    for (std::size_t c = 0; c < group.num_classes(); ++c) {
        base[c] = pure[group.classes()[c].front()];
    }
    return OrbitSweep(game::build_quotient(view, group), group, std::move(base));
}

}  // namespace

bool orbit_applicable(const SymmetryGroup& group, const game::ExactMixedProfile& profile) {
    if (group.is_trivial()) return false;
    const auto pure = as_pure_profile(profile);
    return pure.has_value() && group.class_constant(*pure);
}

std::optional<RobustnessViolation> find_robustness_violation(
    const game::GameView& view, const SymmetryGroup& group,
    const game::ExactMixedProfile& profile, std::size_t k, std::size_t t,
    const RobustnessOptions& options) {
    if (!orbit_applicable(group, profile)) {
        return find_robustness_violation(view, profile, k, t, options);
    }
    const auto pure = as_pure_profile(profile);
    return make_orbit_sweep(view, group, *pure).robustness_violation(k, t, options);
}

bool is_kt_robust(const game::GameView& view, const SymmetryGroup& group,
                  const game::ExactMixedProfile& profile, std::size_t k, std::size_t t,
                  const RobustnessOptions& options) {
    return !find_robustness_violation(view, group, profile, k, t, options).has_value();
}

FrontierVerdict batch_robustness_frontier(const game::GameView& view,
                                          const SymmetryGroup& group,
                                          const game::ExactMixedProfile& profile,
                                          std::size_t max_k, std::size_t max_t,
                                          const RobustnessOptions& options) {
    if (!orbit_applicable(group, profile)) {
        return batch_robustness_frontier(view, profile, max_k, max_t, options);
    }
    const auto pure = as_pure_profile(profile);
    return make_orbit_sweep(view, group, *pure)
        .batch_robustness_frontier(max_k, max_t, options.criterion, options.mode);
}

MaxKtResult max_kt(const game::GameView& view, const SymmetryGroup& group,
                   const game::ExactMixedProfile& profile, std::size_t max_k, std::size_t max_t,
                   const RobustnessOptions& options) {
    if (!orbit_applicable(group, profile)) {
        return max_kt(view, profile, max_k, max_t, options);
    }
    const auto pure = as_pure_profile(profile);
    return make_orbit_sweep(view, group, *pure)
        .max_kt(max_k, max_t, options.criterion, options.mode);
}

}  // namespace bnash::core
