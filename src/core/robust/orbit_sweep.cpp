#include "core/robust/orbit_sweep.h"

#include <algorithm>
#include <atomic>
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

// Scan joint orbits [walker.rank(), hi) of a faulty-digits-then-
// coalition-digits walker (m digits each) and return the first hit.
// Per-class reference payoffs are refreshed only when the faulty digits
// move (they are the SLOW digits, so refreshes are rare). Charges its own
// cells and digit moves to util::work_counters — callers never re-charge
// — and polls the grant every kGrantCheckCells cells, giving up once it
// expired; `best`, when given, is the block sweep's winning-rank early
// exit.
std::optional<RankHit> scan_resilience_range(const PairContext& ctx, OrbitWalker& walker,
                                             std::uint64_t hi, util::ExecutionGrant* grant,
                                             const std::atomic<std::uint64_t>* best) {
    const QuotientGame& q = *ctx.quotient;
    const std::vector<std::size_t>& base = *ctx.base;
    const std::size_t m = q.num_classes();
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
            if (grant->expired()) return std::nullopt;  // truncated
        }
        if (best != nullptr && (scanned & 255) == 0 &&
            rank >= best->load(std::memory_order_acquire)) {
            flush();
            return std::nullopt;  // a lower rank already won; yield
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
            flush();
            return RankHit{rank, make_resilience_witness(ctx, walker, witness_class,
                                                         witness_action, *witness_before,
                                                         witness_after)};
        }
        if (rank + 1 < hi && !walker.advance()) break;
    }
    flush();
    return std::nullopt;
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

std::optional<RobustnessViolation> OrbitSweep::immunity_scan(std::size_t faulty_size) const {
    const std::size_t m = quotient_.num_classes();
    util::ExecutionGrant* const grant = util::active_grant();
    std::optional<RobustnessViolation> out;
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
                if (grant->expired()) return false;  // truncated
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
                    out = make_immunity_witness(tcounts, walker, c, after);
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

std::optional<RobustnessViolation> OrbitSweep::resilience_scan(std::size_t coalition_size,
                                                                std::size_t faulty_size,
                                                                GainCriterion criterion,
                                                                game::SweepMode mode) const {
    const std::size_t m = quotient_.num_classes();
    util::ExecutionGrant* const grant = util::active_grant();
    std::optional<RobustnessViolation> out;
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
            if (should_split(mode, total)) {
                const auto scan_block = [&](std::uint64_t lo, std::uint64_t hi,
                                            const std::atomic<std::uint64_t>& best) {
                    OrbitWalker walker = proto;
                    walker.seek(lo);
                    return scan_resilience_range(ctx, walker, hi, grant, &best);
                };
                out = run_ranked_blocks(total, CoalitionSweep::intra_block_cells(), scan_block);
            } else {
                proto.reset();
                if (auto hit = scan_resilience_range(ctx, proto, total, grant, nullptr)) {
                    out = std::move(hit->violation);
                }
            }
            // Stop at the first hit, or once the grant expired: the
            // driver discards a truncated task.
            return !out && !(grant != nullptr && grant->expired());
        });
    });
    return out;
}

// Phase (a): faulty sizes 1..max_t.
class OrbitSweep::ImmunityTasks final : public SweepTasks {
public:
    ImmunityTasks(const OrbitSweep& sweep, std::size_t max_t)
        : SweepTasks(game::SweepMode::kSerial), sweep_(sweep), max_t_(max_t) {}
    [[nodiscard]] std::size_t size() const override { return max_t_; }
    [[nodiscard]] std::size_t set_size(std::size_t task) const override { return task + 1; }
    [[nodiscard]] std::optional<RobustnessViolation> run(std::size_t task, std::size_t,
                                                         std::size_t) const override {
        return sweep_.immunity_scan(task + 1);
    }

private:
    const OrbitSweep& sweep_;
    std::size_t max_t_;
};

// Phase (b): pairs (sc, st) with sc in 1..max_k and st in 0..max_t, at
// rank (sc - 1) * (max_t + 1) + st. The TASK level runs serially (each
// pair is a whole scan); `mode` gates the split of one pair's scan.
class OrbitSweep::PairTasks final : public SweepTasks {
public:
    PairTasks(const OrbitSweep& sweep, std::size_t max_k, std::size_t max_t,
              GainCriterion criterion, game::SweepMode mode)
        : SweepTasks(game::SweepMode::kSerial),
          sweep_(sweep),
          max_k_(max_k),
          row_(max_t + 1),
          criterion_(criterion),
          scan_mode_(mode) {}
    [[nodiscard]] std::size_t size() const override { return max_k_ * row_; }
    [[nodiscard]] std::size_t set_size(std::size_t task) const override {
        return task / row_ + 1;
    }
    [[nodiscard]] std::optional<RobustnessViolation> run(std::size_t task, std::size_t min_t,
                                                         std::size_t max_t) const override {
        const std::size_t faulty_size = task % row_;
        if (faulty_size < min_t || faulty_size > max_t) return std::nullopt;
        return sweep_.resilience_scan(set_size(task), faulty_size, criterion_, scan_mode_);
    }

private:
    const OrbitSweep& sweep_;
    std::size_t max_k_;
    std::size_t row_;
    GainCriterion criterion_;
    game::SweepMode scan_mode_;
};

std::unique_ptr<SweepTasks> OrbitSweep::immunity_tasks(std::size_t max_t,
                                                       game::SweepMode /*mode*/) const {
    // Orbit immunity spaces are composition-sized: always serial.
    return std::make_unique<ImmunityTasks>(*this, max_t);
}

std::unique_ptr<SweepTasks> OrbitSweep::resilience_tasks(std::size_t max_k, std::size_t max_t,
                                                         GainCriterion criterion,
                                                         game::SweepMode mode) const {
    return std::make_unique<PairTasks>(*this, max_k, max_t, criterion, mode);
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
