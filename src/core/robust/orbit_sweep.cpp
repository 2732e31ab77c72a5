#include "core/robust/orbit_sweep.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <utility>

#include "util/execution_grant.h"
#include "util/orbit_walker.h"

namespace bnash::core {
namespace {

using game::QuotientGame;
using game::SymmetryGroup;
using util::OrbitWalker;
using util::Rational;

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

// One (coalition counts, faulty counts) pair's scan for run_scan
// (sweep_driver.h): the joint orbits of a walker with m faulty digits,
// then m coalition digits. `cls` lists the classes with coalition members.
class PairScan final {
public:
    PairScan(const QuotientGame& quotient, const SymmetryGroup& group,
             const std::vector<std::size_t>& base, GainCriterion criterion)
        : q_(quotient), group_(group), base_(base), criterion_(criterion) {}

    // Lays the cursor out for a new pair at rank 0.
    void set_counts(const std::vector<std::size_t>& ccounts,
                    const std::vector<std::size_t>& tcounts) {
        const std::size_t m = q_.num_classes();
        ccounts_ = ccounts;
        tcounts_ = tcounts;
        cls_.clear();
        for (std::size_t d = 0; d < m; ++d) {
            if (ccounts[d] > 0) cls_.push_back(d);
        }
        cursor.clear();
        cursor.reserve(2 * m);
        for (std::size_t d = 0; d < m; ++d) cursor.add_class(tcounts[d], q_.class_actions[d]);
        for (std::size_t d = 0; d < m; ++d) cursor.add_class(ccounts[d], q_.class_actions[d]);
        total_ = cursor.num_orbits();
    }

    [[nodiscard]] std::uint64_t total() const noexcept { return total_; }

    // Scans joint orbits [lo, hi) and returns the first hit. Per-class
    // reference payoffs are refreshed only when the faulty digits move
    // (they are the SLOW digits, so refreshes are rare). Advances the
    // walker after every cell it checks without a hit, the last cell of
    // the range included, except the scan's final orbit, which has no
    // successor: the blocks of a split scan then count the digit moves of
    // the inline scan. Polls the grant before each cell; `best`, when
    // given, is the block sweep's winning-rank early exit.
    [[nodiscard]] std::optional<RankHit> range(OrbitWalker& walker, std::uint64_t lo,
                                               std::uint64_t hi, ScanTally& tally,
                                               const std::atomic<std::uint64_t>* best) const {
        if (lo != 0) walker.seek(lo);  // a cursor laid out by set_counts sits at 0
        const std::vector<std::size_t>& base = base_;
        const std::size_t m = q_.num_classes();
        const std::uint64_t moves_entry = walker.digit_moves();
        std::vector<std::vector<std::size_t>> others(m);
        for (std::size_t d = 0; d < m; ++d) others[d].assign(q_.class_actions[d], 0);
        std::vector<Rational> ref(m);
        bool ref_valid = false;
        // Reference payoff of a class-c coalition member when the whole
        // coalition still plays the candidate against the same faulty
        // deviation: others = fh_d + (n_d - t_d) at base_d, minus itself.
        const auto refresh_ref = [&] {
            for (const std::size_t c : cls_) {
                for (std::size_t d = 0; d < m; ++d) {
                    const auto& fh = walker.counts(d);
                    auto& h = others[d];
                    for (std::size_t a = 0; a < h.size(); ++a) h[a] = fh[a];
                    h[base[d]] += q_.class_sizes[d] - tcounts_[d];
                }
                others[c][base[c]] -= 1;
                ref[c] = q_.at(c, base[c], q_.rank_others(c, others));
            }
            ref_valid = true;
        };

        std::optional<RankHit> hit;
        std::uint64_t scanned = 0;
        for (std::uint64_t rank = lo; rank < hi; ++rank) {
            ++scanned;
            // Truncated: the caller observes the expired grant.
            if (tally.grant != nullptr &&
                tally.expired_at(scanned, walker.digit_moves() - moves_entry)) {
                break;
            }
            // A lower rank already won: yield.
            if (best != nullptr && (scanned & 255) == 0 &&
                rank >= best->load(std::memory_order_acquire)) {
                break;
            }
            if (!ref_valid || walker.lowest_changed() < m) refresh_ref();
            // Deviated-profile template: faulty histogram + coalition
            // histogram + everyone else on the candidate.
            for (std::size_t d = 0; d < m; ++d) {
                const auto& fh = walker.counts(d);
                const auto& ch = walker.counts(m + d);
                auto& h = others[d];
                for (std::size_t a = 0; a < h.size(); ++a) h[a] = fh[a] + ch[a];
                h[base[d]] += q_.class_sizes[d] - tcounts_[d] - ccounts_[d];
            }
            bool any_gain = false;
            bool all_gain = true;
            std::size_t witness_class = 0;
            std::size_t witness_action = 0;
            Rational witness_after;
            for (const std::size_t c : cls_) {
                const auto& ch = walker.counts(m + c);
                for (std::size_t a = 0; a < ch.size(); ++a) {
                    if (ch[a] == 0) continue;
                    others[c][a] -= 1;
                    const Rational& after = q_.at(c, a, q_.rank_others(c, others));
                    others[c][a] += 1;
                    if (after > ref[c]) {
                        if (!any_gain) {
                            witness_class = c;
                            witness_action = a;
                            witness_after = after;
                        }
                        any_gain = true;
                    } else {
                        all_gain = false;
                    }
                }
            }
            if (criterion_ == GainCriterion::kAnyMemberGains ? any_gain : all_gain) {
                hit = RankHit{rank, witness(walker, witness_class, witness_action,
                                            ref[witness_class], witness_after)};
                break;
            }
            if (rank + 1 < total_) (void)walker.advance();
        }
        tally.add(scanned, walker.digit_moves() - moves_entry);
        return hit;
    }

    OrbitWalker cursor;

private:
    // Expands a representative tuple back to a CONCRETE violation: per
    // class, the first t_c members are faulty and the next c_c form the
    // coalition, each block taking its histogram's actions in ascending
    // order. The payoffs at this concrete tuple equal the
    // representative's by symmetry, so the dense checker validates the
    // witness as-is.
    [[nodiscard]] RobustnessViolation witness(const OrbitWalker& walker,
                                              std::size_t witness_class,
                                              std::size_t witness_action, const Rational& before,
                                              const Rational& after) const {
        const auto& classes = group_.classes();
        const std::size_t m = q_.num_classes();
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
        // The coalition member of witness_class assigned witness_action:
        // its class block starts after the faulty members, actions
        // ascending.
        std::size_t offset = tcounts_[witness_class];
        const auto& ch = walker.counts(m + witness_class);
        for (std::size_t a = 0; a < witness_action; ++a) offset += ch[a];
        v.witness_player = classes[witness_class][offset];
        v.payoff_before = before.to_double();
        v.payoff_after = after.to_double();
        return v;
    }

    const QuotientGame& q_;
    const SymmetryGroup& group_;
    const std::vector<std::size_t>& base_;
    GainCriterion criterion_;
    std::vector<std::size_t> ccounts_;
    std::vector<std::size_t> tcounts_;
    std::vector<std::size_t> cls_;
    std::uint64_t total_ = 1;
};

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
    ScanTally tally;  // one across the faulty compositions
    std::optional<RobustnessViolation> out;
    OrbitWalker walker;
    std::vector<std::vector<std::size_t>> others(m);
    for (std::size_t d = 0; d < m; ++d) others[d].assign(quotient_.class_actions[d], 0);
    std::vector<std::size_t> tcounts;
    for_each_bounded_composition(faulty_size, quotient_.class_sizes, tcounts, [&] {
        walker.clear();
        walker.reserve(m);
        for (std::size_t d = 0; d < m; ++d) {
            walker.add_class(tcounts[d], quotient_.class_actions[d]);
        }
        std::uint64_t scanned = 0;
        bool walking = true;
        while (walking) {
            ++scanned;
            // Truncated: the caller observes the expired grant.
            if (tally.grant != nullptr && tally.expired_at(scanned, walker.digit_moves())) break;
            // Every class with an outsider left checks its candidate
            // payoff against the faulty deviation.
            for (std::size_t c = 0; c < m && !out; ++c) {
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
                if (after < baseline_[c]) out = make_immunity_witness(tcounts, walker, c, after);
            }
            walking = !out && walker.advance();
        }
        tally.add(scanned, walker.digit_moves());
        return !walking && !out;
    });
    tally.flush();
    return out;
}

std::optional<RobustnessViolation> OrbitSweep::resilience_scan(std::size_t coalition_size,
                                                                std::size_t faulty_size,
                                                                GainCriterion criterion,
                                                                game::SweepMode mode) const {
    const std::size_t m = quotient_.num_classes();
    std::optional<RobustnessViolation> out;
    PairScan scan(quotient_, group_, base_, criterion);
    std::vector<std::size_t> ccounts;
    std::vector<std::size_t> tcounts;
    std::vector<std::size_t> fcap(m);
    for_each_bounded_composition(coalition_size, quotient_.class_sizes, ccounts, [&] {
        for (std::size_t d = 0; d < m; ++d) fcap[d] = quotient_.class_sizes[d] - ccounts[d];
        return for_each_bounded_composition(faulty_size, fcap, tcounts, [&] {
            scan.set_counts(ccounts, tcounts);
            ScanTally tally;  // one per composition scan
            out = run_scan(scan, mode, tally);
            tally.flush();
            // Stop at the first hit, or once the grant expired: the
            // driver discards a truncated task.
            return !out && !(tally.grant != nullptr && tally.grant->expired());
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

bool orbit_applicable(const SymmetryGroup& group, const game::ExactMixedProfile& profile) {
    if (group.is_trivial()) return false;
    const auto pure = as_pure_profile(profile);
    return pure.has_value() && group.class_constant(*pure);
}

}  // namespace bnash::core
