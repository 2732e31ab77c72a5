#include "core/robust/orbit_sweep.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <utility>

#include "util/audit.h"
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

}  // namespace

// The quotient indexed by per-class action histograms, built once per
// sweep so that no scan calls QuotientGame::rank_others.
//
// A histogram h of a class with A actions and s members ranks among the
// compositions of s as sum_{i < A-1} count(r_i - h_i - 1, A - i), where
// r_i = s - h_0 - ... - h_{i-1} and a term with h_i == r_i is 0 (the
// hockey-stick sum of composition_rank's per-part blocks): one table
// lookup per part. A class-c member's quotient row is indexed by the
// OTHER players' histograms, class c's short of the member itself, so
// `without` maps the rank of c's full histogram and the member's action
// to the rank of the histogram without it. The payoffs themselves are the
// quotient's store ranks: every compare a scan makes is between two
// payoffs of one class, and ranks order exactly like the Rationals.
class OrbitSweep::Index final {
public:
    explicit Index(const QuotientGame& quotient) : classes_(quotient.num_classes()) {
        const std::size_t m = quotient.num_classes();
        for (std::size_t c = 0; c < m; ++c) {
            Class& cls = classes_[c];
            cls.members = quotient.class_sizes[c];
            cls.actions = quotient.class_actions[c];
            cls.row = quotient.others_orbits(c);
            cls.part.assign((cls.actions - 1) * (cls.members + 1), 0);
            for (std::size_t i = 0; i + 1 < cls.actions; ++i) {
                for (std::size_t gap = 1; gap <= cls.members; ++gap) {
                    cls.part[i * (cls.members + 1) + gap] =
                        util::composition_count(gap - 1, cls.actions - i);
                }
            }
            const std::uint64_t full = util::composition_count(cls.members, cls.actions);
            cls.without.assign(full * cls.actions, 0);
            std::vector<std::size_t> h;
            for (std::uint64_t r = 0; r < full; ++r) {
                util::composition_unrank(cls.members, cls.actions, r, h);
                for (std::size_t a = 0; a < cls.actions; ++a) {
                    if (h[a] == 0) continue;
                    --h[a];
                    cls.without[r * cls.actions + a] =
                        rank_of(cls, cls.members - 1, [&h](std::size_t b) { return h[b]; });
                    ++h[a];
                }
            }
            cls.stride.assign(m, 1);
            for (std::size_t d = m - 1; d-- > 0;) {
                cls.stride[d] = cls.stride[d + 1] *
                                util::composition_count(
                                    quotient.class_sizes[d + 1] - (d + 1 == c ? 1 : 0),
                                    quotient.class_actions[d + 1]);
            }
        }
    }

    [[nodiscard]] std::size_t num_classes() const noexcept { return classes_.size(); }

    // Rank of class d's full histogram (its `members` players), whose
    // count at action a is h(a).
    template <typename Count>
    [[nodiscard]] std::uint64_t rank(std::size_t d, const Count& h) const {
        return rank_of(classes_[d], classes_[d].members, h);
    }

    // Index into quotient.rank[c] of a class-c member playing `action`,
    // given the ranks of every class's full histogram (the member in its
    // own). `others` is offset(c, full) below.
    [[nodiscard]] std::uint64_t at(std::size_t c, std::size_t action, std::uint64_t others,
                                   const std::vector<std::uint64_t>& full) const {
        const Class& cls = classes_[c];
        return action * cls.row + others +
               cls.stride[c] * cls.without[full[c] * cls.actions + action];
    }
    // The part of a class-c member's quotient index that the other classes
    // fix.
    [[nodiscard]] std::uint64_t offset(std::size_t c,
                                       const std::vector<std::uint64_t>& full) const {
        const Class& cls = classes_[c];
        std::uint64_t sum = 0;
        for (std::size_t d = 0; d < full.size(); ++d) {
            if (d != c) sum += cls.stride[d] * full[d];
        }
        return sum;
    }

private:
    struct Class final {
        std::size_t members = 0;
        std::size_t actions = 0;
        std::uint64_t row = 0;                   // quotient entries per action
        std::vector<std::uint64_t> part;         // [i * (members + 1) + gap]
        std::vector<std::uint64_t> without;      // [full rank * actions + action]
        std::vector<std::uint64_t> stride;       // of class d's digit in a row
    };
    // Rank of a histogram of `total` <= cls.members players: the part
    // table's entries depend on the gap r_i - h_i only, not on the total.
    template <typename Count>
    [[nodiscard]] static std::uint64_t rank_of(const Class& cls, std::size_t total,
                                               const Count& h) {
        const std::uint64_t* part = cls.part.data();
        std::size_t rest = total;
        std::uint64_t r = 0;
        for (std::size_t a = 0; a + 1 < cls.actions; ++a, part += cls.members + 1) {
            const std::size_t v = h(a);
            r += part[rest - v];
            rest -= v;
        }
        return r;
    }

    std::vector<Class> classes_;
};

// One (coalition counts, faulty counts) pair's scan for run_scan
// (sweep_driver.h): the joint orbits of a walker with m faulty digits,
// then m coalition digits. `cls` lists the classes with coalition members.
class OrbitSweep::PairScan final {
public:
    PairScan(const OrbitSweep& sweep, GainCriterion criterion)
        : sweep_(sweep), index_(*sweep.index_), ranks_(sweep.quotient_.rank),
          criterion_(criterion) {}

    // Lays the cursor out for a new pair at rank 0.
    void set_counts(const std::vector<std::size_t>& ccounts,
                    const std::vector<std::size_t>& tcounts) {
        const game::QuotientGame& q = sweep_.quotient_;
        const std::size_t m = q.num_classes();
        ccounts_ = ccounts;
        tcounts_ = tcounts;
        cls_.clear();
        for (std::size_t d = 0; d < m; ++d) {
            if (ccounts[d] > 0) cls_.push_back(d);
        }
        cursor.clear();
        cursor.reserve(2 * m);
        for (std::size_t d = 0; d < m; ++d) cursor.add_class(tcounts[d], q.class_actions[d]);
        for (std::size_t d = 0; d < m; ++d) cursor.add_class(ccounts[d], q.class_actions[d]);
        total_ = cursor.num_orbits();
    }

    [[nodiscard]] std::uint64_t total() const noexcept { return total_; }

    // Scans joint orbits [lo, hi) and returns the first hit. Per-class
    // reference payoffs are refreshed only when the faulty digits move
    // (they are the SLOW digits, so refreshes are rare), and a class's
    // histogram is re-ranked only when one of its digits moved. Advances
    // the walker after every cell it checks without a hit, the last cell
    // of the range included, except the scan's final orbit, which has no
    // successor: the blocks of a split scan then count the digit moves of
    // the inline scan. Polls the grant before each cell; `best`, when
    // given, is the block sweep's winning-rank early exit.
    [[nodiscard]] std::optional<RankHit> range(OrbitWalker& walker, std::uint64_t lo,
                                               std::uint64_t hi, ScanTally& tally,
                                               const std::atomic<std::uint64_t>* best) const {
        if (lo != 0) walker.seek(lo);  // a cursor laid out by set_counts sits at 0
        const Index& index = index_;
        const std::vector<std::size_t>& sizes = sweep_.quotient_.class_sizes;
        const std::vector<std::size_t>& base = sweep_.base_;
        const std::size_t m = index.num_classes();
        const std::uint64_t moves_entry = walker.digit_moves();
        // Histogram ranks: the reference profile's (faulty deviation, the
        // coalition on the candidate) and the deviated profile's.
        std::vector<std::uint64_t> ref_full(m);
        std::vector<std::uint64_t> full(m);
        std::vector<std::uint64_t> ref_index(m);
        std::vector<std::uint32_t> ref(m);
        bool fresh = true;
        const auto refresh_ref = [&] {
            for (std::size_t d = 0; d < m; ++d) {
                const auto& fh = walker.counts(d);
                const std::size_t fill = sizes[d] - tcounts_[d];
                ref_full[d] = index.rank(d, [&](std::size_t a) {
                    return fh[a] + (a == base[d] ? fill : 0);
                });
            }
            for (const std::size_t c : cls_) {
                ref_index[c] = index.at(c, base[c], index.offset(c, ref_full), ref_full);
                ref[c] = ranks_[c][ref_index[c]];
            }
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
            const std::size_t moved = fresh ? 0 : walker.lowest_changed();
            if (moved < m) refresh_ref();
            // Deviated profile: faulty histogram + coalition histogram +
            // everyone else on the candidate. Class d's digits are d and
            // m + d, and only digits from `moved` up changed.
            for (std::size_t d = moved > m ? moved - m : 0; d < m; ++d) {
                const auto& fh = walker.counts(d);
                const auto& ch = walker.counts(m + d);
                const std::size_t fill = sizes[d] - tcounts_[d] - ccounts_[d];
                full[d] = index.rank(d, [&](std::size_t a) {
                    return fh[a] + ch[a] + (a == base[d] ? fill : 0);
                });
            }
            fresh = false;
            bool any_gain = false;
            bool all_gain = true;
            std::size_t witness_class = 0;
            std::uint64_t witness_index = 0;
            for (const std::size_t c : cls_) {
                const auto& ch = walker.counts(m + c);
                const std::uint64_t others = index.offset(c, full);
                for (std::size_t a = 0; a < ch.size(); ++a) {
                    if (ch[a] == 0) continue;
                    const std::uint64_t at = index.at(c, a, others, full);
                    audit_index(walker, c, a, at);
                    if (ranks_[c][at] > ref[c]) {
                        if (!any_gain) {
                            witness_class = c;
                            witness_index = at;
                        }
                        any_gain = true;
                    } else {
                        all_gain = false;
                    }
                }
            }
            if (criterion_ == GainCriterion::kAnyMemberGains ? any_gain : all_gain) {
                const game::QuotientGame& q = sweep_.quotient_;
                const std::uint64_t row = q.others_orbits(witness_class);
                hit = RankHit{rank, witness(walker, witness_class, witness_index / row,
                                            q.value(witness_class, ref_index[witness_class]),
                                            q.value(witness_class, witness_index))};
                break;
            }
            if (rank + 1 < total_) (void)walker.advance();
        }
        tally.add(scanned, walker.digit_moves() - moves_entry);
        return hit;
    }

    OrbitWalker cursor;

private:
    // Audit builds: the table index equals QuotientGame::rank_others' on
    // the explicit histograms of the other players.
    void audit_index([[maybe_unused]] const OrbitWalker& walker, [[maybe_unused]] std::size_t c,
                     [[maybe_unused]] std::size_t action,
                     [[maybe_unused]] std::uint64_t at) const {
#if BNASH_AUDIT_ENABLED
        const game::QuotientGame& q = sweep_.quotient_;
        const std::size_t m = q.num_classes();
        std::vector<std::vector<std::size_t>> others(m);
        for (std::size_t d = 0; d < m; ++d) {
            others[d].assign(q.class_actions[d], 0);
            for (std::size_t a = 0; a < q.class_actions[d]; ++a) {
                others[d][a] = walker.counts(d)[a] + walker.counts(m + d)[a];
            }
            others[d][sweep_.base_[d]] += q.class_sizes[d] - tcounts_[d] - ccounts_[d];
        }
        others[c][action] -= 1;
        BNASH_AUDIT_CHECK(at == action * q.others_orbits(c) + q.rank_others(c, others),
                          "OrbitSweep: table index disagrees with rank_others");
#endif
    }

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
        const auto& classes = sweep_.group_.classes();
        const std::size_t m = sweep_.quotient_.num_classes();
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

    const OrbitSweep& sweep_;
    const Index& index_;
    const std::vector<std::vector<std::uint32_t>>& ranks_;  // the quotient's
    GainCriterion criterion_;
    std::vector<std::size_t> ccounts_;
    std::vector<std::size_t> tcounts_;
    std::vector<std::size_t> cls_;
    std::uint64_t total_ = 1;
};

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
    if (quotient_.rank.size() != m || quotient_.levels.size() != m) {
        throw std::invalid_argument("OrbitSweep: quotient has no payoffs");
    }
    for (std::size_t c = 0; c < m; ++c) {
        const std::vector<std::uint32_t>& ranks = quotient_.rank[c];
        if (ranks.size() != quotient_.class_actions[c] * quotient_.others_orbits(c) ||
            std::any_of(ranks.begin(), ranks.end(), [&](std::uint32_t r) {
                return r >= quotient_.levels[c].size();
            })) {
            throw std::invalid_argument("OrbitSweep: quotient ranks do not fit its levels");
        }
    }
    index_ = std::make_shared<const Index>(quotient_);
    // Candidate payoff per class: everyone on base.
    std::vector<std::uint64_t> full(m);
    for (std::size_t d = 0; d < m; ++d) {
        full[d] = index_->rank(d, [&](std::size_t a) {
            return a == base_[d] ? quotient_.class_sizes[d] : 0;
        });
    }
    baseline_.resize(m);
    for (std::size_t c = 0; c < m; ++c) {
        baseline_[c] = index_->at(c, base_[c], index_->offset(c, full), full);
    }
}

RobustnessViolation OrbitSweep::make_immunity_witness(const std::vector<std::size_t>& tcounts,
                                                      const OrbitWalker& walker,
                                                      std::size_t witness_class,
                                                      std::uint64_t after) const {
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
    v.payoff_before = quotient_.value(witness_class, baseline_[witness_class]).to_double();
    v.payoff_after = quotient_.value(witness_class, after).to_double();
    return v;
}

std::optional<RobustnessViolation> OrbitSweep::immunity_scan(std::size_t faulty_size) const {
    const Index& index = *index_;
    const std::size_t m = quotient_.num_classes();
    ScanTally tally;  // one across the faulty compositions
    std::optional<RobustnessViolation> out;
    OrbitWalker walker;
    std::vector<std::uint64_t> full(m);
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
            // The faulty deviation with everyone else on the candidate.
            for (std::size_t d = 0; d < m; ++d) {
                const auto& fh = walker.counts(d);
                const std::size_t fill = quotient_.class_sizes[d] - tcounts[d];
                full[d] = index.rank(d, [&](std::size_t a) {
                    return fh[a] + (a == base_[d] ? fill : 0);
                });
            }
            // Every class with an outsider left checks its candidate
            // payoff against the faulty deviation.
            for (std::size_t c = 0; c < m && !out; ++c) {
                if (tcounts[c] >= quotient_.class_sizes[c]) continue;
                const std::uint64_t after = index.at(c, base_[c], index.offset(c, full), full);
                if (quotient_.rank[c][after] < quotient_.rank[c][baseline_[c]]) {
                    out = make_immunity_witness(tcounts, walker, c, after);
                }
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
                                                                game::SweepMode mode,
                                                                const TaskBound& bound) const {
    const std::size_t m = quotient_.num_classes();
    std::optional<RobustnessViolation> out;
    PairScan scan(*this, criterion);
    std::vector<std::size_t> ccounts;
    std::vector<std::size_t> tcounts;
    std::vector<std::size_t> fcap(m);
    for_each_bounded_composition(coalition_size, quotient_.class_sizes, ccounts, [&] {
        for (std::size_t d = 0; d < m; ++d) fcap[d] = quotient_.class_sizes[d] - ccounts[d];
        return for_each_bounded_composition(faulty_size, fcap, tcounts, [&] {
            // A lower pair task already won: nothing here can be reported.
            if (bound.beaten()) return false;
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
                                                         std::size_t,
                                                         const TaskBound&) const override {
        return sweep_.immunity_scan(task + 1);
    }

private:
    const OrbitSweep& sweep_;
    std::size_t max_t_;
};

// Phase (b): pairs (sc, st) with sc in 1..max_k and st in 0..max_t, at
// rank (sc - 1) * (max_t + 1) + st. `cells` holds each pair's orbit cells
// when the pairs are pooled (see resilience_tasks) and is empty when they
// run in order; `scan_mode` gates the split of one pair's composition
// scans.
class OrbitSweep::PairTasks final : public SweepTasks {
public:
    PairTasks(const OrbitSweep& sweep, std::size_t max_k, std::size_t max_t,
              GainCriterion criterion, game::SweepMode scan_mode,
              std::vector<std::uint64_t> cells)
        : SweepTasks(cells.empty() ? game::SweepMode::kSerial : game::SweepMode::kAuto),
          sweep_(sweep),
          max_k_(max_k),
          row_(max_t + 1),
          criterion_(criterion),
          scan_mode_(scan_mode),
          cells_(std::move(cells)) {}
    [[nodiscard]] std::size_t size() const override { return max_k_ * row_; }
    [[nodiscard]] std::size_t set_size(std::size_t task) const override {
        return task / row_ + 1;
    }
    [[nodiscard]] std::optional<RobustnessViolation> run(std::size_t task, std::size_t min_t,
                                                         std::size_t max_t,
                                                         const TaskBound& bound) const override {
        const std::size_t faulty_size = task % row_;
        if (faulty_size < min_t || faulty_size > max_t) return std::nullopt;
        return sweep_.resilience_scan(set_size(task), faulty_size, criterion_, scan_mode_,
                                      bound);
    }
    // The longest run of pairs from `first` whose cells in the searched
    // faulty sizes stay below kDispatchCells.
    [[nodiscard]] std::size_t inline_prefix(std::size_t first, std::size_t min_t,
                                            std::size_t max_t) const override {
        std::uint64_t cells = 0;
        std::size_t task = first;
        for (; task < cells_.size(); ++task) {
            const std::size_t faulty_size = task % row_;
            if (faulty_size < min_t || faulty_size > max_t) continue;
            cells += cells_[task];
            if (cells >= kDispatchCells) break;
        }
        return task - first;
    }

private:
    const OrbitSweep& sweep_;
    std::size_t max_k_;
    std::size_t row_;
    GainCriterion criterion_;
    game::SweepMode scan_mode_;
    std::vector<std::uint64_t> cells_;
};

std::unique_ptr<SweepTasks> OrbitSweep::immunity_tasks(std::size_t max_t,
                                                       game::SweepMode /*mode*/) const {
    // Orbit immunity spaces are composition-sized: always serial.
    return std::make_unique<ImmunityTasks>(*this, max_t);
}

std::vector<std::uint64_t> OrbitSweep::pair_cells(std::size_t max_k, std::size_t max_t) const {
    // A composition scan with per-class sizes (c_d, t_d) visits the
    // product over classes of C(c_d + A_d - 1, A_d - 1) coalition
    // histograms and C(t_d + A_d - 1, A_d - 1) faulty ones. Convolving
    // the classes one by one gives, per (coalition size, faulty size), the
    // sum of its scans' cells and the largest scan. Every count is capped
    // where split_scan splits one scan.
    static constexpr std::uint64_t kCap = 2 * kIntraBlock;
    const auto times = [](std::uint64_t a, std::uint64_t b) { return std::min(kCap, a * b); };
    struct Cells final {
        std::uint64_t sum = 0;      // 0: no composition reaches this pair
        std::uint64_t largest = 0;  // one scan's cells
    };
    const std::size_t row = max_t + 1;
    std::vector<Cells> acc((max_k + 1) * row);
    std::vector<Cells> next(acc.size());
    acc[0] = {1, 1};
    std::vector<std::uint64_t> orbits;
    for (std::size_t d = 0; d < quotient_.num_classes(); ++d) {
        const std::size_t members = quotient_.class_sizes[d];
        orbits.clear();
        for (std::size_t x = 0; x <= std::min(members, std::max(max_k, max_t)); ++x) {
            orbits.push_back(std::min(kCap, util::composition_count(x, quotient_.class_actions[d])));
        }
        std::fill(next.begin(), next.end(), Cells{});
        for (std::size_t a = 0; a <= max_k; ++a) {
            for (std::size_t b = 0; b <= max_t; ++b) {
                const Cells from = acc[a * row + b];
                if (from.sum == 0) continue;
                for (std::size_t c = 0; c <= members && a + c <= max_k; ++c) {
                    for (std::size_t t = 0; c + t <= members && b + t <= max_t; ++t) {
                        const std::uint64_t scan = times(orbits[c], orbits[t]);
                        Cells& to = next[(a + c) * row + b + t];
                        to.sum = std::min(kCap, to.sum + times(from.sum, scan));
                        to.largest = std::max(to.largest, times(from.largest, scan));
                    }
                }
            }
        }
        acc.swap(next);
    }
    std::vector<std::uint64_t> cells(max_k * row);
    for (std::size_t task = 0; task < cells.size(); ++task) {
        const Cells& pair = acc[row + task];  // coalition size task / row + 1
        if (pair.largest == kCap) return {};
        cells[task] = pair.sum;
    }
    return cells;
}

std::unique_ptr<SweepTasks> OrbitSweep::resilience_tasks(std::size_t max_k, std::size_t max_t,
                                                         GainCriterion criterion,
                                                         game::SweepMode mode) const {
    // kAuto claims the pair tasks on the pool, unless a composition scan
    // of theirs splits (split_scan): a split nested in a pooled task would
    // run inline, so those tasks run in order and their large scans split.
    std::vector<std::uint64_t> cells;
    if (mode == game::SweepMode::kAuto) cells = pair_cells(max_k, max_t);
    return std::make_unique<PairTasks>(*this, max_k, max_t, criterion, mode, std::move(cells));
}

bool orbit_applicable(const SymmetryGroup& group, const game::ExactMixedProfile& profile) {
    if (group.is_trivial()) return false;
    const auto pure = as_pure_profile(profile);
    return pure.has_value() && group.class_constant(*pure);
}

}  // namespace bnash::core
