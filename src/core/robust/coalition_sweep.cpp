#include "core/robust/coalition_sweep.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "util/audit.h"
#include "util/combinatorics.h"
#include "util/execution_grant.h"
#include "util/offset_walker.h"

namespace bnash::core {
namespace {

using game::ExactMixedProfile;
using game::GameView;
using game::PureProfile;
using util::Rational;

// --- pure-candidate range kernels --------------------------------------------
//
// One kernel per question scans ranks [lo, hi) of one faulty set's
// combined odometer — faulty digits, then (resilience) coalition digits:
// the serial nesting order — rebased so that rank 0 is the candidate's
// own row. It advances the walker after every cell it checks without a
// hit, the last cell of a range included, so the blocks of a split scan
// count the digit moves of the inline scan.

// What a range kernel mutates: the walker and the coalition's reference
// ranks. A task builds one and reuses it across its faulty sets, so the
// inline path allocates nothing; a pooled block scans a copy.
struct Cursor final {
    util::OffsetWalker walker;
    std::vector<std::uint32_t> reference;
};

// The players of 0..n-1 in neither `a` nor `b`, ascending.
std::vector<std::size_t> players_outside(std::size_t n, const std::vector<std::size_t>& a,
                                         const std::vector<std::size_t>& b = {}) {
    std::vector<std::size_t> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (std::find(a.begin(), a.end(), i) == a.end() &&
            std::find(b.begin(), b.end(), i) == b.end()) {
            out.push_back(i);
        }
    }
    return out;
}

// Part (a) for one faulty set T: the outsiders' ranks against the
// candidate's under every joint deviation tau_T.
class ImmunityScan final {
public:
    ImmunityScan(const GameView& view, const std::uint32_t* ranks, const PureProfile& candidate,
                 std::uint64_t base_row, const std::vector<std::size_t>& faulty)
        : view_(view), ranks_(ranks), base_row_(base_row), faulty_(faulty), rebase_(base_row) {
        cursor.walker.reserve(faulty.size());
        for (const std::size_t p : faulty) {
            const auto& column = view.cell_offsets(p);
            cursor.walker.add_digit(column.data(), column.size());
            rebase_ -= column[candidate[p]];
            total_ *= column.size();
        }
        outsiders_.reserve(view.num_players() - faulty.size());
        for (const std::size_t i : players_outside(view.num_players(), faulty)) {
            const std::size_t col = view.parent_player(i);
            outsiders_.push_back({i, col, ranks[base_row + col]});
        }
    }

    [[nodiscard]] std::uint64_t total() const noexcept { return total_; }

    [[nodiscard]] std::optional<RankHit> range(Cursor& cursor, std::uint64_t lo, std::uint64_t hi,
                                               ScanTally& tally,
                                               const std::atomic<std::uint64_t>* best) const {
        util::OffsetWalker& walker = cursor.walker;
        walker.seek(lo, rebase_);
        util::ExecutionGrant* const grant = tally.grant;
        const std::uint64_t moves_entry = walker.digit_moves();
        const std::size_t width = outsiders_.size();
        std::size_t hurt = width;  // none yet
        std::uint64_t rank = lo;   // one past the last cell checked
        while (rank < hi) {
            const std::uint64_t cell = rank++;
            for (std::size_t j = 0; j < width; ++j) {
                if (ranks_[walker.row() + outsiders_[j].col] < outsiders_[j].baseline) {
                    hurt = j;
                    break;
                }
            }
            if (hurt < width) break;
            // Truncated: the caller observes the expired grant.
            if (grant != nullptr && tally.expired_at(rank - lo, walker.digit_moves() - moves_entry)) {
                break;
            }
            (void)walker.advance();
            // Ranks above an established winner can never win.
            if (best != nullptr && (cell & 255) == 255 &&
                rank >= best->load(std::memory_order_acquire)) {
                break;
            }
        }
        tally.add(rank - lo, walker.digit_moves() - moves_entry);
        if (hurt == width) return std::nullopt;
        const std::size_t i = outsiders_[hurt].player;
        return RankHit{rank - 1, RobustnessViolation{{}, faulty_, {}, walker.tuple(), i,
                                                     view_.payoff_from(base_row_, i).to_double(),
                                                     view_.payoff_from(walker.row(), i).to_double()}};
    }

    Cursor cursor;

private:
    const GameView& view_;
    const std::uint32_t* ranks_;
    std::uint64_t base_row_;
    const std::vector<std::size_t>& faulty_;
    std::uint64_t rebase_;
    std::uint64_t total_ = 1;
    struct Outsider final {
        std::size_t player;
        std::size_t col;            // its parent player
        std::uint32_t baseline;     // its rank at the candidate
    };
    std::vector<Outsider> outsiders_;
};

// Part (b) for one coalition C: whether C gains by a joint deviation
// tau_C against a faulty deviation tau_T, one faulty set at a time.
class ResilienceScan final {
public:
    ResilienceScan(const GameView& view, const std::uint32_t* ranks, const PureProfile& candidate,
                   std::uint64_t base_row, const std::vector<std::size_t>& coalition,
                   GainCriterion criterion)
        : view_(view),
          ranks_(ranks),
          candidate_(candidate),
          base_row_(base_row),
          coalition_(coalition),
          criterion_(criterion) {
        const std::size_t width = coalition.size();
        cols_.resize(width);
        cursor.reference.resize(width);
        cursor.walker.reserve(view.num_players());
        for (std::size_t idx = 0; idx < width; ++idx) {
            const std::size_t p = coalition[idx];
            const auto& column = view.cell_offsets(p);
            cols_[idx] = view.parent_player(p);
            coalition_cells_ *= column.size();
            coalition_rebase_ -= column[candidate[p]];
            coalition_zero_delta_ += column[0] - column[candidate[p]];
        }
    }

    // Lays the walker out for `faulty` (disjoint from the coalition; kept
    // alive by the caller while its scan runs): its digits, then the
    // coalition's.
    void set_faulty(const std::vector<std::size_t>& faulty) {
        faulty_ = &faulty;
        const std::size_t fw = faulty.size();
        util::OffsetWalker& walker = cursor.walker;
        if (walker.num_digits() != fw + coalition_.size()) {
            // A new faulty size (sets come size-major): fw leading digits,
            // set below, then the coalition's.
            walker.clear();
            for (const std::size_t p : faulty) {
                const auto& column = view_.cell_offsets(p);
                walker.add_digit(column.data(), column.size());
            }
            for (const std::size_t p : coalition_) {
                const auto& column = view_.cell_offsets(p);
                walker.add_digit(column.data(), column.size());
            }
        }
        rebase_ = base_row_ + coalition_rebase_;
        total_ = coalition_cells_;
        for (std::size_t d = 0; d < fw; ++d) {
            const auto& column = view_.cell_offsets(faulty[d]);
            walker.set_digit(d, column.data(), column.size());
            rebase_ -= column[candidate_[faulty[d]]];
            total_ *= column.size();
        }
    }

    [[nodiscard]] std::uint64_t total() const noexcept { return total_; }

    [[nodiscard]] std::optional<RankHit> range(Cursor& cursor, std::uint64_t lo, std::uint64_t hi,
                                               ScanTally& tally,
                                               const std::atomic<std::uint64_t>* best) const {
        const std::vector<std::size_t>& faulty = *faulty_;
        const std::size_t fw = faulty.size();
        const std::size_t width = coalition_.size();
        util::OffsetWalker& walker = cursor.walker;
        std::vector<std::uint32_t>& reference = cursor.reference;
        walker.seek(lo, rebase_);
        const auto& tuple = walker.tuple();
        // Reference row for the entry faulty tuple: the coalition back on
        // its candidate actions. Rank 0 has every coalition digit at zero.
        std::uint64_t ref_row = walker.row() - coalition_zero_delta_;
        for (std::size_t idx = 0; lo != 0 && idx < width; ++idx) {
            const auto& column = view_.cell_offsets(coalition_[idx]);
            ref_row -= column[tuple[fw + idx]] - column[0];
        }
        for (std::size_t idx = 0; idx < width; ++idx) reference[idx] = ranks_[ref_row + cols_[idx]];
        util::ExecutionGrant* const grant = tally.grant;
        const std::uint64_t moves_entry = walker.digit_moves();
        std::size_t gainer = width;  // none yet
        std::uint64_t rank = lo;     // one past the last cell checked
        while (rank < hi) {
            const std::uint64_t cell = rank++;
            bool any_gain = false;
            bool all_gain = true;
            std::size_t first = 0;
            for (std::size_t idx = 0; idx < width; ++idx) {
                if (ranks_[walker.row() + cols_[idx]] > reference[idx]) {
                    if (!any_gain) first = idx;
                    any_gain = true;
                } else {
                    all_gain = false;
                }
            }
            const bool violated = criterion_ == GainCriterion::kAnyMemberGains
                                      ? any_gain
                                      : (all_gain && width != 0);
            if (violated) {
                gainer = first;
                break;
            }
            // Truncated: the caller observes the expired grant.
            if (grant != nullptr && tally.expired_at(rank - lo, walker.digit_moves() - moves_entry)) {
                break;
            }
            (void)walker.advance();
            if (walker.lowest_changed() < fw) {
                // Carry into the faulty digits: the coalition digits are
                // back at zero, so the reference row is one constant away.
                ref_row = walker.row() - coalition_zero_delta_;
                for (std::size_t idx = 0; idx < width; ++idx) {
                    reference[idx] = ranks_[ref_row + cols_[idx]];
                }
            }
            // Ranks above an established winner can never win.
            if (best != nullptr && (cell & 255) == 255 &&
                rank >= best->load(std::memory_order_acquire)) {
                break;
            }
        }
        tally.add(rank - lo, walker.digit_moves() - moves_entry);
        if (gainer == width) return std::nullopt;
        const std::size_t player = coalition_[gainer];
        return RankHit{
            rank - 1,
            RobustnessViolation{
                coalition_, faulty,
                PureProfile(tuple.begin() + static_cast<std::ptrdiff_t>(fw), tuple.end()),
                PureProfile(tuple.begin(), tuple.begin() + static_cast<std::ptrdiff_t>(fw)),
                player, view_.payoff_from(ref_row, player).to_double(),
                view_.payoff_from(walker.row(), player).to_double()}};
    }

    Cursor cursor;

private:
    const GameView& view_;
    const std::uint32_t* ranks_;
    const PureProfile& candidate_;
    std::uint64_t base_row_;
    const std::vector<std::size_t>& coalition_;
    GainCriterion criterion_;
    std::vector<std::size_t> cols_;  // coalition members' parent players
    std::uint64_t coalition_cells_ = 1;
    std::uint64_t coalition_rebase_ = 0;
    // With the coalition digits at zero, the reference row is the walker
    // row minus this.
    std::uint64_t coalition_zero_delta_ = 0;
    const std::vector<std::size_t>* faulty_ = nullptr;
    std::uint64_t rebase_ = 0;
    std::uint64_t total_ = 1;
};

// --- the support walk (mixed candidates) ------------------------------------
//
// One walk serves every mixed-candidate question. Its digits are the
// DEVIATORS' full action ranges (in the serial enumeration order), then
// the WEIGHTED players' support actions. The cells of one joint deviation
// are then a contiguous row-major run: a cell's weight — the weighted
// players' joint probability — is a prefix product recomputed from the
// walker's lowest changed digit only, and sums[j] accumulates
// weight * u_{targets[j]}. When the walk carries out of the support
// digits, done(group, deviation, sums) judges the group-th joint
// deviation (`deviation` holds the deviators' actions) and returns true
// to stop the walk. Exact arithmetic makes every sum — hence every
// verdict and witness — that of one expected-payoff sweep per deviation.
// Polls the grant through `tally` and books its cells and digit moves
// there. Returns true when the walk ran to its end.
template <typename Done>
bool support_walk(const GameView& view, const ExactMixedProfile& profile,
                  const game::SupportPlan& plan, const std::vector<std::size_t>& deviators,
                  const std::vector<std::size_t>& weighted,
                  const std::vector<std::size_t>& targets, ScanTally& tally, const Done& done) {
    const std::size_t dw = deviators.size();
    const std::size_t ww = weighted.size();
    util::OffsetWalker walker;
    walker.reserve(dw + ww);
    for (const std::size_t p : deviators) {
        const auto& column = view.cell_offsets(p);
        walker.add_digit(column.data(), column.size());
    }
    for (const std::size_t p : weighted) {
        walker.add_digit(plan.offsets[p].data(), plan.offsets[p].size());
    }
    walker.reset();
    const auto& tuple = walker.tuple();
    const auto probability = [&](std::size_t j) -> const Rational& {
        const std::size_t p = weighted[j];
        return profile[p][plan.actions[p][tuple[dw + j]]];
    };
    std::vector<Rational> prefix(ww + 1, Rational{1});
    std::vector<Rational> sums(targets.size(), Rational{0});
    PureProfile deviation(dw, 0);
    std::uint64_t group = 0;
    std::uint64_t cells = 0;
    std::size_t from = 0;
    bool finished = false;
    for (;;) {
        ++cells;
        if (tally.grant != nullptr && tally.expired_at(cells, walker.digit_moves())) {
            break;  // truncated: the caller observes the expired grant
        }
        for (std::size_t j = from; j < ww; ++j) prefix[j + 1] = prefix[j] * probability(j);
        const Rational& weight = prefix[ww];
#if BNASH_AUDIT_ENABLED
        Rational full{1};
        for (std::size_t j = 0; j < ww; ++j) full = full * probability(j);
        BNASH_AUDIT_CHECK(full == weight,
                          "support_walk: incremental weight prefix drifted from a "
                          "from-scratch product");
#endif
        for (std::size_t j = 0; j < targets.size(); ++j) {
            sums[j] += weight * view.payoff_from(walker.row(), targets[j]);
        }
        const bool more = walker.advance();
        if (more && walker.lowest_changed() >= dw) {
            from = walker.lowest_changed() - dw;
            continue;
        }
        if (done(group, deviation, sums)) break;
        if (!more) {
            finished = true;
            break;
        }
        ++group;
        std::copy_n(tuple.begin(), dw, deviation.begin());
        std::fill(sums.begin(), sums.end(), Rational{0});
        from = 0;
    }
    tally.add(cells, walker.digit_moves());
    return finished;
}

}  // namespace

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

std::optional<RobustnessViolation> CoalitionSweep::sparse_resilience_scan(
    const std::vector<std::size_t>& coalition, const std::vector<std::size_t>& faulty,
    GainCriterion criterion) const {
    const std::size_t n = view_.num_players();
    const std::size_t width = coalition.size();
    const std::size_t fw = faulty.size();
    std::uint64_t faulty_tuples = 1;
    for (const std::size_t p : faulty) faulty_tuples *= view_.num_actions(p);
    std::uint64_t coalition_tuples = 1;
    for (const std::size_t p : coalition) coalition_tuples *= view_.num_actions(p);
    // One tally spans both phases.
    ScanTally tally;
    std::optional<RobustnessViolation> found;

    // Phase A — references: u_i(sigma_C, tau_T, sigma_-T) for every
    // coalition member i and every tau_T.
    std::vector<Rational> ref(static_cast<std::size_t>(faulty_tuples) * width);
    const bool referenced = support_walk(
        view_, *profile_, *support_, faulty, players_outside(n, faulty), coalition, tally,
        [&](std::uint64_t group, const PureProfile&, std::vector<Rational>& sums) {
            std::move(sums.begin(), sums.end(),
                      ref.begin() + static_cast<std::ptrdiff_t>(group * width));
            return false;
        });

    // Phase B — joint deviations (tau_T, tau_C) in the serial enumeration
    // order, each judged against its tau_T's references.
    if (referenced) {
        std::vector<std::size_t> deviators = faulty;
        deviators.insert(deviators.end(), coalition.begin(), coalition.end());
        (void)support_walk(
            view_, *profile_, *support_, deviators, players_outside(n, faulty, coalition),
            coalition, tally,
            [&](std::uint64_t group, const PureProfile& tau, std::vector<Rational>& sums) {
                const Rational* base = &ref[(group / coalition_tuples) * width];
                std::size_t first = width;  // first gainer
                bool all_gain = true;
                for (std::size_t idx = 0; idx < width; ++idx) {
                    if (sums[idx] > base[idx]) {
                        if (first == width) first = idx;
                    } else {
                        all_gain = false;
                    }
                }
                const bool violated = criterion == GainCriterion::kAnyMemberGains
                                          ? first < width
                                          : (all_gain && width != 0);
                if (!violated) return false;
                const auto split = tau.begin() + static_cast<std::ptrdiff_t>(fw);
                found = RobustnessViolation{coalition,
                                            faulty,
                                            PureProfile(split, tau.end()),
                                            PureProfile(tau.begin(), split),
                                            coalition[first],
                                            base[first].to_double(),
                                            sums[first].to_double()};
                return true;
            });
    }
    tally.flush();
    return found;
}

std::optional<RobustnessViolation> CoalitionSweep::immunity_task(
    const std::vector<std::size_t>& faulty, const std::vector<Rational>& baseline,
    game::SweepMode mode) const {
    ScanTally tally;  // one per task
    std::optional<RobustnessViolation> found;
    if (pure_) {
        ImmunityScan scan(view_, ranks_, *pure_, base_row_, faulty);
        found = run_scan(scan, mode, tally);
    } else {
        // The outsiders' expected payoffs under each tau_T, checked in
        // player order (the reference checker's order).
        const std::vector<std::size_t> outsiders = players_outside(view_.num_players(), faulty);
        (void)support_walk(
            view_, *profile_, *support_, faulty, outsiders, outsiders, tally,
            [&](std::uint64_t, const PureProfile& tau, std::vector<Rational>& sums) {
                for (std::size_t j = 0; j < outsiders.size(); ++j) {
                    const std::size_t i = outsiders[j];
                    if (!(sums[j] < baseline[i])) continue;
                    found = RobustnessViolation{{}, faulty, {}, tau, i, baseline[i].to_double(),
                                                sums[j].to_double()};
                    return true;
                }
                return false;
            });
    }
    tally.flush();
    return found;
}

std::optional<RobustnessViolation> CoalitionSweep::resilience_task(
    const std::vector<std::size_t>& coalition, std::size_t min_t, std::size_t max_t,
    GainCriterion criterion, game::SweepMode mode, const TaskBound& bound) const {
    const std::vector<std::size_t> others = players_outside(view_.num_players(), coalition);
    // A pure candidate runs its range kernel over each faulty set, with
    // one scan state for the whole task; a mixed one runs a fused
    // support-sparse scan per faulty set.
    std::optional<ResilienceScan> pure_scan;
    if (pure_) pure_scan.emplace(view_, ranks_, *pure_, base_row_, coalition, criterion);
    ScanTally tally;
    const auto scan = [&](const std::vector<std::size_t>& faulty) {
        if (!pure_scan) return sparse_resilience_scan(coalition, faulty, criterion);
        pure_scan->set_faulty(faulty);
        return run_scan(*pure_scan, mode, tally);
    };
    // The empty faulty set first, then every disjoint T with
    // min_t <= |T| <= max_t — the reference checker's order.
    std::vector<std::size_t> faulty;
    std::optional<RobustnessViolation> found;
    if (min_t == 0) found = scan(faulty);
    if (!found && max_t > 0) {
        const util::SubsetEnumerator enumerator(others.size(), max_t);
        for (const auto& index_set : enumerator) {
            if (index_set.size() < min_t) continue;
            // Truncated between faulty sets: the caller observes the
            // expired grant, or a lower task already won.
            if (tally.grant != nullptr && tally.grant->expired()) break;
            if (bound.beaten()) break;
            faulty.clear();
            for (const std::size_t idx : index_set) faulty.push_back(others[idx]);
            found = scan(faulty);
            if (found) break;
        }
    }
    tally.flush();
    return found;
}

std::vector<Rational> CoalitionSweep::immunity_baseline() const {
    // Pure candidates compare ranks against the candidate row instead.
    if (pure_) return {};
    // One shared support sweep for ALL players (the per-player fallback
    // ran n of them).
    return game::expected_payoffs_exact(view_, *profile_);
}

// Phase (a): the faulty sets of sizes 1..max_t, size-major.
class CoalitionSweep::ImmunityTasks final : public SweepTasks {
public:
    ImmunityTasks(const CoalitionSweep& sweep, util::SubsetEnumerator faulty_sets,
                  game::SweepMode mode)
        : SweepTasks(mode),
          sweep_(sweep),
          baseline_(sweep.immunity_baseline()),
          faulty_sets_(std::move(faulty_sets)) {}
    [[nodiscard]] std::size_t size() const override { return faulty_sets_.size(); }
    [[nodiscard]] std::size_t set_size(std::size_t task) const override {
        return faulty_sets_[task].size();
    }
    [[nodiscard]] std::optional<RobustnessViolation> run(std::size_t task, std::size_t,
                                                         std::size_t,
                                                         const TaskBound&) const override {
        return sweep_.immunity_task(faulty_sets_[task], baseline_, mode());
    }

private:
    const CoalitionSweep& sweep_;
    std::vector<Rational> baseline_;
    util::SubsetEnumerator faulty_sets_;
};

// Phase (b): the coalitions of sizes 1..max_k, size-major.
class CoalitionSweep::ResilienceTasks final : public SweepTasks {
public:
    ResilienceTasks(const CoalitionSweep& sweep, std::size_t max_k, GainCriterion criterion,
                    game::SweepMode mode)
        : SweepTasks(mode),
          sweep_(sweep),
          coalitions_(sweep.view_.num_players(), max_k),
          criterion_(criterion) {}
    [[nodiscard]] std::size_t size() const override { return coalitions_.size(); }
    [[nodiscard]] std::size_t set_size(std::size_t task) const override {
        return coalitions_[task].size();
    }
    [[nodiscard]] std::optional<RobustnessViolation> run(std::size_t task, std::size_t min_t,
                                                         std::size_t max_t,
                                                         const TaskBound& bound) const override {
        return sweep_.resilience_task(coalitions_[task], min_t, max_t, criterion_, mode(),
                                      bound);
    }

private:
    const CoalitionSweep& sweep_;
    util::SubsetEnumerator coalitions_;
    GainCriterion criterion_;
};

std::unique_ptr<SweepTasks> CoalitionSweep::immunity_tasks(std::size_t max_t,
                                                           game::SweepMode mode) const {
    util::SubsetEnumerator faulty_sets(view_.num_players(), max_t);
    // A pure candidate's immunity phase scans one cell per joint deviation
    // of each faulty set. When all of them together would not make one
    // split scan (split_scan), pooling the tasks costs more than it saves,
    // so they run inline.
    if (pure_) {
        constexpr std::uint64_t kCap = 2 * kIntraBlock;
        std::uint64_t cells = 0;
        for (const std::vector<std::size_t>& faulty : faulty_sets) {
            std::uint64_t deviations = 1;
            for (const std::size_t p : faulty) {
                deviations = std::min(deviations * view_.num_actions(p), kCap);
            }
            cells += deviations;
            if (cells >= kCap) break;
        }
        if (!split_scan(mode, cells)) mode = game::SweepMode::kSerial;
    }
    return std::make_unique<ImmunityTasks>(*this, std::move(faulty_sets), mode);
}

std::unique_ptr<SweepTasks> CoalitionSweep::resilience_tasks(std::size_t max_k,
                                                             std::size_t /*max_t*/,
                                                             GainCriterion criterion,
                                                             game::SweepMode mode) const {
    return std::make_unique<ResilienceTasks>(*this, max_k, criterion, mode);
}

}  // namespace bnash::core
