#include "core/robust/robustness.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <sstream>
#include <stdexcept>

#include "core/robust/coalition_sweep.h"
#include "game/game_view.h"
#include "game/payoff_engine.h"
#include "util/combinatorics.h"
#include "util/thread_pool.h"

namespace bnash::core {
namespace {

using game::ExactMixedProfile;
using game::NormalFormGame;
using game::PureProfile;
using util::Rational;

// Evaluation context: computes u_i when players in `who` play `actions`
// and everyone else follows the candidate profile. In the pure case a
// coalition deviation is an O(|who|) stride delta from the candidate's
// precomputed rank — no PureProfile rebuild, no full re-rank per joint
// action. Used by the reference checkers and the punishment search; the
// production robustness checkers run on CoalitionSweep instead.
class Evaluator final {
public:
    Evaluator(const NormalFormGame& game, const ExactMixedProfile& profile)
        : game_(game), engine_(game), profile_(profile), pure_(as_pure_profile(profile)) {
        if (pure_) base_rank_ = engine_.rank_of(*pure_);
    }

    [[nodiscard]] Rational utility(const std::vector<std::size_t>& who,
                                   const PureProfile& actions, std::size_t player) const {
        if (pure_) {
            const auto& strides = engine_.strides();
            std::uint64_t rank = base_rank_;
            for (std::size_t idx = 0; idx < who.size(); ++idx) {
                // Unsigned wrap-around is fine: the final rank is in range.
                rank += actions[idx] * strides[who[idx]];
                rank -= (*pure_)[who[idx]] * strides[who[idx]];
            }
            return game_.payoff_at(rank, player);
        }
        ExactMixedProfile deviated = profile_;
        for (std::size_t idx = 0; idx < who.size(); ++idx) {
            game::ExactMixedStrategy point(game_.num_actions(who[idx]), Rational{0});
            point[actions[idx]] = Rational{1};
            deviated[who[idx]] = std::move(point);
        }
        return engine_.expected_payoff_exact(deviated, player);
    }

    [[nodiscard]] Rational baseline(std::size_t player) const {
        return utility({}, {}, player);
    }

private:
    const NormalFormGame& game_;
    game::PayoffEngine engine_;
    const ExactMixedProfile& profile_;
    std::optional<PureProfile> pure_;
    std::uint64_t base_rank_ = 0;
};

std::vector<std::size_t> action_space(const NormalFormGame& game,
                                      const std::vector<std::size_t>& players) {
    std::vector<std::size_t> out;
    out.reserve(players.size());
    for (const std::size_t p : players) out.push_back(game.num_actions(p));
    return out;
}

void validate_profile(const NormalFormGame& game, const ExactMixedProfile& profile) {
    if (profile.size() != game.num_players()) {
        throw std::invalid_argument("robustness: profile width mismatch");
    }
    for (std::size_t i = 0; i < profile.size(); ++i) {
        if (profile[i].size() != game.num_actions(i) ||
            !game::is_exact_distribution(profile[i])) {
            throw std::invalid_argument("robustness: invalid strategy for player " +
                                        std::to_string(i));
        }
    }
}

// View candidates live in VIEW action space.
void validate_profile(const game::GameView& view, const ExactMixedProfile& profile) {
    if (profile.size() != view.num_players()) {
        throw std::invalid_argument("robustness: profile width mismatch");
    }
    for (std::size_t i = 0; i < profile.size(); ++i) {
        if (profile[i].size() != view.num_actions(i) ||
            !game::is_exact_distribution(profile[i])) {
            throw std::invalid_argument("robustness: invalid strategy for player " +
                                        std::to_string(i));
        }
    }
}

}  // namespace

std::string RobustnessViolation::to_string() const {
    std::ostringstream os;
    os << "coalition {";
    for (std::size_t i = 0; i < coalition.size(); ++i) {
        os << (i ? "," : "") << coalition[i];
    }
    os << "} faulty {";
    for (std::size_t i = 0; i < faulty.size(); ++i) os << (i ? "," : "") << faulty[i];
    os << "}: player " << witness_player << " payoff " << payoff_before << " -> "
       << payoff_after;
    return os.str();
}

std::optional<PureProfile> as_pure_profile(const ExactMixedProfile& profile) {
    // A second unit mass rejects the strategy (it is not a distribution)
    // rather than silently shadowing the first.
    PureProfile out(profile.size(), 0);
    for (std::size_t i = 0; i < profile.size(); ++i) {
        bool found = false;
        for (std::size_t a = 0; a < profile[i].size(); ++a) {
            if (profile[i][a].is_zero()) continue;
            if (found || profile[i][a] != Rational{1}) return std::nullopt;
            out[i] = a;
            found = true;
        }
        if (!found) return std::nullopt;
    }
    return out;
}

std::optional<RobustnessViolation> find_resilience_violation(
    const NormalFormGame& game, const ExactMixedProfile& profile, std::size_t k,
    const RobustnessOptions& options) {
    return find_robustness_violation(game, profile, k, 0, options);
}

std::optional<RobustnessViolation> find_immunity_violation(const NormalFormGame& game,
                                                           const ExactMixedProfile& profile,
                                                           std::size_t t) {
    validate_profile(game, profile);
    return CoalitionSweep(game, profile).immunity_violation(t);
}

std::optional<RobustnessViolation> find_robustness_violation(const NormalFormGame& game,
                                                             const ExactMixedProfile& profile,
                                                             std::size_t k, std::size_t t,
                                                             const RobustnessOptions& options) {
    validate_profile(game, profile);
    return CoalitionSweep(game, profile).robustness_violation(k, t, options);
}

// --- view-native checkers ---------------------------------------------------

std::optional<RobustnessViolation> find_resilience_violation(
    const game::GameView& view, const ExactMixedProfile& profile, std::size_t k,
    const RobustnessOptions& options) {
    return find_robustness_violation(view, profile, k, 0, options);
}

std::optional<RobustnessViolation> find_immunity_violation(const game::GameView& view,
                                                           const ExactMixedProfile& profile,
                                                           std::size_t t) {
    validate_profile(view, profile);
    return CoalitionSweep(view, profile).immunity_violation(t);
}

std::optional<RobustnessViolation> find_robustness_violation(const game::GameView& view,
                                                             const ExactMixedProfile& profile,
                                                             std::size_t k, std::size_t t,
                                                             const RobustnessOptions& options) {
    validate_profile(view, profile);
    return CoalitionSweep(view, profile).robustness_violation(k, t, options);
}

bool is_k_resilient(const game::GameView& view, const ExactMixedProfile& profile,
                    std::size_t k, const RobustnessOptions& options) {
    return !find_resilience_violation(view, profile, k, options).has_value();
}

bool is_t_immune(const game::GameView& view, const ExactMixedProfile& profile,
                 std::size_t t) {
    return !find_immunity_violation(view, profile, t).has_value();
}

bool is_kt_robust(const game::GameView& view, const ExactMixedProfile& profile, std::size_t k,
                  std::size_t t, const RobustnessOptions& options) {
    return !find_robustness_violation(view, profile, k, t, options).has_value();
}

// --- shared-sweep batch probes ----------------------------------------------

BatchVerdict batch_resilience(const NormalFormGame& game, const ExactMixedProfile& profile,
                              std::size_t max_k, const RobustnessOptions& options) {
    validate_profile(game, profile);
    return CoalitionSweep(game, profile).batch_resilience(max_k, options.criterion,
                                                          options.mode);
}

BatchVerdict batch_resilience(const game::GameView& view, const ExactMixedProfile& profile,
                              std::size_t max_k, const RobustnessOptions& options) {
    validate_profile(view, profile);
    return CoalitionSweep(view, profile).batch_resilience(max_k, options.criterion,
                                                          options.mode);
}

BatchVerdict batch_immunity(const NormalFormGame& game, const ExactMixedProfile& profile,
                            std::size_t max_t, game::SweepMode mode) {
    validate_profile(game, profile);
    return CoalitionSweep(game, profile).batch_immunity(max_t, mode);
}

BatchVerdict batch_immunity(const game::GameView& view, const ExactMixedProfile& profile,
                            std::size_t max_t, game::SweepMode mode) {
    validate_profile(view, profile);
    return CoalitionSweep(view, profile).batch_immunity(max_t, mode);
}

FrontierVerdict batch_robustness_frontier(const NormalFormGame& game,
                                          const ExactMixedProfile& profile, std::size_t max_k,
                                          std::size_t max_t,
                                          const RobustnessOptions& options) {
    validate_profile(game, profile);
    return CoalitionSweep(game, profile)
        .batch_robustness_frontier(max_k, max_t, options.criterion, options.mode);
}

FrontierVerdict batch_robustness_frontier(const game::GameView& view,
                                          const ExactMixedProfile& profile, std::size_t max_k,
                                          std::size_t max_t,
                                          const RobustnessOptions& options) {
    validate_profile(view, profile);
    return CoalitionSweep(view, profile)
        .batch_robustness_frontier(max_k, max_t, options.criterion, options.mode);
}

MaxKtResult max_kt(const NormalFormGame& game, const ExactMixedProfile& profile,
                   std::size_t max_k, std::size_t max_t, const RobustnessOptions& options) {
    validate_profile(game, profile);
    return CoalitionSweep(game, profile).max_kt(max_k, max_t, options.criterion,
                                               options.mode);
}

MaxKtResult max_kt(const game::GameView& view, const ExactMixedProfile& profile,
                   std::size_t max_k, std::size_t max_t, const RobustnessOptions& options) {
    validate_profile(view, profile);
    return CoalitionSweep(view, profile).max_kt(max_k, max_t, options.criterion,
                                               options.mode);
}

namespace reference {

std::optional<RobustnessViolation> find_immunity_violation(const NormalFormGame& game,
                                                           const ExactMixedProfile& profile,
                                                           std::size_t t) {
    validate_profile(game, profile);
    if (t == 0) return std::nullopt;
    const Evaluator eval(game, profile);
    std::vector<Rational> baseline(game.num_players());
    for (std::size_t i = 0; i < game.num_players(); ++i) baseline[i] = eval.baseline(i);

    for (const auto& faulty : util::subsets_up_to_size(game.num_players(), t)) {
        std::optional<RobustnessViolation> found;
        util::product_for_each(action_space(game, faulty), [&](const PureProfile& tau) {
            for (std::size_t i = 0; i < game.num_players(); ++i) {
                if (std::find(faulty.begin(), faulty.end(), i) != faulty.end()) continue;
                const Rational after = eval.utility(faulty, tau, i);
                if (after < baseline[i]) {
                    found = RobustnessViolation{{},
                                                faulty,
                                                {},
                                                tau,
                                                i,
                                                baseline[i].to_double(),
                                                after.to_double()};
                    return false;
                }
            }
            return true;
        });
        if (found) return found;
    }
    return std::nullopt;
}

std::optional<RobustnessViolation> find_robustness_violation(const NormalFormGame& game,
                                                             const ExactMixedProfile& profile,
                                                             std::size_t k, std::size_t t,
                                                             const RobustnessOptions& options) {
    validate_profile(game, profile);
    // Part (a): non-deviators are not hurt by up to t arbitrary players.
    if (auto immunity = reference::find_immunity_violation(game, profile, t)) return immunity;
    if (k == 0) return std::nullopt;

    const Evaluator eval(game, profile);
    const std::size_t n = game.num_players();

    // Part (b): no coalition C (|C| <= k) gains, no matter what disjoint
    // T (|T| <= t) does. The coalition's reference point is playing sigma_C
    // against the same tau_T.
    for (const auto& coalition : util::subsets_up_to_size(n, k)) {
        // Enumerate disjoint faulty sets, including the empty one.
        std::vector<std::size_t> others;
        for (std::size_t i = 0; i < n; ++i) {
            if (std::find(coalition.begin(), coalition.end(), i) == coalition.end()) {
                others.push_back(i);
            }
        }
        std::vector<std::vector<std::size_t>> faulty_sets{{}};
        if (t > 0) {
            for (const auto& index_set : util::subsets_up_to_size(others.size(), t)) {
                std::vector<std::size_t> faulty;
                faulty.reserve(index_set.size());
                for (const std::size_t idx : index_set) faulty.push_back(others[idx]);
                faulty_sets.push_back(std::move(faulty));
            }
        }

        for (const auto& faulty : faulty_sets) {
            std::optional<RobustnessViolation> found;
            util::product_for_each(action_space(game, faulty), [&](const PureProfile& tau_t) {
                // Coalition's reference payoffs against this tau_t.
                std::vector<Rational> reference(coalition.size());
                {
                    // sigma_C against tau_T: overrides only on T.
                    for (std::size_t idx = 0; idx < coalition.size(); ++idx) {
                        reference[idx] = eval.utility(faulty, tau_t, coalition[idx]);
                    }
                }
                std::vector<std::size_t> joint_players = coalition;
                joint_players.insert(joint_players.end(), faulty.begin(), faulty.end());
                util::product_for_each(
                    action_space(game, coalition), [&](const PureProfile& tau_c) {
                        PureProfile joint_actions = tau_c;
                        joint_actions.insert(joint_actions.end(), tau_t.begin(), tau_t.end());
                        bool any_gain = false;
                        bool all_gain = true;
                        std::size_t witness = coalition[0];
                        Rational witness_before;
                        Rational witness_after;
                        for (std::size_t idx = 0; idx < coalition.size(); ++idx) {
                            const Rational after =
                                eval.utility(joint_players, joint_actions, coalition[idx]);
                            if (after > reference[idx]) {
                                if (!any_gain) {
                                    witness = coalition[idx];
                                    witness_before = reference[idx];
                                    witness_after = after;
                                }
                                any_gain = true;
                            } else {
                                all_gain = false;
                            }
                        }
                        const bool violated =
                            options.criterion == GainCriterion::kAnyMemberGains
                                ? any_gain
                                : (all_gain && !coalition.empty());
                        if (violated) {
                            found = RobustnessViolation{coalition,
                                                        faulty,
                                                        tau_c,
                                                        tau_t,
                                                        witness,
                                                        witness_before.to_double(),
                                                        witness_after.to_double()};
                            return false;
                        }
                        return true;
                    });
                return !found.has_value();
            });
            if (found) return found;
        }
    }
    return std::nullopt;
}

}  // namespace reference

bool is_k_resilient(const NormalFormGame& game, const ExactMixedProfile& profile,
                    std::size_t k, const RobustnessOptions& options) {
    return !find_resilience_violation(game, profile, k, options).has_value();
}

bool is_t_immune(const NormalFormGame& game, const ExactMixedProfile& profile, std::size_t t) {
    return !find_immunity_violation(game, profile, t).has_value();
}

bool is_kt_robust(const NormalFormGame& game, const ExactMixedProfile& profile, std::size_t k,
                  std::size_t t, const RobustnessOptions& options) {
    return !find_robustness_violation(game, profile, k, t, options).has_value();
}

game::ExactMixedProfile as_exact_profile(const NormalFormGame& game,
                                         const PureProfile& profile) {
    if (profile.size() != game.num_players()) {
        throw std::invalid_argument("as_exact_profile: width");
    }
    ExactMixedProfile out(game.num_players());
    for (std::size_t i = 0; i < game.num_players(); ++i) {
        game::ExactMixedStrategy strategy(game.num_actions(i), Rational{0});
        strategy.at(profile[i]) = Rational{1};
        out[i] = std::move(strategy);
    }
    return out;
}

game::ExactMixedProfile as_exact_profile(const game::GameView& view,
                                         const PureProfile& profile) {
    if (profile.size() != view.num_players()) {
        throw std::invalid_argument("as_exact_profile: width");
    }
    ExactMixedProfile out(view.num_players());
    for (std::size_t i = 0; i < view.num_players(); ++i) {
        game::ExactMixedStrategy strategy(view.num_actions(i), Rational{0});
        strategy.at(profile[i]) = Rational{1};
        out[i] = std::move(strategy);
    }
    return out;
}

std::size_t max_resilience(const NormalFormGame& game, const ExactMixedProfile& profile,
                           std::size_t max_k, const RobustnessOptions& options) {
    // One shared coalition sweep instead of max_k independent probes: the
    // first violating coalition's size is the boundary for every k.
    return batch_resilience(game, profile, max_k, options).max_ok;
}

std::size_t max_immunity(const NormalFormGame& game, const ExactMixedProfile& profile,
                         std::size_t max_t) {
    return batch_immunity(game, profile, max_t).max_ok;
}

bool is_punishment_strategy(const NormalFormGame& game, const PureProfile& rho, std::size_t q,
                            const std::vector<Rational>& baseline) {
    if (baseline.size() != game.num_players()) {
        throw std::invalid_argument("is_punishment_strategy: baseline width");
    }
    const auto rho_exact = as_exact_profile(game, rho);
    const Evaluator eval(game, rho_exact);
    // S empty: everyone at rho must be strictly below baseline.
    for (std::size_t i = 0; i < game.num_players(); ++i) {
        if (!(eval.utility({}, {}, i) < baseline[i])) return false;
    }
    if (q == 0) return true;
    for (const auto& deviators : util::SubsetEnumerator(game.num_players(), q)) {
        bool ok = true;
        util::product_for_each(action_space(game, deviators), [&](const PureProfile& tau) {
            for (std::size_t i = 0; i < game.num_players(); ++i) {
                if (!(eval.utility(deviators, tau, i) < baseline[i])) {
                    ok = false;
                    return false;
                }
            }
            return true;
        });
        if (!ok) return false;
    }
    return true;
}

std::optional<PureProfile> find_punishment_strategy(const NormalFormGame& game, std::size_t q,
                                                    const std::vector<Rational>& baseline,
                                                    game::SweepMode mode) {
    if (baseline.size() != game.num_players()) {
        throw std::invalid_argument("find_punishment_strategy: baseline width");
    }
    const std::uint64_t total = game.num_profiles();
    auto& pool = util::global_pool();
    // Candidate evaluations are heavyweight (each quantifies over all
    // deviator sets and joint deviations), so blocks are small; the
    // search is over candidate RANKS, and the parallel path's winner is
    // the lowest-rank hit — identical to the serial scan.
    constexpr std::uint64_t kBlock = 8;
    const std::uint64_t num_blocks = (total + kBlock - 1) / kBlock;
    if (mode == game::SweepMode::kSerial || pool.size() <= 1 || num_blocks <= 1) {
        std::optional<PureProfile> found;
        util::product_for_each(game.action_counts(), [&](const PureProfile& rho) {
            if (is_punishment_strategy(game, rho, q, baseline)) {
                found = rho;
                return false;
            }
            return true;
        });
        return found;
    }
    std::atomic<std::uint64_t> best{total};
    std::vector<std::optional<PureProfile>> found(num_blocks);
    // First exception per block, with the rank it occurred at: the serial
    // scan would have thrown the lowest such rank below the winner.
    std::vector<std::pair<std::uint64_t, std::exception_ptr>> errors(
        num_blocks, {total, nullptr});
    // lint: grant-ok(the punishment search predates grant accounting — its
    // Evaluator path is uncounted, so budgets cannot gate it; documented in
    // ROADMAP as a sweep-core residual)
    pool.run_blocks(static_cast<std::size_t>(num_blocks), [&](std::size_t block) {
        const std::uint64_t lo = block * kBlock;
        const std::uint64_t hi = std::min(total, lo + kBlock);
        if (lo >= best.load(std::memory_order_acquire)) return;  // early exit
        std::uint64_t rank = lo;
        try {
            util::product_for_each(game.action_counts(), lo, hi,
                                   [&](const PureProfile& rho) {
                                       if (rank >= best.load(std::memory_order_acquire)) {
                                           return false;
                                       }
                                       if (is_punishment_strategy(game, rho, q, baseline)) {
                                           found[block] = rho;
                                           std::uint64_t current =
                                               best.load(std::memory_order_acquire);
                                           while (rank < current &&
                                                  !best.compare_exchange_weak(
                                                      current, rank,
                                                      std::memory_order_acq_rel)) {
                                           }
                                           return false;
                                       }
                                       ++rank;
                                       return true;
                                   });
        } catch (...) {
            errors[block] = {rank, std::current_exception()};
        }
    });
    const std::uint64_t winner = best.load(std::memory_order_acquire);
    // Serial behavior: an exception at a rank the in-order scan reaches
    // before the winner is what the caller would have seen.
    std::size_t first_error = num_blocks;
    for (std::size_t block = 0; block < num_blocks; ++block) {
        if (errors[block].second && errors[block].first < winner &&
            (first_error == num_blocks ||
             errors[block].first < errors[first_error].first)) {
            first_error = block;
        }
    }
    if (first_error < num_blocks) std::rethrow_exception(errors[first_error].second);
    if (winner == total) return std::nullopt;
    return std::move(found[winner / kBlock]);
}

void merge_frontier(FrontierVerdict& base, const FrontierVerdict& update) {
    if (base.max_k != update.max_k || base.max_t != update.max_t ||
        base.cells.size() != update.cells.size()) {
        throw std::invalid_argument("merge_frontier: grid shapes differ");
    }
    if (base.states.empty()) return;  // base already complete
    for (std::size_t i = 0; i < base.cells.size(); ++i) {
        if (base.states[i] != CellVerdict::kUnknown) continue;
        const CellVerdict from_update =
            update.states.empty()
                ? (update.cells[i] ? CellVerdict::kBroken : CellVerdict::kRobust)
                : update.states[i];
        if (from_update == CellVerdict::kUnknown) continue;
        base.states[i] = from_update;
        base.cells[i] = update.cells[i];
    }
    base.cells_resolved = 0;
    for (const CellVerdict state : base.states) {
        if (state != CellVerdict::kUnknown) ++base.cells_resolved;
    }
    if (base.cells_resolved == base.cells.size()) base.states.clear();
}

bool is_kt_robust_bayesian(const game::BayesianGame& game,
                           const game::BayesianPureProfile& profile, std::size_t k,
                           std::size_t t, const RobustnessOptions& options) {
    const auto strategic = game.to_strategic_form();
    PureProfile ranks(game.num_players());
    for (std::size_t i = 0; i < game.num_players(); ++i) {
        ranks[i] = static_cast<std::size_t>(game.strategy_rank(i, profile[i]));
    }
    return is_kt_robust(strategic, as_exact_profile(strategic, ranks), k, t, options);
}

}  // namespace bnash::core
