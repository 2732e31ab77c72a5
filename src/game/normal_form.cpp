#include "game/normal_form.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <mutex>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "game/game_view.h"
#include "game/payoff_engine.h"
#include "util/combinatorics.h"

namespace bnash::game {

namespace {
std::atomic<std::uint64_t> g_tensor_allocations{0};
std::atomic<std::uint64_t> g_rank_builds{0};

// Dense per-player ranks of a flat [rank * num_players + player] tensor:
// one index sort per player over a contiguous copy of its column.
std::vector<std::uint32_t> dense_ranks(const std::vector<util::Rational>& flat,
                                       std::size_t num_players) {
    const std::size_t profiles = num_players == 0 ? 0 : flat.size() / num_players;
    if (profiles > std::numeric_limits<std::uint32_t>::max()) {
        throw std::length_error("ordinal_ranks: more profiles than 32-bit ranks can index");
    }
    std::vector<std::uint32_t> ranks(flat.size());
    std::vector<util::Rational> values(profiles);
    std::vector<std::uint32_t> order(profiles);
    for (std::size_t player = 0; player < num_players; ++player) {
        for (std::size_t rank = 0; rank < profiles; ++rank) {
            values[rank] = flat[rank * num_players + player];
        }
        std::iota(order.begin(), order.end(), std::uint32_t{0});
        std::sort(order.begin(), order.end(), [&values](std::uint32_t a, std::uint32_t b) {
            return values[a] < values[b];
        });
        std::uint32_t level = 0;
        for (std::size_t i = 0; i < profiles; ++i) {
            if (i > 0 && values[order[i]] != values[order[i - 1]]) ++level;
            ranks[order[i] * num_players + player] = level;
        }
    }
    return ranks;
}
}  // namespace

// The lazily built rank tensor. `built` lets release_ordinal tell a
// pristine holder (keep it) from one whose ranks may already be read.
struct NormalFormGame::OrdinalRanks final {
    std::once_flag once;
    std::atomic<bool> built{false};
    std::vector<std::uint32_t> ranks;
};

std::uint64_t NormalFormGame::tensor_allocations() noexcept {
    return g_tensor_allocations.load(std::memory_order_relaxed);
}

std::uint64_t NormalFormGame::rank_builds() noexcept {
    return g_rank_builds.load(std::memory_order_relaxed);
}

const std::vector<std::uint32_t>& NormalFormGame::ordinal_ranks() const {
    if (!ordinal_) {  // moved-from: its tensors are gone too
        static const std::vector<std::uint32_t> kNone;
        return kNone;
    }
    OrdinalRanks& holder = *ordinal_;
    std::call_once(holder.once, [&] {
        holder.ranks = dense_ranks(payoffs_, num_players());
        g_rank_builds.fetch_add(1, std::memory_order_relaxed);
        holder.built.store(true);
    });
    return holder.ranks;
}

void NormalFormGame::release_ordinal() {
    if (ordinal_ && ordinal_.use_count() == 1 &&
        !ordinal_->built.load()) {
        return;
    }
    ordinal_ = std::make_shared<OrdinalRanks>();
}

NormalFormGame::NormalFormGame(std::vector<std::size_t> action_counts)
    : action_counts_(std::move(action_counts)) {
    if (action_counts_.empty()) throw std::invalid_argument("NormalFormGame: no players");
    for (const std::size_t count : action_counts_) {
        if (count == 0) throw std::invalid_argument("NormalFormGame: player with no actions");
    }
    num_profiles_ = util::product_size(action_counts_);
    payoffs_.assign(num_profiles_ * num_players(), util::Rational{0});
    payoffs_d_.assign(num_profiles_ * num_players(), 0.0);
    ordinal_ = std::make_shared<OrdinalRanks>();
    action_labels_.resize(num_players());
    g_tensor_allocations.fetch_add(1, std::memory_order_relaxed);
}

NormalFormGame::NormalFormGame(const NormalFormGame& other)
    : action_counts_(other.action_counts_),
      num_profiles_(other.num_profiles_),
      payoffs_(other.payoffs_),
      payoffs_d_(other.payoffs_d_),
      ordinal_(other.ordinal_),
      action_labels_(other.action_labels_) {
    g_tensor_allocations.fetch_add(1, std::memory_order_relaxed);
}

NormalFormGame& NormalFormGame::operator=(const NormalFormGame& other) {
    if (this != &other) {
        action_counts_ = other.action_counts_;
        num_profiles_ = other.num_profiles_;
        payoffs_ = other.payoffs_;
        payoffs_d_ = other.payoffs_d_;
        ordinal_ = other.ordinal_;
        action_labels_ = other.action_labels_;
        g_tensor_allocations.fetch_add(1, std::memory_order_relaxed);
    }
    return *this;
}

NormalFormGame NormalFormGame::from_bimatrix(const util::MatrixQ& row_payoffs,
                                             const util::MatrixQ& col_payoffs) {
    if (row_payoffs.rows() != col_payoffs.rows() || row_payoffs.cols() != col_payoffs.cols()) {
        throw std::invalid_argument("from_bimatrix: shape mismatch");
    }
    NormalFormGame game({row_payoffs.rows(), row_payoffs.cols()});
    for (std::size_t r = 0; r < row_payoffs.rows(); ++r) {
        for (std::size_t c = 0; c < row_payoffs.cols(); ++c) {
            game.set_payoffs({r, c}, {row_payoffs(r, c), col_payoffs(r, c)});
        }
    }
    return game;
}

NormalFormGame NormalFormGame::zero_sum(const util::MatrixQ& row_payoffs) {
    util::MatrixQ negated(row_payoffs.rows(), row_payoffs.cols());
    for (std::size_t r = 0; r < row_payoffs.rows(); ++r) {
        for (std::size_t c = 0; c < row_payoffs.cols(); ++c) {
            negated(r, c) = -row_payoffs(r, c);
        }
    }
    return from_bimatrix(row_payoffs, negated);
}

NormalFormGame NormalFormGame::random(std::vector<std::size_t> action_counts, util::Rng& rng,
                                      std::int64_t lo, std::int64_t hi) {
    NormalFormGame game(std::move(action_counts));
    for (std::uint64_t rank = 0; rank < game.num_profiles_; ++rank) {
        for (std::size_t player = 0; player < game.num_players(); ++player) {
            const auto index = rank * game.num_players() + player;
            game.payoffs_[index] = util::Rational{rng.next_int(lo, hi)};
            game.payoffs_d_[index] = game.payoffs_[index].to_double();
        }
    }
    return game;
}

void NormalFormGame::set_payoff(const PureProfile& profile, std::size_t player,
                                util::Rational value) {
    if (player >= num_players()) throw std::out_of_range("set_payoff: bad player");
    const auto index = profile_rank(profile) * num_players() + player;
    release_ordinal();
    payoffs_d_[index] = value.to_double();
    payoffs_[index] = std::move(value);
}

void NormalFormGame::set_payoffs(const PureProfile& profile,
                                 const std::vector<util::Rational>& values) {
    if (values.size() != num_players()) throw std::invalid_argument("set_payoffs: width");
    for (std::size_t player = 0; player < values.size(); ++player) {
        set_payoff(profile, player, values[player]);
    }
}

void NormalFormGame::assign_payoffs(std::vector<util::Rational> values) {
    if (values.size() != payoffs_.size()) {
        throw std::invalid_argument("assign_payoffs: expected " +
                                    std::to_string(payoffs_.size()) + " values, got " +
                                    std::to_string(values.size()));
    }
    release_ordinal();
    payoffs_ = std::move(values);
    for (std::size_t i = 0; i < payoffs_.size(); ++i) payoffs_d_[i] = payoffs_[i].to_double();
}

const util::Rational& NormalFormGame::payoff(const PureProfile& profile,
                                             std::size_t player) const {
    return payoffs_[profile_rank(profile) * num_players() + player];
}

double NormalFormGame::payoff_d(const PureProfile& profile, std::size_t player) const {
    return payoffs_d_[profile_rank(profile) * num_players() + player];
}

// The mixed-profile evaluations are the payoff-engine sweeps on this
// game's identity view: one stride-indexed tensor sweep instead of one
// per (player, action). Hot loops that evaluate many profiles should call
// the batched sweeps (deviation_payoffs_all) directly.

double NormalFormGame::expected_payoff(const MixedProfile& profile, std::size_t player) const {
    if (profile.size() != num_players()) throw std::invalid_argument("expected_payoff: width");
    return game::expected_payoff(*this, profile, player);
}

std::vector<double> NormalFormGame::expected_payoffs(const MixedProfile& profile) const {
    if (profile.size() != num_players()) throw std::invalid_argument("expected_payoffs: width");
    return game::expected_payoffs(*this, profile);
}

double NormalFormGame::deviation_payoff(const MixedProfile& profile, std::size_t player,
                                        std::size_t action) const {
    return deviation_row(*this, profile, player).at(action);
}

util::Rational NormalFormGame::expected_payoff_exact(const ExactMixedProfile& profile,
                                                     std::size_t player) const {
    if (profile.size() != num_players()) {
        throw std::invalid_argument("expected_payoff_exact: width");
    }
    return game::expected_payoff_exact(*this, profile, player);
}

util::Rational NormalFormGame::deviation_payoff_exact(const ExactMixedProfile& profile,
                                                      std::size_t player,
                                                      std::size_t action) const {
    return deviation_row_exact(*this, profile, player).at(action);
}

std::vector<std::size_t> NormalFormGame::best_responses(const MixedProfile& profile,
                                                        std::size_t player, double tol) const {
    return PayoffEngine::best_responses_from(deviation_row(*this, profile, player), tol);
}

double NormalFormGame::regret(const MixedProfile& profile) const {
    return PayoffEngine::regret_from(deviation_payoffs_all(*this, profile), profile);
}

util::MatrixQ NormalFormGame::payoff_matrix(std::size_t player) const {
    if (num_players() != 2) throw std::logic_error("payoff_matrix: 2-player games only");
    util::MatrixQ out(action_counts_[0], action_counts_[1]);
    for (std::size_t r = 0; r < action_counts_[0]; ++r) {
        for (std::size_t c = 0; c < action_counts_[1]; ++c) {
            out(r, c) = payoff({r, c}, player);
        }
    }
    return out;
}

NormalFormGame NormalFormGame::restrict(
    const std::vector<std::vector<std::size_t>>& kept_actions) const {
    if (kept_actions.size() != num_players()) throw std::invalid_argument("restrict: width");
    std::vector<std::size_t> new_counts;
    new_counts.reserve(num_players());
    for (std::size_t player = 0; player < num_players(); ++player) {
        if (kept_actions[player].empty()) {
            throw std::invalid_argument("restrict: player left with no actions");
        }
        for (const std::size_t action : kept_actions[player]) {
            if (action >= num_actions(player)) throw std::out_of_range("restrict: bad action");
        }
        new_counts.push_back(kept_actions[player].size());
    }
    NormalFormGame out(new_counts);
    util::product_for_each(new_counts, [&](const std::vector<std::size_t>& tuple) {
        PureProfile original(num_players());
        for (std::size_t player = 0; player < num_players(); ++player) {
            original[player] = kept_actions[player][tuple[player]];
        }
        for (std::size_t player = 0; player < num_players(); ++player) {
            out.set_payoff(tuple, player, payoff(original, player));
        }
        return true;
    });
    for (std::size_t player = 0; player < num_players(); ++player) {
        if (action_labels_[player].empty()) continue;
        std::vector<std::string> labels;
        labels.reserve(kept_actions[player].size());
        for (const std::size_t action : kept_actions[player]) {
            labels.push_back(action_labels_[player][action]);
        }
        out.set_action_labels(player, std::move(labels));
    }
    return out;
}

GameView NormalFormGame::restrict_view(
    const std::vector<std::vector<std::size_t>>& kept_actions) const {
    return GameView::restrict(*this, kept_actions);
}

std::uint64_t NormalFormGame::profile_rank(const PureProfile& profile) const {
    return util::product_rank(action_counts_, profile);
}

PureProfile NormalFormGame::profile_unrank(std::uint64_t rank) const {
    return util::product_unrank(action_counts_, rank);
}

void NormalFormGame::set_action_labels(std::size_t player, std::vector<std::string> labels) {
    if (labels.size() != num_actions(player)) {
        throw std::invalid_argument("set_action_labels: wrong count");
    }
    action_labels_.at(player) = std::move(labels);
}

std::string NormalFormGame::action_label(std::size_t player, std::size_t action) const {
    if (action >= num_actions(player)) throw std::out_of_range("action_label");
    if (action_labels_[player].empty()) {
        // Built by append, not operator+: GCC 12's -Wrestrict false-
        // positives on "literal" + to_string(...) (PR 105329).
        std::string label("a");
        label += std::to_string(action);
        return label;
    }
    return action_labels_[player][action];
}

std::string NormalFormGame::to_string() const {
    std::ostringstream os;
    if (num_players() != 2) {
        os << num_players() << "-player game; actions:";
        for (const std::size_t count : action_counts_) os << " " << count;
        os << "\n";
        return os.str();
    }
    for (std::size_t r = 0; r < action_counts_[0]; ++r) {
        os << action_label(0, r) << ": ";
        for (std::size_t c = 0; c < action_counts_[1]; ++c) {
            os << "(" << payoff({r, c}, 0).to_string() << ","
               << payoff({r, c}, 1).to_string() << ") ";
        }
        os << "\n";
    }
    return os.str();
}

}  // namespace bnash::game
