#include "game/normal_form.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/combinatorics.h"

namespace bnash::game {

namespace {
std::atomic<std::uint64_t> g_tensor_allocations{0};

// Shifts by `delta` every rank of `player` at or above `from`.
void shift_ranks(std::vector<std::uint32_t>& ranks, std::size_t num_players, std::size_t player,
                 std::uint32_t from, std::int32_t delta) {
    for (std::size_t i = player; i < ranks.size(); i += num_players) {
        if (ranks[i] >= from) ranks[i] = static_cast<std::uint32_t>(ranks[i] + delta);
    }
}

// splitmix64's output function: a bijection of 64 bits in which every
// input bit moves every output bit.
std::uint64_t mix64(std::uint64_t z) noexcept {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

// Where a value's probes start: one mix64 of num * seed + den, exact to
// key on because Rationals stay gcd-reduced with den > 0. The seed is odd
// (so distinct integers never share a key) and comes from a static's
// address, which address-space randomization moves between runs of a
// position-independent build, so an upload cannot be prepared whose
// payoffs all collide and turn the build quadratic; the store never
// depends on it (ids are first-seen and the levels are sorted after).
std::uint64_t level_hash(const util::Rational& value) noexcept {
    static const std::uint64_t seed =
        mix64(reinterpret_cast<std::uintptr_t>(&g_tensor_allocations)) | 1;
    return mix64(static_cast<std::uint64_t>(value.num()) * seed +
                 static_cast<std::uint64_t>(value.den()));
}

}  // namespace

// One player's distinct payoffs while a Build runs: each value by
// first-seen id with its cell count, and an open-addressing table of the
// ids (linear probing, at most half full). The table grows with the
// number of levels, not of profiles, so a narrow column stays in L1.
class NormalFormGame::Build::LevelIds final {
public:
    std::uint32_t id(const util::Rational& value) {
        std::size_t mask = slots_.size() - 1;
        std::size_t slot = level_hash(value) & mask;
        for (; slots_[slot] != kEmpty; slot = (slot + 1) & mask) {
            Entry& seen = entries_[slots_[slot]];
            if (seen.exact == value) {
                ++seen.count;
                return seen.id;
            }
        }
        const auto fresh = static_cast<std::uint32_t>(entries_.size());
        entries_.push_back({value, 1, fresh});
        if (2 * entries_.size() <= slots_.size()) {
            slots_[slot] = fresh;
            return fresh;
        }
        slots_.assign(2 * slots_.size(), kEmpty);
        mask = slots_.size() - 1;
        for (const Entry& entry : entries_) {
            slot = level_hash(entry.exact) & mask;
            while (slots_[slot] != kEmpty) slot = (slot + 1) & mask;
            slots_[slot] = entry.id;
        }
        return fresh;
    }

    // Once every cell has its id: the levels in increasing order with
    // their counts and doubles, after which rank(id) holds. The sort
    // compares doubles first: when both parts of a value are below 2^53
    // they convert exactly, and correctly rounded division is monotone,
    // so distinct doubles order like their values. Ties, and values with
    // a wider part (NaN keys, which compare false both ways), fall back
    // to the exact compare.
    void sort(std::vector<util::Rational>& levels, std::vector<std::uint32_t>& counts,
              std::vector<double>& levels_d) {
        constexpr std::int64_t kExact = std::int64_t{1} << 53;
        for (Entry& entry : entries_) {
            const std::int64_t num = entry.exact.num();
            entry.key = num > -kExact && num < kExact && entry.exact.den() < kExact
                            ? entry.exact.to_double()
                            : std::numeric_limits<double>::quiet_NaN();
        }
        std::sort(entries_.begin(), entries_.end(), [](const Entry& a, const Entry& b) {
            if (a.key < b.key) return true;
            if (b.key < a.key) return false;
            return a.exact < b.exact;
        });
        levels.reserve(entries_.size());
        counts.reserve(entries_.size());
        levels_d.reserve(entries_.size());
        ranks_.resize(entries_.size());
        for (const Entry& entry : entries_) {
            ranks_[entry.id] = static_cast<std::uint32_t>(levels.size());
            levels.push_back(entry.exact);
            counts.push_back(entry.count);
            levels_d.push_back(entry.exact.to_double());
        }
    }

    // A first-seen id's place among the sorted levels.
    [[nodiscard]] std::uint32_t rank(std::uint32_t id) const { return ranks_[id]; }

private:
    static constexpr std::uint32_t kEmpty = std::numeric_limits<std::uint32_t>::max();

    struct Entry final {
        util::Rational exact;
        std::uint32_t count;
        std::uint32_t id;
        double key = 0.0;  // the sort key, set by sort()
    };

    std::vector<Entry> entries_;  // by id during the pass, by rank once sorted
    std::vector<std::uint32_t> slots_ = std::vector<std::uint32_t>(16, kEmpty);
    std::vector<std::uint32_t> ranks_;
};

std::uint64_t NormalFormGame::tensor_allocations() noexcept {
    return g_tensor_allocations.load(std::memory_order_relaxed);
}

NormalFormGame::NormalFormGame(std::vector<std::size_t> action_counts)
    : action_counts_(std::move(action_counts)) {
    if (action_counts_.empty()) throw std::invalid_argument("NormalFormGame: no players");
    for (const std::size_t count : action_counts_) {
        if (count == 0) throw std::invalid_argument("NormalFormGame: player with no actions");
    }
    num_profiles_ = util::product_size(action_counts_);
    if (num_profiles_ > std::numeric_limits<std::uint32_t>::max()) {
        throw std::length_error("NormalFormGame: more profiles than 32-bit counts can hold");
    }
    const std::size_t n = num_players();
    store_ = std::make_shared<Store>();
    store_->ranks.assign(num_profiles_ * n, 0);
    store_->levels.assign(n, {util::Rational{0}});
    store_->counts.assign(n, {static_cast<std::uint32_t>(num_profiles_)});
    store_->levels_d.assign(n, {0.0});
    action_labels_.resize(n);
    g_tensor_allocations.fetch_add(1, std::memory_order_relaxed);
}

NormalFormGame::Store& NormalFormGame::writable_store() {
    if (store_.use_count() != 1) {
        store_ = std::make_shared<Store>(*store_);
        g_tensor_allocations.fetch_add(1, std::memory_order_relaxed);
    } else {
        store_->symmetry.group.store(nullptr);
    }
    return *store_;
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
    std::vector<util::Rational> values(game.num_profiles_ * game.num_players());
    for (util::Rational& value : values) value = util::Rational{rng.next_int(lo, hi)};
    game.assign_payoffs(values);
    return game;
}

void NormalFormGame::set_payoff(const PureProfile& profile, std::size_t player,
                                util::Rational value) {
    if (player >= num_players()) throw std::out_of_range("set_payoff: bad player");
    const std::uint64_t rank = profile_rank(profile);
    if (payoff_at(rank, player) == value) return;
    const std::uint64_t index = rank * num_players() + player;
    Store& store = writable_store();
    std::vector<util::Rational>& levels = store.levels[player];
    std::vector<std::uint32_t>& counts = store.counts[player];
    std::vector<double>& levels_d = store.levels_d[player];
    const auto at = std::lower_bound(levels.begin(), levels.end(), value);
    const auto to = static_cast<std::uint32_t>(at - levels.begin());
    if (at == levels.end() || *at != value) {
        levels_d.insert(levels_d.begin() + to, value.to_double());
        levels.insert(at, std::move(value));
        counts.insert(counts.begin() + to, 0);
        shift_ranks(store.ranks, num_players(), player, to, 1);
    }
    const std::uint32_t from = store.ranks[index];
    store.ranks[index] = to;
    ++counts[to];
    if (--counts[from] == 0) {
        levels.erase(levels.begin() + from);
        counts.erase(counts.begin() + from);
        levels_d.erase(levels_d.begin() + from);
        shift_ranks(store.ranks, num_players(), player, from + 1, -1);
    }
}

void NormalFormGame::set_payoffs(const PureProfile& profile,
                                 const std::vector<util::Rational>& values) {
    if (values.size() != num_players()) throw std::invalid_argument("set_payoffs: width");
    for (std::size_t player = 0; player < values.size(); ++player) {
        set_payoff(profile, player, values[player]);
    }
}

void NormalFormGame::assign_payoffs(std::span<const util::Rational> values) {
    const std::size_t cells = num_profiles_ * num_players();
    if (values.size() != cells) {
        throw std::invalid_argument("assign_payoffs: expected " + std::to_string(cells) +
                                    " values, got " + std::to_string(values.size()));
    }
    Build build(*this);
    build.add(values);
    build.commit();
}

NormalFormGame::Build::Build(NormalFormGame& game)
    : game_(&game), tables_(game.num_players()), ids_(game.num_profiles_ * game.num_players()) {}

NormalFormGame::Build::~Build() = default;

void NormalFormGame::Build::add(std::span<const util::Rational> values) {
    if (values.size() > ids_.size() - next_) {
        throw std::length_error("payoff build: more values than cells");
    }
    // The cursors live in locals so that they stay in registers.
    const std::size_t n = tables_.size();
    std::uint32_t* const ids = ids_.data() + next_;
    std::size_t player = player_;
    for (std::size_t i = 0; i < values.size(); ++i) {
        ids[i] = tables_[player].id(values[i]);
        if (++player == n) player = 0;
    }
    next_ += values.size();
    player_ = player;
}

void NormalFormGame::Build::commit() {
    if (next_ != ids_.size()) {
        throw std::invalid_argument("payoff build: expected " + std::to_string(ids_.size()) +
                                    " values, got " + std::to_string(next_));
    }
    // Everything that allocates runs before the store is touched, so a
    // throw leaves the game unchanged.
    const std::size_t n = tables_.size();
    std::vector<std::vector<util::Rational>> levels(n);
    std::vector<std::vector<std::uint32_t>> counts(n);
    std::vector<std::vector<double>> levels_d(n);
    for (std::size_t player = 0; player < n; ++player) {
        tables_[player].sort(levels[player], counts[player], levels_d[player]);
    }
    // An unshared store keeps its rank buffer and the ranks are written
    // over it. Swapping in a fresh buffer on each upload read about 15%
    // slower on servebench frontier_session's first reply (seed 1, 4-CPU
    // shared x86-64 host), most likely from where the sweep's own
    // allocations then landed.
    if (game_->store_.use_count() != 1) {
        game_->store_ = std::make_shared<Store>(
            Store{std::vector<std::uint32_t>(ids_.size()), {}, {}, {}, {}});
        g_tensor_allocations.fetch_add(1, std::memory_order_relaxed);
    }
    Store& store = *game_->store_;
    store.symmetry.group.store(nullptr);
    for (std::size_t i = 0; i < ids_.size();) {
        for (std::size_t player = 0; player < n; ++player, ++i) {
            store.ranks[i] = tables_[player].rank(ids_[i]);
        }
    }
    store.levels = std::move(levels);
    store.counts = std::move(counts);
    store.levels_d = std::move(levels_d);
}

std::vector<util::Rational> NormalFormGame::payoffs_flat() const {
    const std::size_t n = num_players();
    std::vector<util::Rational> out;
    out.reserve(store_->ranks.size());
    for (std::size_t i = 0; i < store_->ranks.size(); ++i) {
        out.push_back(store_->levels[i % n][store_->ranks[i]]);
    }
    return out;
}

NormalFormGame NormalFormGame::with_levels(
    std::vector<std::vector<util::Rational>> levels) const {
    const std::size_t n = num_players();
    bool fits = levels.size() == n;
    for (std::size_t player = 0; fits && player < n; ++player) {
        const std::vector<util::Rational>& row = levels[player];
        fits = row.size() == store_->levels[player].size() &&
               std::adjacent_find(row.begin(), row.end(), std::greater_equal<>()) == row.end();
    }
    if (!fits) throw std::invalid_argument("with_levels: levels must match, strictly increasing");
    NormalFormGame out = *this;
    Store built{store_->ranks, std::move(levels), store_->counts,
                std::vector<std::vector<double>>(n), {}};
    for (std::size_t player = 0; player < n; ++player) {
        for (const util::Rational& level : built.levels[player]) {
            built.levels_d[player].push_back(level.to_double());
        }
    }
    out.store_ = std::make_shared<Store>(std::move(built));
    g_tensor_allocations.fetch_add(1, std::memory_order_relaxed);
    return out;
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
