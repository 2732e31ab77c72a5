// The serving layer: canonical signatures (permutation invariance,
// ordinal invariance for pure candidates and affine invariance for mixed
// ones, golden affine bytes, overflow fallback, a fold-soundness fuzz
// over monotone disguises), the sharded single-flight verdict
// cache with follower-owned deadlines and leader hand-off, the
// RobustnessServer's degradation ladder under scripted fault injection
// — slow tasks against deadlines, poisoned (throwing) tasks,
// cancellation in flight, leader death with follower promotion, queue
// overflow shedding with exponential per-source backoff, resume-token
// lifecycle (mint, seek, reject), streamed frontier columns — and both
// line-protocol fronts (stdin and TCP socket) including parser
// hardening, pipelining bounds, read deadlines, and scheduled
// mid-stream drops.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <future>
#include <limits>
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/robust/robustness.h"
#include "game/catalog.h"
#include "game/normal_form.h"
#include "serve/canonical.h"
#include "serve/fault_schedule.h"
#include "serve/server.h"
#include "serve/socket_front.h"
#include "serve/text_front.h"
#include "util/execution_grant.h"
#include "util/rng.h"
#include "util/work_counters.h"

namespace bnash::serve {
namespace {

using core::CellVerdict;
using game::NormalFormGame;
using game::PureProfile;
using util::Rational;

NormalFormGame asymmetric_game() {
    NormalFormGame game({2, 3});
    util::Rng rng(99);
    for (std::uint64_t rank = 0; rank < game.num_profiles(); ++rank) {
        const PureProfile cell = game.profile_unrank(rank);
        for (std::size_t player = 0; player < 2; ++player) {
            game.set_payoff(cell, player, Rational(rng.next_int(-9, 9)));
        }
    }
    return game;
}

game::ExactMixedProfile pure(const NormalFormGame& game, const PureProfile& actions) {
    return core::as_exact_profile(game, actions);
}

// Per-player x -> x^3: strictly monotone but not affine.
NormalFormGame cubed(const NormalFormGame& game) {
    NormalFormGame out = game;
    for (std::uint64_t rank = 0; rank < game.num_profiles(); ++rank) {
        const PureProfile cell = game.profile_unrank(rank);
        for (std::size_t player = 0; player < game.num_players(); ++player) {
            const Rational& value = game.payoff_at(rank, player);
            out.set_payoff(cell, player, value * value * value);
        }
    }
    return out;
}

// The 2-player game with its players swapped (tensor and counts).
NormalFormGame swapped(const NormalFormGame& game) {
    NormalFormGame out({game.num_actions(1), game.num_actions(0)});
    for (std::size_t x = 0; x < game.num_actions(0); ++x) {
        for (std::size_t y = 0; y < game.num_actions(1); ++y) {
            out.set_payoff({y, x}, 0, game.payoff({x, y}, 1));
            out.set_payoff({y, x}, 1, game.payoff({x, y}, 0));
        }
    }
    return out;
}

// -------------------------------------------------------- canonicalization

TEST(Canonical, PlayerPermutationInvariant) {
    const NormalFormGame a = asymmetric_game();
    // The same game with the two players swapped (the candidate profile
    // carried along).
    const NormalFormGame b = swapped(a);
    const auto profile_a = pure(a, {1, 2});
    const auto profile_b = pure(b, {2, 1});
    const CanonicalSignature sig_a = canonical_signature(a, profile_a);
    const CanonicalSignature sig_b = canonical_signature(b, profile_b);
    EXPECT_TRUE(sig_a.normalized);
    EXPECT_EQ(sig_a.bytes, sig_b.bytes);
}

TEST(Canonical, AffineRescaleInvariant) {
    const NormalFormGame a = asymmetric_game();
    NormalFormGame b = a;
    for (std::uint64_t rank = 0; rank < a.num_profiles(); ++rank) {
        const PureProfile cell = a.profile_unrank(rank);
        b.set_payoff(cell, 0, a.payoff_at(rank, 0) * 3 + 5);
        b.set_payoff(cell, 1, a.payoff_at(rank, 1) * Rational(1, 2) - 7);
    }
    const auto profile = pure(a, {0, 1});
    EXPECT_EQ(canonical_signature(a, profile).bytes, canonical_signature(b, profile).bytes);
}

TEST(Canonical, PayoffAndProfileChangesChangeTheKey) {
    // Swapping two distinct payoffs of player 0 changes its payoff order
    // (a +1 bump need not: the ordinal key only sees ranks).
    const NormalFormGame a = asymmetric_game();
    std::uint64_t other = 1;
    while (a.payoff_at(other, 0) == a.payoff_at(0, 0)) ++other;
    NormalFormGame b = a;
    b.set_payoff(a.profile_unrank(0), 0, a.payoff_at(other, 0));
    b.set_payoff(a.profile_unrank(other), 0, a.payoff_at(0, 0));
    const auto profile = pure(a, {0, 0});
    EXPECT_NE(canonical_signature(a, profile).bytes, canonical_signature(b, profile).bytes);
    EXPECT_NE(canonical_signature(a, profile).bytes,
              canonical_signature(a, pure(a, {1, 0})).bytes);
}

TEST(Canonical, QueryParametersChangeTheKey) {
    const NormalFormGame a = asymmetric_game();
    const auto profile = pure(a, {0, 0});
    const auto key = [&](std::size_t k, std::size_t t, core::GainCriterion criterion) {
        return canonical_key(a, profile, k, t, criterion);
    };
    EXPECT_NE(key(1, 0, core::GainCriterion::kAnyMemberGains),
              key(2, 0, core::GainCriterion::kAnyMemberGains));
    EXPECT_NE(key(1, 0, core::GainCriterion::kAnyMemberGains),
              key(1, 1, core::GainCriterion::kAnyMemberGains));
    EXPECT_NE(key(1, 0, core::GainCriterion::kAnyMemberGains),
              key(1, 0, core::GainCriterion::kAllMembersGain));
}

// The affine span (2^62)/5 + (2^62)/3 overflows 64-bit rationals.
NormalFormGame overflowing_game() {
    const std::int64_t big = std::int64_t{1} << 62;
    NormalFormGame game({2, 2});
    game.set_payoff({0, 0}, 0, Rational(-big, 3));
    game.set_payoff({1, 1}, 0, Rational(big, 5));
    return game;
}

TEST(Canonical, OverflowFallsBackToRawTag) {
    // A mixed candidate takes the affine path, whose normalization must
    // fall back to the tagged identity serialization.
    const NormalFormGame game = overflowing_game();
    const game::ExactMixedProfile profile{{Rational(1, 2), Rational(1, 2)},
                                          {Rational(0), Rational(1)}};
    const CanonicalSignature sig = canonical_signature(game, profile);
    EXPECT_FALSE(sig.normalized);
    EXPECT_EQ(sig.bytes.rfind("bnashQ1:raw:", 0), 0u);
    // Deterministic: the fallback reproduces itself.
    EXPECT_EQ(sig.bytes, canonical_signature(game, profile).bytes);
}

TEST(Canonical, OverflowingPureCandidateStaysOrdinal) {
    // The ordinal path only compares payoffs, so the same game cannot
    // overflow it.
    const NormalFormGame game = overflowing_game();
    const auto profile = pure(game, {0, 1});
    const CanonicalSignature sig = canonical_signature(game, profile);
    EXPECT_TRUE(sig.normalized);
    EXPECT_EQ(sig.bytes.rfind("bnashQ1:ord:", 0), 0u);
    EXPECT_EQ(sig.bytes, canonical_signature(game, profile).bytes);
}

TEST(Canonical, SymmetricGamesFoldToOrbitSizedKeys) {
    // Two symmetry classes: players {0,1} with 2 actions, {2,3} with 3.
    // Payoffs depend only on (own class, own action, sum of all actions),
    // so the game is invariant under within-class relabelings.
    const auto payoff = [](const PureProfile& cell, std::size_t player) {
        const std::int64_t weight = player < 2 ? 3 : 5;
        std::int64_t sum = 0;
        for (const std::size_t action : cell) sum += static_cast<std::int64_t>(action);
        return Rational(static_cast<std::int64_t>(cell[player]) * weight + sum);
    };
    NormalFormGame g({2, 2, 3, 3});
    for (std::uint64_t rank = 0; rank < g.num_profiles(); ++rank) {
        const PureProfile cell = g.profile_unrank(rank);
        for (std::size_t player = 0; player < 4; ++player) {
            g.set_payoff(cell, player, payoff(cell, player));
        }
    }
    // The same game uploaded with the players reversed.
    NormalFormGame h({3, 3, 2, 2});
    for (std::uint64_t rank = 0; rank < g.num_profiles(); ++rank) {
        const PureProfile cell = g.profile_unrank(rank);
        PureProfile reversed(cell.rbegin(), cell.rend());
        for (std::size_t player = 0; player < 4; ++player) {
            h.set_payoff(reversed, player, g.payoff(cell, 3 - player));
        }
    }
    const CanonicalSignature sig_g = canonical_signature(g, pure(g, {1, 1, 2, 2}));
    const CanonicalSignature sig_h = canonical_signature(h, pure(h, {2, 2, 1, 1}));
    // Both uploads fold to the SAME orbit-sized key, in the ordinal
    // ("sym:ord:") space since the candidates are pure.
    EXPECT_EQ(sig_g.bytes.rfind("bnashQ1:sym:ord:", 0), 0u);
    EXPECT_EQ(sig_g.bytes, sig_h.bytes);
    // An asymmetric game never takes the symmetry path.
    const NormalFormGame plain = asymmetric_game();
    EXPECT_EQ(canonical_signature(plain, pure(plain, {0, 0})).bytes.find(":sym:"),
              std::string::npos);
}

TEST(Canonical, MonotoneTransformFoldsPureCandidatesOnly) {
    const NormalFormGame a = asymmetric_game();
    const NormalFormGame b = swapped(cubed(a));
    // Pure: every verdict only compares payoffs of one player, so the
    // cubed, relabeled upload shares the key.
    EXPECT_EQ(canonical_signature(a, pure(a, {1, 2})).bytes,
              canonical_signature(b, pure(b, {2, 1})).bytes);
    // Mixed: expected payoffs are not invariant under x^3, and the
    // affine key keeps the two apart.
    const game::ExactMixedProfile mixed_a{{Rational(1, 2), Rational(1, 2)},
                                          {Rational(1, 3), Rational(0), Rational(2, 3)}};
    const game::ExactMixedProfile mixed_b{mixed_a[1], mixed_a[0]};
    const CanonicalSignature sig_a = canonical_signature(a, mixed_a);
    EXPECT_EQ(sig_a.bytes.rfind("bnashQ1:nrm:", 0), 0u);
    EXPECT_NE(sig_a.bytes, canonical_signature(b, mixed_b).bytes);
    // The affine key still folds the plain relabeling.
    EXPECT_EQ(sig_a.bytes, canonical_signature(swapped(a), mixed_b).bytes);
}

TEST(Canonical, OrdinalAndAffineKeySpacesAreDisjoint) {
    util::Rng rng(7);
    std::set<std::string> ordinal;
    std::set<std::string> affine;
    for (std::size_t trial = 0; trial < 40; ++trial) {
        const std::size_t players = 2 + rng.next_below(2);
        const NormalFormGame game =
            NormalFormGame::random(std::vector<std::size_t>(players, 2), rng, 0, 2);
        game::ExactMixedProfile mixed(players, {Rational(1, 2), Rational(1, 2)});
        PureProfile actions(players, 0);
        for (std::size_t& action : actions) action = rng.next_below(2);
        const std::string ord = canonical_signature(game, pure(game, actions)).bytes;
        const std::string aff = canonical_signature(game, mixed).bytes;
        EXPECT_TRUE(ord.rfind("bnashQ1:ord:", 0) == 0 || ord.rfind("bnashQ1:sym:ord:", 0) == 0)
            << ord;
        EXPECT_TRUE(aff.rfind("bnashQ1:nrm:", 0) == 0 || aff.rfind("bnashQ1:sym:nrm:", 0) == 0)
            << aff;
        ordinal.insert(ord);
        affine.insert(aff);
    }
    for (const std::string& key : ordinal) EXPECT_EQ(affine.count(key), 0u);
}

TEST(Canonical, MixedCandidateKeysMatchGoldenBytes) {
    // Captured before the ordinal path landed: mixed candidates keep
    // their affine keys byte for byte, so memo entries and traces stay
    // comparable across that change.
    const NormalFormGame a = asymmetric_game();
    const game::ExactMixedProfile mixed_a{{Rational(1, 2), Rational(1, 2)},
                                          {Rational(1, 3), Rational(0), Rational(2, 3)}};
    EXPECT_EQ(canonical_signature(a, mixed_a).bytes,
              "bnashQ1:nrm:2,2,3,|u:1/11,3/5,2/11,1/1,9/11,2/15,0/1,0/1,1/1,2/3,9/11,2/15,"
              "|s:2,1/2,1/2,3,1/3,0/1,2/3,");

    const game::ExactMixedProfile mixed_o{{Rational(1, 2), Rational(1, 2)},
                                          {Rational(0), Rational(1)}};
    EXPECT_EQ(canonical_signature(overflowing_game(), mixed_o).bytes,
              "bnashQ1:raw:2,2,2,|u:0/1,-4611686018427387904/3,0/1,0/1,0/1,0/1,0/1,"
              "4611686018427387904/5,|s:2,0/1,1/1,2,1/2,1/2,");

    NormalFormGame sym({2, 2});
    sym.set_payoffs({0, 0}, {Rational(4), Rational(4)});
    sym.set_payoffs({0, 1}, {Rational(0), Rational(3)});
    sym.set_payoffs({1, 0}, {Rational(3), Rational(0)});
    sym.set_payoffs({1, 1}, {Rational(2), Rational(2)});
    const game::ExactMixedProfile mixed_s{{Rational(1, 3), Rational(2, 3)},
                                          {Rational(1, 3), Rational(2, 3)}};
    EXPECT_EQ(canonical_key(sym, mixed_s, 1, 0, core::GainCriterion::kAnyMemberGains),
              "bnashQ1:sym:nrm:1,2,2,|s:2,1/3,2/3,|u:4,1/1,0/1,3/4,1/2,|q:1,0,0,");
}

// A random strictly increasing remap of each player's distinct payoffs
// (random gaps and denominators, so generally not affine), plus a random
// player relabeling carried through the tensor and the candidate.
std::pair<NormalFormGame, PureProfile> monotone_disguise(const NormalFormGame& game,
                                                         const PureProfile& candidate,
                                                         util::Rng& rng) {
    const std::size_t n = game.num_players();
    std::vector<std::map<Rational, Rational>> remap(n);
    for (std::size_t player = 0; player < n; ++player) {
        for (std::uint64_t rank = 0; rank < game.num_profiles(); ++rank) {
            remap[player].emplace(game.payoff_at(rank, player), Rational());
        }
        Rational next(rng.next_int(-50, 50));
        for (auto& [value, image] : remap[player]) {
            image = next;
            next += Rational(rng.next_int(1, 9), rng.next_int(1, 4));
        }
    }
    // slot[p] = new label of original player p.
    std::vector<std::size_t> slot(n);
    std::iota(slot.begin(), slot.end(), std::size_t{0});
    rng.shuffle(slot);
    std::vector<std::size_t> counts(n);
    PureProfile moved(n);
    for (std::size_t p = 0; p < n; ++p) {
        counts[slot[p]] = game.num_actions(p);
        moved[slot[p]] = candidate[p];
    }
    NormalFormGame out(counts);
    for (std::uint64_t rank = 0; rank < game.num_profiles(); ++rank) {
        const PureProfile cell = game.profile_unrank(rank);
        PureProfile image(n);
        for (std::size_t p = 0; p < n; ++p) image[slot[p]] = cell[p];
        for (std::size_t p = 0; p < n; ++p) {
            out.set_payoff(image, slot[p], remap[p].at(game.payoff_at(rank, p)));
        }
    }
    return {std::move(out), std::move(moved)};
}

std::vector<CellVerdict> verdict_grid(const NormalFormGame& game, const PureProfile& candidate) {
    const std::size_t max_k = std::min<std::size_t>(3, game.num_players());
    const std::size_t max_t = std::min<std::size_t>(2, game.num_players());
    core::RobustnessOptions options;
    options.mode = game::SweepMode::kSerial;
    const core::FrontierVerdict frontier =
        core::batch_robustness_frontier(game, pure(game, candidate), max_k, max_t, options);
    std::vector<CellVerdict> grid;
    for (std::size_t k = 0; k <= max_k; ++k) {
        for (std::size_t t = 0; t <= max_t; ++t) grid.push_back(frontier.verdict(k, t));
    }
    return grid;
}

TEST(CanonicalFuzz, EqualOrdinalKeysMeanEqualVerdictGrids) {
    // Seeded corpus: every third game is a 2x2 binary-payoff game with
    // candidate (0, 0), so unrelated games collide; the rest have 2-6
    // players, 2-3 actions and payoffs in [0, 3] or [-9, 9]. Each game
    // is keyed as uploaded and under two monotone disguises. Any two
    // entries sharing a key — disguises of one game, or unrelated games
    // — must share every (k, t) verdict.
    util::Rng rng(20261016);
    std::map<std::string, std::pair<std::vector<CellVerdict>, std::size_t>> seen;
    std::size_t disguises_folded = 0;
    std::size_t cross_game_collisions = 0;
    for (std::size_t trial = 0; trial < 100; ++trial) {
        const bool tiny = trial % 3 == 0;
        const std::size_t players = tiny ? 2 : 2 + rng.next_below(5);
        std::vector<std::size_t> counts(players, 2);
        if (!tiny) {
            for (std::size_t& count : counts) count += rng.next_below(2);
        }
        const std::int64_t lo = trial % 3 == 2 ? -9 : 0;
        const std::int64_t hi = tiny ? 1 : (trial % 3 == 1 ? 3 : 9);
        const NormalFormGame game = NormalFormGame::random(counts, rng, lo, hi);
        PureProfile candidate(players, 0);
        if (!tiny) {
            for (std::size_t p = 0; p < players; ++p) candidate[p] = rng.next_below(counts[p]);
        }

        std::vector<std::pair<NormalFormGame, PureProfile>> uploads;
        uploads.emplace_back(game, candidate);
        uploads.push_back(monotone_disguise(game, candidate, rng));
        uploads.push_back(monotone_disguise(game, candidate, rng));
        std::string base_key;
        for (std::size_t u = 0; u < uploads.size(); ++u) {
            const auto& [upload, upload_candidate] = uploads[u];
            const CanonicalSignature sig =
                canonical_signature(upload, pure(upload, upload_candidate));
            ASSERT_TRUE(sig.normalized);
            ASSERT_NE(sig.bytes.find("ord:"), std::string::npos) << sig.bytes;
            const std::vector<CellVerdict> grid = verdict_grid(upload, upload_candidate);
            const auto [it, fresh] = seen.try_emplace(sig.bytes, grid, trial);
            if (!fresh) {
                EXPECT_EQ(it->second.first, grid) << "trial " << trial << " vs trial "
                                                  << it->second.second;
                if (it->second.second != trial) ++cross_game_collisions;
            }
            if (u == 0) base_key = sig.bytes;
            if (u > 0 && sig.bytes == base_key) ++disguises_folded;
        }
    }
    // The corpus exercises both kinds of collision. Ties in the player
    // sort key may split a disguise from its game, which only costs a
    // cache miss.
    EXPECT_GT(cross_game_collisions, 0u);  // 9 with this seed
    EXPECT_GE(disguises_folded, 190u);  // 195 of 200 with this seed
}

// ----------------------------------------------------------- verdict cache

TEST(VerdictCacheTest, SingleFlightRoles) {
    VerdictCache cache(4);
    auto first = cache.admit("key");
    ASSERT_EQ(first.role, VerdictCache::Role::kLeader);
    auto second = cache.admit("key");
    ASSERT_EQ(second.role, VerdictCache::Role::kFollower);
    cache.fulfill("key", CellVerdict::kBroken);
    const VerdictCache::Resolution resolution = second.pending.get();
    EXPECT_FALSE(resolution.promoted);
    EXPECT_EQ(resolution.verdict, CellVerdict::kBroken);
    auto third = cache.admit("key");
    EXPECT_EQ(third.role, VerdictCache::Role::kHit);
    EXPECT_EQ(third.verdict, CellVerdict::kBroken);
    const auto stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.waits, 1u);
    EXPECT_EQ(stats.entries, 1u);
}

TEST(VerdictCacheTest, DegradedResultsAreNotMemoized) {
    VerdictCache cache(1);
    auto leader = cache.admit("key");
    ASSERT_EQ(leader.role, VerdictCache::Role::kLeader);
    auto follower = cache.admit("key");
    cache.fulfill("key", CellVerdict::kUnknown);
    // The stampede still resolves (degradation is shared)...
    EXPECT_EQ(follower.pending.get().verdict, CellVerdict::kUnknown);
    // ...but a later request recomputes instead of inheriting kUnknown.
    EXPECT_EQ(cache.admit("key").role, VerdictCache::Role::kLeader);
}

TEST(VerdictCacheTest, FailurePropagatesAndDropsTheEntry) {
    VerdictCache cache(1);
    ASSERT_EQ(cache.admit("key").role, VerdictCache::Role::kLeader);
    auto follower = cache.admit("key");
    cache.fail("key", std::make_exception_ptr(std::runtime_error("poisoned")));
    EXPECT_THROW(follower.pending.get(), std::runtime_error);
    EXPECT_EQ(cache.admit("key").role, VerdictCache::Role::kLeader);
}

TEST(VerdictCacheTest, ClearKeepsInFlightEntries) {
    VerdictCache cache(2);
    ASSERT_EQ(cache.admit("done").role, VerdictCache::Role::kLeader);
    cache.fulfill("done", CellVerdict::kRobust);
    ASSERT_EQ(cache.admit("flying").role, VerdictCache::Role::kLeader);
    cache.clear();
    EXPECT_EQ(cache.admit("done").role, VerdictCache::Role::kLeader);     // dropped
    EXPECT_EQ(cache.admit("flying").role, VerdictCache::Role::kFollower);  // kept
    cache.fulfill("flying", CellVerdict::kRobust);
}

TEST(VerdictCacheTest, CapacityEvictsLeastRecentlyUsed) {
    VerdictCache cache(1, 2);  // one shard so the whole cap is one slice
    EXPECT_EQ(cache.capacity(), 2u);
    ASSERT_EQ(cache.admit("a").role, VerdictCache::Role::kLeader);
    cache.fulfill("a", CellVerdict::kRobust);
    ASSERT_EQ(cache.admit("b").role, VerdictCache::Role::kLeader);
    cache.fulfill("b", CellVerdict::kBroken);
    // Touch "a" so "b" becomes the least recently used entry.
    EXPECT_EQ(cache.admit("a").role, VerdictCache::Role::kHit);
    ASSERT_EQ(cache.admit("c").role, VerdictCache::Role::kLeader);
    cache.fulfill("c", CellVerdict::kRobust);  // over capacity: "b" goes
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.admit("a").role, VerdictCache::Role::kHit);
    EXPECT_EQ(cache.admit("c").role, VerdictCache::Role::kHit);
    EXPECT_EQ(cache.admit("b").role, VerdictCache::Role::kLeader);  // evicted
    cache.fulfill("b", CellVerdict::kBroken);
}

TEST(VerdictCacheTest, InFlightEntriesAreNeverEvicted) {
    VerdictCache cache(1, 1);
    ASSERT_EQ(cache.admit("flying").role, VerdictCache::Role::kLeader);
    ASSERT_EQ(cache.admit("done").role, VerdictCache::Role::kLeader);
    cache.fulfill("done", CellVerdict::kRobust);
    // In-flight entries don't count against the cap and can't be victims:
    // the stampede on "flying" stays single-flight.
    EXPECT_EQ(cache.stats().evictions, 0u);
    auto follower = cache.admit("flying");
    ASSERT_EQ(follower.role, VerdictCache::Role::kFollower);
    cache.fulfill("flying", CellVerdict::kBroken);
    EXPECT_EQ(follower.pending.get().verdict, CellVerdict::kBroken);
    // Memoizing "flying" pushed the shard over its slice: "done" (the
    // older complete entry) is the victim.
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.admit("flying").role, VerdictCache::Role::kHit);
    EXPECT_EQ(cache.admit("done").role, VerdictCache::Role::kLeader);
    cache.fulfill("done", CellVerdict::kRobust);
}

TEST(VerdictCacheTest, DegradedResultsDoNotConsumeCapacity) {
    VerdictCache cache(1, 1);
    ASSERT_EQ(cache.admit("done").role, VerdictCache::Role::kLeader);
    cache.fulfill("done", CellVerdict::kRobust);
    ASSERT_EQ(cache.admit("vague").role, VerdictCache::Role::kLeader);
    cache.fulfill("vague", CellVerdict::kUnknown);  // never memoized
    EXPECT_EQ(cache.stats().evictions, 0u);
    EXPECT_EQ(cache.admit("done").role, VerdictCache::Role::kHit);
}

TEST(VerdictCacheTest, EvictionChurnRacesAnInFlightEntry) {
    // Heavy memoize/evict churn around a key that stays in flight: the
    // in-flight entry must survive every eviction scan, and its
    // followers must still resolve. (The interesting assertions here are
    // TSan's.)
    VerdictCache cache(1, 2);
    ASSERT_EQ(cache.admit("hot").role, VerdictCache::Role::kLeader);
    std::vector<std::thread> churners;
    for (int worker = 0; worker < 4; ++worker) {
        churners.emplace_back([&cache, worker] {
            for (int i = 0; i < 64; ++i) {
                const std::string key = "cold-" + std::to_string(worker) + "-" +
                                        std::to_string(i);
                if (cache.admit(key).role == VerdictCache::Role::kLeader) {
                    cache.fulfill(key, CellVerdict::kRobust);
                }
            }
        });
    }
    auto follower = cache.admit("hot");
    ASSERT_EQ(follower.role, VerdictCache::Role::kFollower);
    for (std::thread& churner : churners) churner.join();
    // "hot" stayed in flight through every eviction scan; fulfilling it
    // now memoizes it as the most recent entry.
    cache.fulfill("hot", CellVerdict::kBroken);
    EXPECT_EQ(follower.pending.get().verdict, CellVerdict::kBroken);
    EXPECT_EQ(cache.admit("hot").role, VerdictCache::Role::kHit);
    EXPECT_GT(cache.stats().evictions, 0u);
}

// ------------------------------------------- cache promotion (hand-off)

TEST(VerdictCacheTest, DegradePromotesTheLongestDeadlineLiveFollower) {
    using Clock = util::ExecutionGrant::Clock;
    VerdictCache cache(1);
    ASSERT_EQ(cache.admit("key").role, VerdictCache::Role::kLeader);

    const auto bounded = std::make_shared<util::ExecutionGrant>(
        util::ExecutionGrant::kUnlimited, Clock::now() + std::chrono::hours(1));
    const auto expired = std::make_shared<util::ExecutionGrant>();
    expired->cancel();
    const auto infinite = std::make_shared<util::ExecutionGrant>();  // no deadline

    auto bounded_waiter = cache.admit("key", bounded);
    auto expired_waiter = cache.admit("key", expired);
    auto infinite_waiter = cache.admit("key", infinite);
    ASSERT_EQ(bounded_waiter.role, VerdictCache::Role::kFollower);
    ASSERT_EQ(expired_waiter.role, VerdictCache::Role::kFollower);
    ASSERT_EQ(infinite_waiter.role, VerdictCache::Role::kFollower);

    // Leader dies: the deadline-free follower outranks the 1h one, and
    // the expired follower is skipped and resolved degraded on the spot.
    EXPECT_TRUE(cache.degrade("key", "token-1"));
    const VerdictCache::Resolution dropped = expired_waiter.pending.get();
    EXPECT_FALSE(dropped.promoted);
    EXPECT_EQ(dropped.verdict, CellVerdict::kUnknown);
    EXPECT_EQ(dropped.checkpoint, "token-1");
    const VerdictCache::Resolution promoted = infinite_waiter.pending.get();
    EXPECT_TRUE(promoted.promoted);
    EXPECT_EQ(promoted.checkpoint, "token-1");
    // The bounded follower keeps waiting on the new leader...
    EXPECT_NE(bounded_waiter.pending.wait_for(std::chrono::milliseconds(0)),
              std::future_status::ready);
    // ...and the entry is still in flight (new arrivals become followers).
    EXPECT_EQ(cache.admit("key").role, VerdictCache::Role::kFollower);
    // The promoted leader finishes the sweep and fulfills as usual.
    cache.fulfill("key", CellVerdict::kRobust);
    EXPECT_EQ(bounded_waiter.pending.get().verdict, CellVerdict::kRobust);
    EXPECT_EQ(cache.stats().promotions, 1u);
}

TEST(VerdictCacheTest, LaterDeadlineWinsThePromotion) {
    using Clock = util::ExecutionGrant::Clock;
    VerdictCache cache(1);
    ASSERT_EQ(cache.admit("key").role, VerdictCache::Role::kLeader);
    const auto near = std::make_shared<util::ExecutionGrant>(
        util::ExecutionGrant::kUnlimited, Clock::now() + std::chrono::hours(1));
    const auto far = std::make_shared<util::ExecutionGrant>(
        util::ExecutionGrant::kUnlimited, Clock::now() + std::chrono::hours(2));
    auto near_waiter = cache.admit("key", near);
    auto far_waiter = cache.admit("key", far);
    EXPECT_TRUE(cache.degrade("key", "tok"));
    EXPECT_TRUE(far_waiter.pending.get().promoted);
    EXPECT_NE(near_waiter.pending.wait_for(std::chrono::milliseconds(0)),
              std::future_status::ready);
    cache.fulfill("key", CellVerdict::kBroken);
    EXPECT_EQ(near_waiter.pending.get().verdict, CellVerdict::kBroken);
}

TEST(VerdictCacheTest, DegradeWithNoLiveFollowerResolvesTheBurst) {
    VerdictCache cache(1);
    ASSERT_EQ(cache.admit("key").role, VerdictCache::Role::kLeader);
    const auto expired = std::make_shared<util::ExecutionGrant>();
    expired->cancel();
    auto waiter = cache.admit("key", expired);
    // The only follower is already expired: nobody can carry the sweep.
    EXPECT_FALSE(cache.degrade("key", "tok"));
    const VerdictCache::Resolution resolution = waiter.pending.get();
    EXPECT_FALSE(resolution.promoted);
    EXPECT_EQ(resolution.verdict, CellVerdict::kUnknown);
    EXPECT_EQ(resolution.checkpoint, "tok");
    // The entry is gone: a retry starts fresh.
    EXPECT_EQ(cache.admit("key").role, VerdictCache::Role::kLeader);
    EXPECT_EQ(cache.stats().promotions, 0u);
}

TEST(VerdictCacheTest, DegradeWithZeroFollowersErasesTheEntry) {
    VerdictCache cache(1);
    ASSERT_EQ(cache.admit("key").role, VerdictCache::Role::kLeader);
    EXPECT_FALSE(cache.degrade("key", "tok"));
    EXPECT_EQ(cache.admit("key").role, VerdictCache::Role::kLeader);
}

// ----------------------------------------------------------------- server

QueryRequest pd_request(std::size_t action, std::size_t k = 1, std::size_t t = 0) {
    QueryRequest request;
    request.game = game::catalog::prisoners_dilemma();
    request.profile = pure(request.game, PureProfile(2, action));
    request.k = k;
    request.t = t;
    return request;
}

// A (2,1)-robust query big enough to truncate under small budgets;
// serial mode so checkpoints land at deterministic task boundaries.
QueryRequest attack_request() {
    QueryRequest request;
    request.game = game::catalog::attack_coordination_game(5);
    request.profile = pure(request.game, PureProfile(5, 1));
    request.k = 2;
    request.t = 1;
    request.mode = game::SweepMode::kSerial;
    return request;
}

TEST(Server, ResolvesExactVerdicts) {
    RobustnessServer server;
    // (D, D) is the PD's Nash equilibrium: (1,0)-robust.
    const QueryResponse robust = server.query(pd_request(1));
    EXPECT_EQ(robust.status, QueryStatus::kResolved);
    EXPECT_EQ(robust.verdict, CellVerdict::kRobust);
    EXPECT_FALSE(robust.cache_hit);
    // (C, C) is not: either player gains by defecting.
    const QueryResponse broken = server.query(pd_request(0));
    EXPECT_EQ(broken.status, QueryStatus::kResolved);
    EXPECT_EQ(broken.verdict, CellVerdict::kBroken);
    const auto stats = server.stats();
    EXPECT_EQ(stats.resolved, 2u);
    EXPECT_EQ(stats.cache_misses, 2u);
}

TEST(Server, BudgetDegradesThenRetryResolvesThenMemoizes) {
    RobustnessServer server;
    QueryRequest request;
    request.game = game::catalog::attack_coordination_game(5);
    request.profile = pure(request.game, PureProfile(5, 1));
    request.k = 2;
    request.t = 1;

    request.budget_cells = 4;
    const QueryResponse degraded = server.query(request);
    EXPECT_EQ(degraded.status, QueryStatus::kDegraded);
    EXPECT_EQ(degraded.verdict, CellVerdict::kUnknown);
    EXPECT_GT(degraded.cells_charged, 0u);
    EXPECT_FALSE(degraded.resume_token.empty());

    request.budget_cells = util::ExecutionGrant::kUnlimited;
    const QueryResponse resolved = server.query(request);
    EXPECT_EQ(resolved.status, QueryStatus::kResolved);
    EXPECT_EQ(resolved.verdict, CellVerdict::kRobust);
    EXPECT_FALSE(resolved.cache_hit);  // the degraded answer was not cached

    const util::WorkCounters before = util::work_counters_snapshot();
    const QueryResponse hit = server.query(request);
    const util::WorkCounters after = util::work_counters_snapshot();
    EXPECT_EQ(hit.status, QueryStatus::kResolved);
    EXPECT_TRUE(hit.cache_hit);
    EXPECT_EQ(hit.cells_charged, 0u);
    // Counter-verified: a cache hit performs no sweep work at all.
    EXPECT_EQ(before.cells_visited, after.cells_visited);
    EXPECT_EQ(before.offsets_advanced, after.offsets_advanced);

    const auto stats = server.stats();
    EXPECT_EQ(stats.degraded, 1u);
    EXPECT_EQ(stats.resolved, 2u);
    EXPECT_EQ(stats.cache_hits, 1u);
    EXPECT_EQ(stats.cache_misses, 2u);  // degraded miss + resolving miss
}

TEST(Server, RescaledUploadHitsTheSameEntry) {
    RobustnessServer server;
    const QueryResponse first = server.query(pd_request(1));
    ASSERT_EQ(first.status, QueryStatus::kResolved);
    QueryRequest rescaled = pd_request(1);
    for (std::uint64_t rank = 0; rank < rescaled.game.num_profiles(); ++rank) {
        const PureProfile cell = rescaled.game.profile_unrank(rank);
        for (std::size_t player = 0; player < 2; ++player) {
            rescaled.game.set_payoff(cell, player,
                                     rescaled.game.payoff_at(rank, player) * 2 + 7);
        }
    }
    const QueryResponse second = server.query(rescaled);
    EXPECT_EQ(second.verdict, first.verdict);
    EXPECT_TRUE(second.cache_hit);
}

TEST(Server, BoundedCacheEvictsAndReports) {
    RobustnessServer::Options options;
    options.cache_shards = 1;
    options.cache_capacity = 1;
    RobustnessServer server(options);
    ASSERT_EQ(server.query(pd_request(1)).status, QueryStatus::kResolved);
    ASSERT_EQ(server.query(pd_request(0)).status, QueryStatus::kResolved);
    EXPECT_EQ(server.stats().cache_evictions, 1u);
    // The evicted entry recomputes: correctness survives bounding, only
    // the repeat-query latency changes.
    const QueryResponse repeat = server.query(pd_request(1));
    EXPECT_EQ(repeat.status, QueryStatus::kResolved);
    EXPECT_EQ(repeat.verdict, CellVerdict::kRobust);
    EXPECT_FALSE(repeat.cache_hit);
}

TEST(Server, SlowTaskAgainstDeadlineDegrades) {
    RobustnessServer server;
    server.set_fault_hook([](util::ExecutionGrant&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    });
    QueryRequest request = pd_request(1);
    request.deadline = std::chrono::milliseconds(1);
    const QueryResponse response = server.query(request);
    EXPECT_EQ(response.status, QueryStatus::kDegraded);
    EXPECT_EQ(response.verdict, CellVerdict::kUnknown);
}

TEST(Server, PoisonedTaskErrorsAndRetrySucceeds) {
    RobustnessServer server;
    server.set_fault_hook([](util::ExecutionGrant&) {
        throw std::runtime_error("injected fault");
    });
    const QueryResponse poisoned = server.query(pd_request(1));
    EXPECT_EQ(poisoned.status, QueryStatus::kError);
    EXPECT_NE(poisoned.error.find("injected fault"), std::string::npos);
    // The failure dropped the in-flight cache entry: a clean retry works.
    server.set_fault_hook(nullptr);
    const QueryResponse retry = server.query(pd_request(1));
    EXPECT_EQ(retry.status, QueryStatus::kResolved);
    EXPECT_EQ(retry.verdict, CellVerdict::kRobust);
    EXPECT_FALSE(retry.cache_hit);
    EXPECT_EQ(server.stats().errors, 1u);
}

TEST(Server, CancelInFlightDegradesInsteadOfBlocking) {
    RobustnessServer::Options options;
    options.num_workers = 1;
    RobustnessServer server(options);
    std::mutex mutex;
    std::condition_variable cv;
    bool started = false;
    bool release = false;
    server.set_fault_hook([&](util::ExecutionGrant&) {
        std::unique_lock<std::mutex> lock(mutex);
        started = true;
        cv.notify_all();
        cv.wait(lock, [&] { return release; });
    });
    RobustnessServer::Submission submission = server.submit(pd_request(1));
    {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return started; });
    }
    submission.grant->cancel();  // the request is mid-flight on the worker
    {
        std::unique_lock<std::mutex> lock(mutex);
        release = true;
        cv.notify_all();
    }
    const QueryResponse response = submission.result.get();
    EXPECT_EQ(response.status, QueryStatus::kDegraded);
    EXPECT_EQ(response.verdict, CellVerdict::kUnknown);
    EXPECT_EQ(server.stats().degraded, 1u);
}

TEST(Server, FullQueueShedsWithRetryAfter) {
    RobustnessServer::Options options;
    options.num_workers = 1;
    options.queue_capacity = 1;
    options.retry_after_ms = 25;
    RobustnessServer server(options);
    std::mutex mutex;
    std::condition_variable cv;
    bool started = false;
    bool release = false;
    server.set_fault_hook([&](util::ExecutionGrant&) {
        std::unique_lock<std::mutex> lock(mutex);
        started = true;
        cv.notify_all();
        cv.wait(lock, [&] { return release; });
    });
    // First request occupies the worker...
    RobustnessServer::Submission first = server.submit(pd_request(1));
    {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return started; });
    }
    // ...second fills the queue, third is shed at admission.
    RobustnessServer::Submission second = server.submit(pd_request(0));
    RobustnessServer::Submission third = server.submit(pd_request(1, 2, 0));
    const QueryResponse shed = third.result.get();
    EXPECT_EQ(shed.status, QueryStatus::kRejected);
    EXPECT_GE(shed.retry_after_ms, 25u);
    {
        std::unique_lock<std::mutex> lock(mutex);
        release = true;
        cv.notify_all();
    }
    EXPECT_EQ(first.result.get().status, QueryStatus::kResolved);
    EXPECT_EQ(second.result.get().status, QueryStatus::kResolved);
    const auto stats = server.stats();
    EXPECT_EQ(stats.accepted, 2u);
    EXPECT_EQ(stats.rejected, 1u);
}

TEST(Server, ConsecutiveShedsBackOffExponentiallyAndResetOnAdmit) {
    RobustnessServer::Options options;
    options.num_workers = 1;
    options.queue_capacity = 1;
    options.retry_after_ms = 10;
    options.retry_backoff_cap = 3;
    RobustnessServer server(options);
    std::atomic<int> entered{0};
    std::atomic<bool> gate{false};
    server.set_fault_hook([&](util::ExecutionGrant&) {
        entered.fetch_add(1);
        while (!gate.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
    // Only cache LEADERS reach the hook, so waiting on `entered` proves
    // the worker has dequeued the blocking request (and the queue slot is
    // free again).
    const auto wait_entered = [&](int count) {
        const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (entered.load() < count && std::chrono::steady_clock::now() < deadline) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        ASSERT_GE(entered.load(), count);
    };
    QueryRequest burst = pd_request(1);
    burst.source = "burst";
    QueryRequest other = pd_request(1);
    other.source = "other";

    // Occupy the worker and fill the queue, then hammer from one source.
    RobustnessServer::Submission in_flight = server.submit(pd_request(1));
    wait_entered(1);
    RobustnessServer::Submission queued = server.submit(pd_request(0));
    // With the queue pinned at depth 1, the base hint is 10 * (1 + 1).
    EXPECT_EQ(server.submit(burst).result.get().retry_after_ms, 20u);   // streak 1
    EXPECT_EQ(server.submit(burst).result.get().retry_after_ms, 40u);   // streak 2
    EXPECT_EQ(server.submit(burst).result.get().retry_after_ms, 80u);   // streak 3
    EXPECT_EQ(server.submit(burst).result.get().retry_after_ms, 160u);  // streak 4
    EXPECT_EQ(server.submit(burst).result.get().retry_after_ms, 160u);  // capped at 2^3
    // A different source keeps its own (fresh) streak.
    EXPECT_EQ(server.submit(other).result.get().retry_after_ms, 20u);

    gate.store(true);
    EXPECT_EQ(in_flight.result.get().status, QueryStatus::kResolved);
    EXPECT_EQ(queued.result.get().status, QueryStatus::kResolved);
    // An ADMITTED request from the burst source resets its streak. (This
    // one is a cache hit, so it never reaches the gate hook.)
    EXPECT_EQ(server.submit(burst).result.get().status, QueryStatus::kResolved);

    // Re-block with UNCACHED queries (memoized ones skip the gate hook).
    gate.store(false);
    RobustnessServer::Submission refill_flight = server.submit(pd_request(1, 2, 0));
    wait_entered(3);  // 1: in_flight, 2: queued, 3: refill_flight
    RobustnessServer::Submission refill_queue = server.submit(pd_request(0, 2, 1));
    // ...so the next shed starts from the base hint again.
    EXPECT_EQ(server.submit(burst).result.get().retry_after_ms, 20u);
    gate.store(true);
    EXPECT_EQ(refill_flight.result.get().status, QueryStatus::kResolved);
    EXPECT_EQ(refill_queue.result.get().status, QueryStatus::kResolved);
}

TEST(Server, CacheStampedeIsSingleFlight) {
    RobustnessServer::Options options;
    options.num_workers = 3;
    RobustnessServer server(options);
    std::mutex mutex;
    std::condition_variable cv;
    bool release = false;
    std::atomic<int> leaders{0};
    server.set_fault_hook([&](util::ExecutionGrant&) {
        leaders.fetch_add(1);  // only cache leaders reach the hook
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return release; });
    });
    RobustnessServer::Submission a = server.submit(pd_request(1));
    RobustnessServer::Submission b = server.submit(pd_request(1));
    RobustnessServer::Submission c = server.submit(pd_request(1));
    // Wait until both non-leaders are parked on the leader's future.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (server.stats().stampede_waits < 2 &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(server.stats().stampede_waits, 2u);
    {
        std::unique_lock<std::mutex> lock(mutex);
        release = true;
        cv.notify_all();
    }
    for (auto* submission : {&a, &b, &c}) {
        const QueryResponse response = submission->result.get();
        EXPECT_EQ(response.status, QueryStatus::kResolved);
        EXPECT_EQ(response.verdict, CellVerdict::kRobust);
    }
    EXPECT_EQ(leaders.load(), 1);  // one sweep served the whole burst
    EXPECT_EQ(server.stats().cache_misses, 1u);
}

TEST(Server, ShutdownRejectsQueuedRequests) {
    std::future<QueryResponse> queued_1;
    std::future<QueryResponse> queued_2;
    std::future<QueryResponse> in_flight;
    std::mutex mutex;
    std::condition_variable cv;
    bool started = false;
    bool release = false;
    std::thread releaser;
    {
        RobustnessServer::Options options;
        options.num_workers = 1;
        options.queue_capacity = 8;
        RobustnessServer server(options);
        server.set_fault_hook([&](util::ExecutionGrant&) {
            std::unique_lock<std::mutex> lock(mutex);
            started = true;
            cv.notify_all();
            cv.wait(lock, [&] { return release; });
        });
        in_flight = server.submit(pd_request(1)).result;
        {
            std::unique_lock<std::mutex> lock(mutex);
            cv.wait(lock, [&] { return started; });
        }
        queued_1 = server.submit(pd_request(0)).result;
        queued_2 = server.submit(pd_request(1, 2, 0)).result;
        // Unblock the worker well after ~RobustnessServer() has latched
        // stopping; the in-flight request finishes, the queued ones drain
        // as rejected.
        releaser = std::thread([&] {
            std::this_thread::sleep_for(std::chrono::milliseconds(30));
            std::unique_lock<std::mutex> lock(mutex);
            release = true;
            cv.notify_all();
        });
    }
    releaser.join();
    EXPECT_EQ(in_flight.get().status, QueryStatus::kResolved);
    EXPECT_EQ(queued_1.get().status, QueryStatus::kRejected);
    EXPECT_EQ(queued_2.get().status, QueryStatus::kRejected);
}

// ---------------------------------------------------------- resume tokens

TEST(ServerResume, BudgetedRetriesChainThroughOneSweep) {
    // Reference: the unbudgeted cost of the query, on a throwaway server
    // so nothing is memoized where the budgeted chain runs.
    std::uint64_t full_cost = 0;
    {
        RobustnessServer reference;
        const QueryResponse unbudgeted = reference.query(attack_request());
        ASSERT_EQ(unbudgeted.status, QueryStatus::kResolved);
        ASSERT_EQ(unbudgeted.verdict, CellVerdict::kRobust);
        full_cost = unbudgeted.cells_charged;
    }
    ASSERT_GT(full_cost, 0u);

    RobustnessServer server;
    QueryRequest request = attack_request();
    request.budget_cells = std::max<std::uint64_t>(full_cost / 4, 1);
    QueryResponse response = server.query(request);
    std::uint64_t total_cells = response.cells_charged;
    std::size_t retries = 0;
    while (response.status == QueryStatus::kDegraded && retries < 64) {
        EXPECT_FALSE(response.resume_token.empty());
        request.resume_token = response.resume_token;
        response = server.query(request);
        total_cells += response.cells_charged;
        ++retries;
    }
    EXPECT_EQ(response.status, QueryStatus::kResolved);
    EXPECT_EQ(response.verdict, CellVerdict::kRobust);
    EXPECT_GE(retries, 2u);
    // The retries seeked past resolved work: the chain costs far less
    // than recomputing from scratch each time. (The tight <= 1.15x gate
    // runs on the large-grid fuzz corpus in test_grant.)
    EXPECT_LT(total_cells, full_cost * retries);

    // The chained verdict is memoized like any exact verdict.
    request.resume_token.clear();
    request.budget_cells = util::ExecutionGrant::kUnlimited;
    EXPECT_TRUE(server.query(request).cache_hit);
}

TEST(ServerResume, TokenFromDifferentRequestIsRejected) {
    RobustnessServer server;
    QueryRequest request = attack_request();
    request.budget_cells = 8;
    const QueryResponse degraded = server.query(request);
    ASSERT_EQ(degraded.status, QueryStatus::kDegraded);
    ASSERT_FALSE(degraded.resume_token.empty());

    // Same token, different (k, t): the checkpoint's task ranks would
    // seek into the wrong enumeration — refused outright.
    QueryRequest other = attack_request();
    other.k = 3;
    other.resume_token = degraded.resume_token;
    const QueryResponse rejected = server.query(other);
    EXPECT_EQ(rejected.status, QueryStatus::kError);
    EXPECT_NE(rejected.error.find("does not match"), std::string::npos);

    // Different game entirely.
    QueryRequest wrong_game = pd_request(1);
    wrong_game.resume_token = degraded.resume_token;
    EXPECT_EQ(server.query(wrong_game).status, QueryStatus::kError);

    // The original request still accepts its own token.
    request.resume_token = degraded.resume_token;
    request.budget_cells = util::ExecutionGrant::kUnlimited;
    const QueryResponse resumed = server.query(request);
    EXPECT_EQ(resumed.status, QueryStatus::kResolved);
    EXPECT_EQ(resumed.verdict, CellVerdict::kRobust);
}

TEST(ServerResume, StaleGenerationAndGarbageTokensAreRejected) {
    RobustnessServer server;
    QueryRequest request = attack_request();
    request.budget_cells = 8;
    const QueryResponse degraded = server.query(request);
    ASSERT_EQ(degraded.status, QueryStatus::kDegraded);

    server.invalidate_resume_tokens();
    request.resume_token = degraded.resume_token;
    request.budget_cells = util::ExecutionGrant::kUnlimited;
    const QueryResponse stale = server.query(request);
    EXPECT_EQ(stale.status, QueryStatus::kError);
    EXPECT_NE(stale.error.find("stale"), std::string::npos);
    EXPECT_EQ(server.stats().tokens_rejected, 1u);

    for (const char* garbage :
         {"zzz", "c.0", "c.0.1.not-a-number", "f.0.1.2.3",
          "c.99999999999999999999999999999999.1.2"}) {
        request.resume_token = garbage;
        const QueryResponse rejected = server.query(request);
        EXPECT_EQ(rejected.status, QueryStatus::kError) << garbage;
    }
    EXPECT_EQ(server.stats().tokens_rejected, 6u);
    // A rejected token leaves no cache debris: the clean query resolves.
    request.resume_token.clear();
    EXPECT_EQ(server.query(request).status, QueryStatus::kResolved);
    // A bad request without a token is an error, not a refused token.
    QueryRequest misshapen = pd_request(0);
    misshapen.profile.pop_back();
    EXPECT_EQ(server.query(misshapen).status, QueryStatus::kError);
    EXPECT_EQ(server.stats().tokens_rejected, 6u);
    EXPECT_EQ(server.stats().errors, 7u);
}

// Regression for a cache-poisoning forgery. The fingerprint a token binds
// to is public, so a client can mint a well-formed token for its own
// request. In the prisoner's dilemma, (C,C) is not even a Nash
// equilibrium, yet a token claiming the resilience phase resumes at task
// 999999 — past the 2-task space — used to read as "every task verified":
// the sweep finished, the server memoized kRobust, and the next honest
// client got it as a cache hit. Out-of-range resume positions now throw in
// every build. An IN-range forgery (next_task = 2 here) is still accepted;
// closing that needs authenticated tokens (a server-keyed MAC).
TEST(ServerResume, OutOfRangeForgedTokenErrorsAndPoisonsNothing) {
    RobustnessServer server;
    QueryRequest forged = pd_request(0);
    const std::uint64_t fingerprint = request_fingerprint(
        forged.game, forged.profile, forged.k, forged.t, forged.criterion, forged.mode);
    forged.resume_token = "c.0." + std::to_string(fingerprint) + ".1.0.999999.0.0";
    const QueryResponse rejected = server.query(forged);
    EXPECT_EQ(rejected.status, QueryStatus::kError);
    EXPECT_EQ(rejected.verdict, CellVerdict::kUnknown);
    EXPECT_NE(rejected.error.find("beyond the task space"), std::string::npos);
    EXPECT_EQ(server.stats().tokens_rejected, 1u);

    const QueryResponse honest = server.query(pd_request(0));
    EXPECT_EQ(honest.status, QueryStatus::kResolved);
    EXPECT_EQ(honest.verdict, CellVerdict::kBroken);
    EXPECT_FALSE(honest.cache_hit);

    // The frontier path seeks through the same check.
    FrontierRequest grid;
    grid.game = game::catalog::prisoners_dilemma();
    grid.profile = pure(grid.game, PureProfile(2, 0));
    grid.max_k = 1;
    grid.max_t = 0;
    const std::uint64_t grid_fingerprint = request_fingerprint(
        grid.game, grid.profile, grid.max_k, grid.max_t, grid.criterion, grid.mode);
    grid.resume_token = "f.0." + std::to_string(grid_fingerprint) + ".1.0.999999.1.0";
    EXPECT_EQ(server.frontier(grid).status, QueryStatus::kError);
    EXPECT_EQ(server.stats().tokens_rejected, 2u);
}

// ------------------------------------------------- promotion, end to end

TEST(Server, LeaderDeathPromotesFollowerWhichFinishesTheSweep) {
    RobustnessServer::Options options;
    options.num_workers = 2;
    RobustnessServer server(options);
    std::atomic<int> arrivals{0};
    server.set_fault_hook([&](util::ExecutionGrant& grant) {
        if (arrivals.fetch_add(1) != 0) return;  // only the first leader dies
        // Wait for a follower to park on us, then starve our grant so the
        // sweep truncates at its first checkpoint.
        const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (server.stats().stampede_waits < 1 &&
               std::chrono::steady_clock::now() < deadline) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        grant.restrict_budget(1);
    });
    RobustnessServer::Submission a = server.submit(attack_request());
    RobustnessServer::Submission b = server.submit(attack_request());
    const QueryResponse ra = a.result.get();
    const QueryResponse rb = b.result.get();

    // One of the two was the dying leader (degraded, with a token); the
    // other inherited the checkpoint, finished the sweep, and resolved.
    const QueryResponse& dead = ra.status == QueryStatus::kDegraded ? ra : rb;
    const QueryResponse& alive = ra.status == QueryStatus::kDegraded ? rb : ra;
    EXPECT_EQ(dead.status, QueryStatus::kDegraded);
    EXPECT_FALSE(dead.resume_token.empty());
    EXPECT_EQ(alive.status, QueryStatus::kResolved);
    EXPECT_EQ(alive.verdict, CellVerdict::kRobust);

    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.cache_promotions, 1u);
    EXPECT_EQ(stats.degraded, 1u);
    EXPECT_EQ(stats.resolved, 1u);
    // The promoted run resumed rather than restarting: both runs
    // together cost about one sweep, not two.
    EXPECT_EQ(arrivals.load(), 2);
}

// A stampede follower may be a disguised equivalent of the leader: the
// same canonical key from other bytes (payoffs cubed here, an ordinal
// transform). When the leader starves after the follower's own deadline
// passed, the follower resolves degraded. The token it gets must resume
// ITS request, not only the leader's, whose bytes the leader's token
// binds to.
TEST(Server, DisguisedDegradedFollowerGetsATokenItCanUse) {
    RobustnessServer::Options options;
    options.num_workers = 2;
    RobustnessServer server(options);
    QueryRequest cubed = attack_request();
    for (std::uint64_t rank = 0; rank < cubed.game.num_profiles(); ++rank) {
        const PureProfile cell = cubed.game.profile_unrank(rank);
        for (std::size_t player = 0; player < cubed.game.num_players(); ++player) {
            const Rational payoff = cubed.game.payoff_at(rank, player);
            cubed.game.set_payoff(cell, player, payoff * payoff * payoff);
        }
    }
    const QueryRequest plain = attack_request();
    ASSERT_EQ(canonical_key(cubed.game, cubed.profile, cubed.k, cubed.t, cubed.criterion),
              canonical_key(plain.game, plain.profile, plain.k, plain.t, plain.criterion));

    std::atomic<int> arrivals{0};
    const auto wait_for = [](const auto& done) {
        const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (!done() && std::chrono::steady_clock::now() < deadline) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    };
    server.set_fault_hook([&](util::ExecutionGrant& grant) {
        if (arrivals.fetch_add(1) != 0) return;  // only the first leader starves
        // Let the follower park and outlive its 5 ms deadline, so the
        // hand-off finds no live follower to promote.
        wait_for([&] { return server.stats().stampede_waits >= 1; });
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        grant.restrict_budget(1);
    });
    RobustnessServer::Submission leader = server.submit(plain);
    wait_for([&] { return arrivals.load() >= 1; });
    QueryRequest follower = cubed;
    follower.deadline = std::chrono::milliseconds(5);
    RobustnessServer::Submission parked = server.submit(follower);
    EXPECT_EQ(leader.result.get().status, QueryStatus::kDegraded);
    const QueryResponse degraded = parked.result.get();
    ASSERT_EQ(degraded.status, QueryStatus::kDegraded);
    EXPECT_TRUE(degraded.cache_hit);
    ASSERT_FALSE(degraded.resume_token.empty());
    EXPECT_EQ(server.stats().cache_promotions, 0u);

    cubed.resume_token = degraded.resume_token;
    const QueryResponse retry = server.query(cubed);
    EXPECT_EQ(retry.status, QueryStatus::kResolved) << retry.error;
    EXPECT_EQ(retry.verdict, CellVerdict::kRobust);
    EXPECT_EQ(server.stats().tokens_rejected, 0u);
}

// ---------------------------------------------------------- fault schedule

TEST(FaultScheduleTest, DrivesEveryDegradationRung) {
    RobustnessServer server;
    FaultSchedule schedule;
    schedule.throw_at(1, "scripted poison");
    schedule.starve_at(2, 4);
    schedule.install(server);

    // Arrival 0: untouched, resolves.
    EXPECT_EQ(server.query(attack_request()).status, QueryStatus::kResolved);
    // Arrival 1: poisoned (different request so the memo doesn't absorb it).
    const QueryResponse poisoned = server.query(pd_request(1));
    EXPECT_EQ(poisoned.status, QueryStatus::kError);
    EXPECT_NE(poisoned.error.find("scripted poison"), std::string::npos);
    // Arrival 2: starved to 4 cells — degrades with a token. (A robust
    // query: a broken one could pin its witness inside the budget and
    // resolve exactly.)
    QueryRequest starved = attack_request();
    starved.k = 1;
    const QueryResponse degraded = server.query(starved);
    EXPECT_EQ(degraded.status, QueryStatus::kDegraded);
    ASSERT_FALSE(degraded.resume_token.empty());
    // ...arrival 3: the resumed retry finishes.
    starved.resume_token = degraded.resume_token;
    const QueryResponse resumed = server.query(starved);
    EXPECT_EQ(resumed.status, QueryStatus::kResolved);
    EXPECT_EQ(schedule.queries_seen(), 4u);
}

// ----------------------------------------------------------- frontier grid

FrontierRequest frontier_request(std::size_t max_k, std::size_t max_t) {
    FrontierRequest request;
    request.game = game::catalog::attack_coordination_game(5);
    request.profile = pure(request.game, PureProfile(5, 1));
    request.max_k = max_k;
    request.max_t = max_t;
    request.mode = game::SweepMode::kSerial;
    return request;
}

TEST(ServerFrontier, StreamsEveryColumnAndResolves) {
    RobustnessServer server;
    std::vector<std::size_t> streamed_ts;
    const FrontierResponse response = server.frontier(
        frontier_request(2, 2),
        [&](std::size_t t, std::size_t breaking_k, const core::RobustnessViolation*) {
            streamed_ts.push_back(t);
            EXPECT_LE(breaking_k, 3u);  // 0..max_k+1
        });
    ASSERT_EQ(response.status, QueryStatus::kResolved);
    EXPECT_TRUE(response.frontier.complete());
    EXPECT_EQ(response.stream_columns, 3u);
    EXPECT_EQ(streamed_ts.size(), 3u);
    EXPECT_EQ(std::set<std::size_t>(streamed_ts.begin(), streamed_ts.end()),
              (std::set<std::size_t>{0, 1, 2}));
    EXPECT_TRUE(response.resume_token.empty());
}

TEST(ServerFrontier, ResumedRetriesReassembleBitIdenticallyWithoutReStreaming) {
    RobustnessServer server;
    // Unbudgeted reference run (frontiers are uncached, so one server is
    // fine).
    const FrontierResponse full = server.frontier(frontier_request(2, 2));
    ASSERT_EQ(full.status, QueryStatus::kResolved);
    const std::uint64_t full_cost = full.cells_charged;
    ASSERT_GT(full_cost, 0u);

    // Budgeted chain: each retry presents the previous token; each
    // column must stream from EXACTLY one run.
    FrontierRequest request = frontier_request(2, 2);
    request.budget_cells = std::max<std::uint64_t>(full_cost / 3, 1);
    std::vector<std::size_t> streamed_ts;
    const auto sink = [&](std::size_t t, std::size_t, const core::RobustnessViolation*) {
        streamed_ts.push_back(t);
    };
    FrontierResponse partial = server.frontier(request, sink);
    core::FrontierVerdict assembled = partial.frontier;
    std::size_t retries = 0;
    while (partial.status == QueryStatus::kDegraded && retries < 64) {
        ASSERT_FALSE(partial.resume_token.empty());
        request.resume_token = partial.resume_token;
        partial = server.frontier(request, sink);
        core::merge_frontier(assembled, partial.frontier);
        ++retries;
    }
    ASSERT_EQ(partial.status, QueryStatus::kResolved);
    EXPECT_GE(retries, 1u);
    // Reassembled grid == the unbudgeted grid, witnesses included.
    EXPECT_EQ(assembled, full.frontier);
    // No column streamed twice, and all columns streamed once overall.
    std::set<std::size_t> unique_ts(streamed_ts.begin(), streamed_ts.end());
    EXPECT_EQ(unique_ts.size(), streamed_ts.size());
    EXPECT_EQ(unique_ts, (std::set<std::size_t>{0, 1, 2}));
}

TEST(ServerFrontier, WrongKindTokenIsRejected) {
    RobustnessServer server;
    // Mint a CELL token, present it to the frontier path (and vice versa).
    QueryRequest cell = attack_request();
    cell.budget_cells = 8;
    const QueryResponse degraded_cell = server.query(cell);
    ASSERT_EQ(degraded_cell.status, QueryStatus::kDegraded);

    FrontierRequest grid = frontier_request(2, 1);
    grid.resume_token = degraded_cell.resume_token;
    const FrontierResponse rejected = server.frontier(grid);
    EXPECT_EQ(rejected.status, QueryStatus::kError);

    grid.resume_token.clear();
    grid.budget_cells = 8;
    const FrontierResponse degraded_grid = server.frontier(grid);
    ASSERT_EQ(degraded_grid.status, QueryStatus::kDegraded);
    QueryRequest cell_with_grid_token = attack_request();
    cell_with_grid_token.resume_token = degraded_grid.resume_token;
    EXPECT_EQ(server.query(cell_with_grid_token).status, QueryStatus::kError);
}

// Tokens minted by budget-starved requests on a fixed game, byte for byte
// as minted before the fingerprint became lazy; resuming from each one
// reproduces the unbudgeted verdict or grid. Serial mode lands the
// checkpoints at deterministic task boundaries.
TEST(ServerResume, StarvedTokensMatchGoldenBytes) {
    RobustnessServer server;
    QueryRequest ask = attack_request();
    const QueryResponse unbudgeted = RobustnessServer{}.query(ask);
    ASSERT_EQ(unbudgeted.status, QueryStatus::kResolved);
    ask.budget_cells = 200;
    const QueryResponse degraded = server.query(ask);
    ASSERT_EQ(degraded.status, QueryStatus::kDegraded);
    EXPECT_EQ(degraded.resume_token, "c.0.11474610264568175207.1.0.8.0.0");
    ask.budget_cells = util::ExecutionGrant::kUnlimited;
    ask.resume_token = degraded.resume_token;
    const QueryResponse resumed = server.query(ask);
    EXPECT_EQ(resumed.status, QueryStatus::kResolved);
    EXPECT_EQ(resumed.verdict, unbudgeted.verdict);

    FrontierRequest grid = frontier_request(2, 2);
    const FrontierResponse full = server.frontier(grid);
    ASSERT_EQ(full.status, QueryStatus::kResolved);
    grid.budget_cells = 200;
    const FrontierResponse partial = server.frontier(grid);
    ASSERT_EQ(partial.status, QueryStatus::kDegraded);
    EXPECT_EQ(partial.resume_token, "f.0.4224598482035055556.1.2.2.3.0");
    grid.budget_cells = util::ExecutionGrant::kUnlimited;
    grid.resume_token = partial.resume_token;
    const FrontierResponse rest = server.frontier(grid);
    ASSERT_EQ(rest.status, QueryStatus::kResolved);
    core::FrontierVerdict assembled = partial.frontier;
    core::merge_frontier(assembled, rest.frontier);
    EXPECT_EQ(assembled, full.frontier);
}

// A frontier token is validated field by field, not only by its
// positions: a real starved token whose open_columns count has been
// raised past the grid's columns is refused (kError) and counted.
TEST(ServerResume, OpenColumnsPastTheGridTokenIsRejected) {
    RobustnessServer server;
    FrontierRequest grid = frontier_request(2, 2);
    grid.budget_cells = 200;
    const FrontierResponse partial = server.frontier(grid);
    ASSERT_EQ(partial.status, QueryStatus::kDegraded);
    // Fields: kind, generation, fingerprint, immunity_done, immunity_ok,
    // next_task, open_columns, then the walk_k_of_t count. The grid has
    // max_t + 1 = 3 columns.
    std::vector<std::string> fields;
    std::istringstream split(partial.resume_token);
    for (std::string field; std::getline(split, field, '.');) fields.push_back(field);
    ASSERT_EQ(fields.size(), 8u);
    fields[6] = "4";
    std::string widened = fields[0];
    for (std::size_t i = 1; i < fields.size(); ++i) widened += "." + fields[i];

    grid.budget_cells = util::ExecutionGrant::kUnlimited;
    grid.resume_token = widened;
    const FrontierResponse rejected = server.frontier(grid);
    EXPECT_EQ(rejected.status, QueryStatus::kError);
    EXPECT_NE(rejected.error.find("open_columns"), std::string::npos) << rejected.error;
    EXPECT_EQ(server.stats().tokens_rejected, 1u);
    // The genuine token still resumes.
    grid.resume_token = partial.resume_token;
    EXPECT_EQ(server.frontier(grid).status, QueryStatus::kResolved);
    EXPECT_EQ(server.stats().tokens_rejected, 1u);
}

// ------------------------------------------------------------- text front

TEST(TextFront, ServesTheLineProtocol) {
    RobustnessServer server;
    std::istringstream in(
        "# prisoners dilemma\n"
        "game 2 2 2\n"
        "payoffs 3 3 -5 5 5 -5 -3 -3\n"
        "profile 1 1\n"
        "ask 1 0\n"
        "profile 0 0\n"
        "ask 1 0\n"
        "mixed 0 1/2 1/2\n"
        "bogus command\n"
        "ask 1 0 999999\n"
        "stats\n"
        "quit\n"
        "ask 1 0\n");
    std::ostringstream out;
    const std::size_t asks = run_text_front(in, out, server);
    EXPECT_EQ(asks, 3u);  // the post-quit ask is never read
    const std::string text = out.str();
    EXPECT_NE(text.find("verdict=robust status=resolved"), std::string::npos);
    EXPECT_NE(text.find("verdict=broken status=resolved"), std::string::npos);
    EXPECT_NE(text.find("error: unknown command 'bogus'"), std::string::npos);
    EXPECT_NE(text.find("accepted=3"), std::string::npos);
}

TEST(TextFront, ReportsParseErrorsAndContinues) {
    RobustnessServer server;
    std::istringstream in(
        "ask 1 0\n"
        "game 2 2\n"
        "game 2 2 2\n"
        "payoffs 1 2 3\n"
        "profile 9 9\n"
        "profile 1 1\n"
        "ask 1 0\n");
    std::ostringstream out;
    const std::size_t asks = run_text_front(in, out, server);
    EXPECT_EQ(asks, 1u);
    const std::string text = out.str();
    EXPECT_NE(text.find("error: no game declared"), std::string::npos);
    EXPECT_NE(text.find("error: game: expected 2 action counts"), std::string::npos);
    EXPECT_NE(text.find("error: payoffs: expected 8 values"), std::string::npos);
    EXPECT_NE(text.find("error: profile: action out of range"), std::string::npos);
    EXPECT_NE(text.find("verdict="), std::string::npos);
}

TEST(TextFront, HardenedAgainstHugeIntegersAndZeroDenominators) {
    RobustnessServer server;
    std::istringstream in(
        "game 2 2 2\n"
        "ask 99999999999999999999999999999999 0\n"
        "payoffs 1/0 0 0 0 0 0 0 0\n"
        "game 184467440737095516151844674407370955161 2\n"
        "profile 1 1\n"
        "ask 1 0\n");
    std::ostringstream out;
    const std::size_t asks = run_text_front(in, out, server);
    // The session survived every malformed line and served the final ask.
    EXPECT_EQ(asks, 1u);
    const std::string text = out.str();
    EXPECT_NE(text.find("error: integer out of range: "
                        "'99999999999999999999999999999999'"),
              std::string::npos);
    EXPECT_NE(text.find("error: rational '1/0': zero denominator"), std::string::npos);
    EXPECT_NE(text.find("error: integer out of range"), std::string::npos);
    EXPECT_NE(text.find("verdict=robust"), std::string::npos);
}

TEST(TextFront, ResumeCommandChainsDegradedAsks) {
    RobustnessServer server;
    // Degrade once under a tiny budget, then resume with full budget.
    std::istringstream setup(
        "game 2 2 2\n"
        "payoffs 3 3 -5 5 5 -5 -3 -3\n"
        "profile 1 1\n"
        "mode serial\n"
        "ask 2 1 4\n");
    std::ostringstream out;
    run_text_front(setup, out, server);
    const std::string first = out.str();
    const std::size_t token_at = first.find("token=");
    ASSERT_NE(token_at, std::string::npos) << first;
    std::string token = first.substr(token_at + 6);
    token = token.substr(0, token.find_first_of(" \n"));

    std::istringstream retry(
        "game 2 2 2\n"
        "payoffs 3 3 -5 5 5 -5 -3 -3\n"
        "profile 1 1\n"
        "mode serial\n"
        "resume " + token + "\n"
        "ask 2 1\n");
    std::ostringstream out2;
    run_text_front(retry, out2, server);
    EXPECT_NE(out2.str().find("status=resolved"), std::string::npos) << out2.str();

    // A refused token is an error reply, and the stats line counts it.
    std::istringstream forged(
        "game 2 2 2\n"
        "payoffs 3 3 -5 5 5 -5 -3 -3\n"
        "profile 1 1\n"
        "resume c.0.1\n"
        "ask 2 1\n"
        "stats\n");
    std::ostringstream out3;
    run_text_front(forged, out3, server);
    EXPECT_NE(out3.str().find("tokens_rejected=1"), std::string::npos) << out3.str();
}

TEST(TextFront, FrontierStreamsColumnsAndTerminates) {
    RobustnessServer server;
    std::istringstream in(
        "game 2 2 2\n"
        "payoffs 3 3 -5 5 5 -5 -3 -3\n"
        "profile 1 1\n"
        "mode serial\n"
        "frontier 1 1\n");
    std::ostringstream out;
    run_text_front(in, out, server);
    const std::string text = out.str();
    EXPECT_NE(text.find("col 0 "), std::string::npos) << text;
    EXPECT_NE(text.find("col 1 "), std::string::npos) << text;
    EXPECT_NE(text.find("done cells="), std::string::npos) << text;
    EXPECT_NE(text.find("cols=2"), std::string::npos) << text;
}

// Drives one LineSession directly and returns each command's replies.
class ScriptedSession final {
public:
    explicit ScriptedSession(RobustnessServer& server) : session_(server) {}

    std::vector<std::string> send(std::string_view line) {
        std::vector<std::string> replies;
        (void)session_.handle_line(line, [&replies](const std::string& reply) {
            replies.push_back(reply);
            return true;
        });
        return replies;
    }
    // The reply of a one-line command ("" when it did not answer exactly once).
    std::string reply(std::string_view line) {
        std::vector<std::string> replies = send(line);
        return replies.size() == 1 ? replies[0] : std::string();
    }
    [[nodiscard]] const LineSession& session() const noexcept { return session_; }

private:
    LineSession session_;
};

// A `payoffs` line with a bad token must not leave the tokens before it
// committed: the re-ask still sees the first tensor, where (0,0) of this
// prisoner's dilemma is broken. Committing 9 9 0 5 5 0 1 would make it
// robust.
const char* kRejectedPayoffsScript[] = {
    "game 2 2 2",       "payoffs 3 3 0 5 5 0 1 1",     "profile 0 0",
    "ask 1 0",          "payoffs 9 9 0 5 5 0 1 1/0",   "ask 1 0"};

TEST(TextFront, RejectedPayoffsLeaveTheGameUnchanged) {
    RobustnessServer server;
    std::string script;
    for (const char* line : kRejectedPayoffsScript) (script += line) += '\n';
    std::istringstream in(script);
    std::ostringstream out;
    EXPECT_EQ(run_text_front(in, out, server), 2u);
    std::vector<std::string> lines;
    std::istringstream replies(out.str());
    for (std::string line; std::getline(replies, line);) lines.push_back(line);
    ASSERT_EQ(lines.size(), 6u) << out.str();
    EXPECT_EQ(lines[3].rfind("verdict=broken status=resolved", 0), 0u) << lines[3];
    EXPECT_NE(lines[4].find("error: rational '1/0': zero denominator"), std::string::npos)
        << lines[4];
    EXPECT_EQ(lines[5].rfind("verdict=broken status=resolved", 0), 0u) << lines[5];

    // The tensor itself, exact and double, is untouched by a refused line
    // whatever the position of the bad token.
    ScriptedSession session(server);
    ASSERT_EQ(session.reply("game 2 2 2"), "ok");
    ASSERT_EQ(session.reply("payoffs 3 3 0 5 5 0 1 1"), "ok");
    ASSERT_NE(session.session().game(), nullptr);
    const NormalFormGame before = *session.session().game();
    for (const char* bad : {"payoffs x 9 0 5 5 0 1 1", "payoffs 9 9 0 5 x 0 1 1",
                            "payoffs 9 9 0 5 5 0 1 99999999999999999999"}) {
        EXPECT_EQ(session.reply(bad).rfind("error: ", 0), 0u) << bad;
        EXPECT_EQ(session.session().game()->payoffs_flat(), before.payoffs_flat()) << bad;
        EXPECT_EQ(session.session().game()->payoffs_d_flat(), before.payoffs_d_flat()) << bad;
    }
}

// Likewise `profile`: an out-of-range action for a later player must not
// leave the earlier players' actions switched. (1,1) is robust here; the
// half-written (0,1) would be broken.
TEST(TextFront, RejectedProfileLeavesTheCandidateUnchanged) {
    RobustnessServer server;
    ScriptedSession session(server);
    ASSERT_EQ(session.reply("game 2 2 2"), "ok");
    ASSERT_EQ(session.reply("payoffs 3 3 0 5 5 0 1 1"), "ok");
    ASSERT_EQ(session.reply("profile 1 1"), "ok");
    EXPECT_EQ(session.reply("ask 1 0").rfind("verdict=robust status=resolved", 0), 0u);
    EXPECT_EQ(session.reply("profile 0 9"), "error: profile: action out of range for player 1");
    EXPECT_EQ(session.reply("ask 1 0").rfind("verdict=robust status=resolved", 0), 0u);
}

TEST(TextFront, UploadCapRefusesOversizedGamesAndKeepsTheSession) {
    RobustnessServer server;
    ScriptedSession session(server);
    ASSERT_EQ(session.reply("game 2 2 2"), "ok");
    ASSERT_EQ(session.reply("payoffs 3 3 0 5 5 0 1 1"), "ok");
    ASSERT_EQ(session.reply("profile 0 0"), "ok");
    // 30 players x 2^30 profiles: refused before anything is allocated.
    std::string huge = "game 30";
    for (int i = 0; i < 30; ++i) huge += " 2";
    EXPECT_EQ(session.reply(huge),
              "error: game: payoff tensor exceeds upload cap of 4194304 entries");
    // A product that overflows 64 bits is refused the same way.
    EXPECT_EQ(session.reply("game 3 4294967296 4294967296 4294967296"),
              "error: game: payoff tensor exceeds upload cap of 4194304 entries");
    // The previous game and candidate are intact.
    ASSERT_NE(session.session().game(), nullptr);
    EXPECT_EQ(session.session().game()->action_counts(), (std::vector<std::size_t>{2, 2}));
    EXPECT_EQ(session.reply("ask 1 0").rfind("verdict=broken status=resolved", 0), 0u);

    // The cap counts num_profiles * num_players entries: one entry over
    // it is refused, whether the excess comes from profiles or players.
    EXPECT_EQ(session.reply("game 1 4194305"),
              "error: game: payoff tensor exceeds upload cap of 4194304 entries");
    EXPECT_EQ(session.reply("game 2 2097153 1"),
              "error: game: payoff tensor exceeds upload cap of 4194304 entries");
    EXPECT_EQ(session.session().game()->action_counts(), (std::vector<std::size_t>{2, 2}));
}

// The token grammar std::stoll gave the parser, pinned token by token:
// each accepted token with its value, each rejected one with its message.
TEST(TextFront, NumberGrammarMatchesLegacyParser) {
    struct Accepted final {
        std::string_view token;
        Rational value;
    };
    const Accepted accepted[] = {
        {"3", Rational(3)},
        {"+3", Rational(3)},
        {"-3", Rational(-3)},
        {"007", Rational(7)},
        {"+3/+4", Rational(3, 4)},
        {"-0", Rational(0)},
        {"-9223372036854775808", Rational(std::numeric_limits<std::int64_t>::min())},
        {"9223372036854775807", Rational(std::numeric_limits<std::int64_t>::max())},
        {"3/-6", Rational(-1, 2)},
        {"-6/-4", Rational(3, 2)},
        {"0/5", Rational(0)},
    };
    struct Rejected final {
        std::string_view token;
        std::string_view error;
    };
    const Rejected rejected[] = {
        {"3/", "expected an integer, got ''"},
        {"/3", "expected an integer, got ''"},
        {"1/2/3", "trailing junk in '2/3'"},
        {"++3", "expected an integer, got '++3'"},
        {"+-3", "expected an integer, got '+-3'"},
        {"-+3", "expected an integer, got '-+3'"},
        {"+", "expected an integer, got '+'"},
        {"-", "expected an integer, got '-'"},
        {"x", "expected an integer, got 'x'"},
        {"3x", "trailing junk in '3x'"},
        {"1.5", "trailing junk in '1.5'"},
        {"0x10", "trailing junk in '0x10'"},
        {"9223372036854775808", "integer out of range: '9223372036854775808'"},
        {"-9223372036854775809", "integer out of range: '-9223372036854775809'"},
        {"1/0", "rational '1/0': zero denominator"},
        {"-9223372036854775808/-1", "Rational overflow"},
    };

    RobustnessServer server;
    ScriptedSession session(server);
    ASSERT_EQ(session.reply("game 1 1"), "ok");
    for (const Accepted& one : accepted) {
        EXPECT_EQ(session.reply("payoffs " + std::string(one.token)), "ok") << one.token;
        EXPECT_EQ(session.session().game()->payoff_at(0, 0), one.value) << one.token;
        EXPECT_EQ(session.session().game()->payoff_d_at(0, 0), one.value.to_double())
            << one.token;
    }
    ASSERT_EQ(session.reply("payoffs 5"), "ok");
    for (const Rejected& one : rejected) {
        const std::string reply = session.reply("payoffs " + std::string(one.token));
        EXPECT_EQ(reply.rfind("error: ", 0), 0u) << one.token << " -> " << reply;
        EXPECT_NE(reply.find(one.error), std::string::npos) << one.token << " -> " << reply;
        EXPECT_EQ(session.session().game()->payoff_at(0, 0), Rational(5)) << one.token;
    }
    // Integer arguments share the grammar: a '+' sign and "-0" are sizes.
    EXPECT_NE(session.reply("ask +1 -0").find("status=resolved"), std::string::npos);
    EXPECT_EQ(session.reply("ask 1 -1"),
              "error: expected a non-negative integer, got -1");

    // Tab, \v, \f and \r separate tokens anywhere on the line.
    EXPECT_EQ(session.reply("payoffs\t6"), "ok");
    EXPECT_EQ(session.session().game()->payoff_at(0, 0), Rational(6));
    EXPECT_EQ(session.reply("\v payoffs\f\f7/2\r"), "ok");
    EXPECT_EQ(session.session().game()->payoff_at(0, 0), Rational(7, 2));
    EXPECT_TRUE(session.send(" \t\r").empty());         // blank: no reply
    EXPECT_TRUE(session.send("\t# comment").empty());  // comment: no reply

    // CRLF lines on the stdin front.
    std::istringstream in(
        "game\t2 2 2\r\n"
        "payoffs 3 3 -5 5 5 -5 -3 -3\r\n"
        "profile 1 1\r\n"
        "ask 1 0\r\n");
    std::ostringstream out;
    EXPECT_EQ(run_text_front(in, out, server), 1u);
    EXPECT_EQ(out.str().rfind("ok\nok\nok\nverdict=robust status=resolved", 0), 0u) << out.str();
}

// The `payoffs` line as clients render it (Rational::to_string in flat
// tensor order) reproduces the source tensor exactly, doubles included.
TEST(TextFront, PayoffsLineRoundTripsRandomGames) {
    util::Rng rng(15);
    RobustnessServer server;
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<std::size_t> counts(2 + rng.next_below(5));
        for (std::size_t& count : counts) count = 2 + rng.next_below(2);
        NormalFormGame source = NormalFormGame::random(counts, rng);
        if (trial % 2 == 1) {
            // Per-player fractional rescale, so tokens carry "a/b" forms.
            for (std::size_t player = 0; player < counts.size(); ++player) {
                const Rational scale(rng.next_int(1, 7), rng.next_int(1, 9));
                const Rational shift(rng.next_int(-5, 5), rng.next_int(1, 6));
                for (std::uint64_t rank = 0; rank < source.num_profiles(); ++rank) {
                    source.set_payoff(source.profile_unrank(rank), player,
                                      source.payoff_at(rank, player) * scale + shift);
                }
            }
        }
        std::string header = "game " + std::to_string(counts.size());
        for (const std::size_t count : counts) (header += ' ') += std::to_string(count);
        std::string payoffs = "payoffs";
        for (const Rational& value : source.payoffs_flat()) (payoffs += ' ') += value.to_string();

        ScriptedSession session(server);
        ASSERT_EQ(session.reply(header), "ok") << header;
        ASSERT_EQ(session.reply(payoffs), "ok") << "trial " << trial;
        const NormalFormGame& uploaded = *session.session().game();
        EXPECT_EQ(uploaded.action_counts(), source.action_counts()) << "trial " << trial;
        EXPECT_EQ(uploaded.payoffs_flat(), source.payoffs_flat()) << "trial " << trial;
        EXPECT_EQ(uploaded.payoffs_d_flat(), source.payoffs_d_flat()) << "trial " << trial;
    }
}

// A 7-player, 3-action upload (15309 payoff tokens) outgrows the token
// buffer a session keeps between lines; the lines after it still parse.
TEST(TextFront, SessionKeepsWorkingAfterAVeryLongLine) {
    util::Rng rng(7);
    const NormalFormGame source = NormalFormGame::random(std::vector<std::size_t>(7, 3), rng);
    std::string payoffs = "payoffs";
    for (const Rational& value : source.payoffs_flat()) (payoffs += ' ') += value.to_string();

    RobustnessServer server;
    ScriptedSession session(server);
    ASSERT_EQ(session.reply("game 7 3 3 3 3 3 3 3"), "ok");
    ASSERT_EQ(session.reply(payoffs), "ok");
    EXPECT_EQ(session.session().game()->payoffs_flat(), source.payoffs_flat());
    ASSERT_EQ(session.reply("game 2 2 2"), "ok");
    ASSERT_EQ(session.reply("payoffs 3 3 0 5 5 0 1 1"), "ok");
    ASSERT_EQ(session.reply("profile 0 0"), "ok");
    EXPECT_EQ(session.reply("ask 1 0").rfind("verdict=broken status=resolved", 0), 0u);
}

// One ordinal rank build per uploaded tensor, shared by the cache key and
// every sweep of the session's copies: eight frontier requests cost one
// build, a pure ask and its three resume legs one, a mixed ask none, and
// every re-upload one more.
TEST(TextFront, OneRankBuildPerUpload) {
    util::Rng rng(16);
    NormalFormGame source = NormalFormGame::random(std::vector<std::size_t>(5, 3), rng, -4, 4);
    // The all-zeros candidate pays everyone the maximum: no coalition
    // ever gains, so a starved budget keeps degrading until the chain
    // has covered the whole sweep.
    source.set_payoffs(PureProfile(5, 0), std::vector<Rational>(5, Rational{9}));
    std::string payoffs = "payoffs";
    for (const Rational& value : source.payoffs_flat()) (payoffs += ' ') += value.to_string();

    RobustnessServer server;
    ScriptedSession session(server);
    const auto upload = [&] {
        ASSERT_EQ(session.reply("game 5 3 3 3 3 3"), "ok");
        ASSERT_EQ(session.reply(payoffs), "ok");
    };
    const auto builds = [] { return NormalFormGame::rank_builds(); };

    upload();
    std::uint64_t before = builds();
    for (std::size_t i = 0; i < 8; ++i) {
        const std::string a = std::to_string(i % 3);
        ASSERT_EQ(session.reply("profile " + a + " 0 " + a + " 1 2"), "ok");
        const std::vector<std::string> replies = session.send("frontier 2 1");
        ASSERT_FALSE(replies.empty());
        EXPECT_EQ(replies.back().rfind("done cells=", 0), 0u) << replies.back();
    }
    EXPECT_EQ(builds(), before + 1);

    upload();
    before = builds();
    ASSERT_EQ(session.reply("profile 0 0 0 0 0"), "ok");
    ASSERT_EQ(session.reply("mixed 1 1/2 1/4 1/4"), "ok");
    EXPECT_EQ(session.reply("ask 1 0").rfind("verdict=", 0), 0u);
    EXPECT_EQ(builds(), before);

    ASSERT_EQ(session.reply("profile 0 0 0 0 0"), "ok");
    std::string reply = session.reply("ask 2 0 20");
    for (int leg = 0; leg < 3; ++leg) {
        const std::size_t at = reply.find(" token=");
        ASSERT_NE(at, std::string::npos) << "leg " << leg << ": " << reply;
        EXPECT_EQ(reply.rfind("verdict=unknown status=degraded", 0), 0u) << reply;
        ASSERT_EQ(session.reply("resume " + reply.substr(at + 7)), "ok");
        reply = session.reply("ask 2 0 20");
    }
    EXPECT_EQ(reply.rfind("verdict=", 0), 0u) << reply;
    EXPECT_EQ(builds(), before + 1);

    // Re-uploading the same tensor is a new game: one more build.
    upload();
    ASSERT_EQ(session.reply("profile 0 0 0 0 0"), "ok");
    EXPECT_EQ(session.reply("ask 2 0").rfind("verdict=robust status=resolved", 0), 0u);
    EXPECT_EQ(builds(), before + 2);
}

// ------------------------------------------------------------ socket front

// Runs the TCP front on a background thread; joins (and surfaces the
// front's stats) on stop().
class SocketHarness final {
public:
    explicit SocketHarness(RobustnessServer& server, SocketFrontOptions options = {}) {
        std::promise<std::uint16_t> port_promise;
        options.on_listen = [&port_promise](std::uint16_t port) {
            port_promise.set_value(port);
        };
        thread_ = std::thread([this, &server, options] {
            stats_ = run_socket_front(server, options, stop_);
        });
        port_ = port_promise.get_future().get();
    }
    ~SocketHarness() { stop(); }

    void stop() {
        if (thread_.joinable()) {
            stop_.store(true);
            thread_.join();
        }
    }
    [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
    // Valid after stop().
    [[nodiscard]] const SocketFrontStats& stats() const noexcept { return stats_; }

private:
    std::atomic<bool> stop_{false};
    std::uint16_t port_ = 0;
    SocketFrontStats stats_;
    std::thread thread_;
};

class TestClient final {
public:
    explicit TestClient(std::uint16_t port) {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(port);
        connected_ =
            fd_ >= 0 &&
            ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0;
    }
    ~TestClient() {
        if (fd_ >= 0) ::close(fd_);
    }
    TestClient(const TestClient&) = delete;
    TestClient& operator=(const TestClient&) = delete;

    [[nodiscard]] bool connected() const noexcept { return connected_; }

    bool send_raw(const std::string& data) {
        std::size_t sent = 0;
        while (sent < data.size()) {
            const ssize_t wrote =
                ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
            if (wrote < 0) return false;
            sent += static_cast<std::size_t>(wrote);
        }
        return true;
    }
    bool send_line(const std::string& line) { return send_raw(line + "\n"); }

    // One reply line, or nullopt on EOF / timeout.
    std::optional<std::string> read_line(
        std::chrono::milliseconds timeout = std::chrono::seconds(20)) {
        const auto deadline = std::chrono::steady_clock::now() + timeout;
        while (true) {
            const std::size_t newline = buffer_.find('\n');
            if (newline != std::string::npos) {
                std::string line = buffer_.substr(0, newline);
                buffer_.erase(0, newline + 1);
                return line;
            }
            const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - std::chrono::steady_clock::now());
            if (remaining.count() <= 0) return std::nullopt;
            pollfd poll_fd{fd_, POLLIN, 0};
            const int ready = ::poll(&poll_fd, 1, static_cast<int>(remaining.count()));
            if (ready <= 0) {
                if (ready < 0 && errno == EINTR) continue;
                return std::nullopt;
            }
            char chunk[4096];
            const ssize_t got = ::recv(fd_, chunk, sizeof chunk, 0);
            if (got <= 0) return std::nullopt;  // EOF
            buffer_.append(chunk, static_cast<std::size_t>(got));
        }
    }

private:
    int fd_ = -1;
    bool connected_ = false;
    std::string buffer_;
};

const char* kPdSetup[] = {"game 2 2 2", "payoffs 3 3 -5 5 5 -5 -3 -3", "profile 1 1",
                          "mode serial"};

void setup_pd(TestClient& client) {
    for (const char* line : kPdSetup) {
        ASSERT_TRUE(client.send_line(line));
        const auto reply = client.read_line();
        ASSERT_TRUE(reply.has_value());
        ASSERT_EQ(*reply, "ok");
    }
}

TEST(SocketFront, ServesAsksAndStreamsFrontiers) {
    RobustnessServer server;
    SocketHarness harness(server);
    {
        TestClient client(harness.port());
        ASSERT_TRUE(client.connected());
        setup_pd(client);

        ASSERT_TRUE(client.send_line("ask 1 0"));
        const auto verdict = client.read_line();
        ASSERT_TRUE(verdict.has_value());
        EXPECT_NE(verdict->find("verdict=robust status=resolved"), std::string::npos);

        ASSERT_TRUE(client.send_line("frontier 1 1"));
        std::vector<std::string> lines;
        for (int i = 0; i < 3; ++i) {
            const auto line = client.read_line();
            ASSERT_TRUE(line.has_value());
            lines.push_back(*line);
        }
        EXPECT_EQ(lines[0].rfind("col 0 ", 0), 0u) << lines[0];
        EXPECT_EQ(lines[1].rfind("col 1 ", 0), 0u) << lines[1];
        EXPECT_EQ(lines[2].rfind("done cells=", 0), 0u) << lines[2];

        ASSERT_TRUE(client.send_line("quit"));
        EXPECT_FALSE(client.read_line(std::chrono::seconds(5)).has_value());  // closed
    }
    harness.stop();
    EXPECT_EQ(harness.stats().connections, 1u);
    EXPECT_GT(harness.stats().lines, 0u);
}

TEST(SocketFront, ParserHardeningKeepsTheSessionAlive) {
    RobustnessServer server;
    SocketHarness harness(server);
    TestClient client(harness.port());
    ASSERT_TRUE(client.connected());
    setup_pd(client);

    ASSERT_TRUE(client.send_line("ask 99999999999999999999999999999999 0"));
    auto reply = client.read_line();
    ASSERT_TRUE(reply.has_value());
    EXPECT_NE(reply->find("error: integer out of range"), std::string::npos) << *reply;

    ASSERT_TRUE(client.send_line("payoffs 1/0 0 0 0 0 0 0 0"));
    reply = client.read_line();
    ASSERT_TRUE(reply.has_value());
    EXPECT_NE(reply->find("error: rational '1/0': zero denominator"), std::string::npos)
        << *reply;

    // The connection survived both malformed commands.
    ASSERT_TRUE(client.send_line("ask 1 0"));
    reply = client.read_line();
    ASSERT_TRUE(reply.has_value());
    EXPECT_NE(reply->find("verdict=robust"), std::string::npos) << *reply;
}

TEST(SocketFront, PipelineOverflowCloses) {
    RobustnessServer server;
    SocketFrontOptions options;
    options.max_pipeline = 4;
    SocketHarness harness(server);  // defaults for the control client
    SocketHarness bounded(server, options);
    TestClient client(bounded.port());
    ASSERT_TRUE(client.connected());
    // 50 commands in one write, none of their replies read: far past the
    // pipelining bound.
    std::string blast;
    for (int i = 0; i < 50; ++i) blast += "stats\n";
    ASSERT_TRUE(client.send_raw(blast));
    // Eventually the error line arrives, then EOF.
    std::optional<std::string> line;
    bool saw_overflow = false;
    while ((line = client.read_line(std::chrono::seconds(5))).has_value()) {
        if (line->find("error: pipeline overflow") != std::string::npos) saw_overflow = true;
    }
    EXPECT_TRUE(saw_overflow);
    bounded.stop();
    EXPECT_EQ(bounded.stats().pipeline_closes, 1u);
}

TEST(SocketFront, ReadDeadlineReapsSilentConnections) {
    RobustnessServer server;
    SocketFrontOptions options;
    options.read_deadline = std::chrono::milliseconds(100);
    SocketHarness harness(server, options);
    TestClient client(harness.port());
    ASSERT_TRUE(client.connected());
    // A partial command with no newline: the slowloris case.
    ASSERT_TRUE(client.send_raw("gam"));
    const auto reply = client.read_line(std::chrono::seconds(10));
    ASSERT_TRUE(reply.has_value());
    EXPECT_NE(reply->find("error: read deadline exceeded"), std::string::npos);
    EXPECT_FALSE(client.read_line(std::chrono::seconds(5)).has_value());  // EOF
    harness.stop();
    EXPECT_EQ(harness.stats().deadline_closes, 1u);
}

TEST(SocketFront, ScheduledStreamDropSeversMidFrontier) {
    RobustnessServer server;
    FaultSchedule faults;
    faults.drop_stream_after(0, 1);  // first connection: one column, then cut
    SocketFrontOptions options;
    options.faults = &faults;
    SocketHarness harness(server, options);
    TestClient client(harness.port());
    ASSERT_TRUE(client.connected());
    setup_pd(client);

    ASSERT_TRUE(client.send_line("frontier 1 1"));
    const auto first = client.read_line();
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->rfind("col 0 ", 0), 0u) << *first;
    // The second column never arrives: the connection died mid-stream.
    EXPECT_FALSE(client.read_line(std::chrono::seconds(10)).has_value());
    harness.stop();
    EXPECT_EQ(harness.stats().stream_drops, 1u);
}

TEST(SocketFront, OverCapacityConnectionsAreTurnedAway) {
    RobustnessServer server;
    SocketFrontOptions options;
    options.max_connections = 1;
    SocketHarness harness(server, options);
    TestClient first(harness.port());
    ASSERT_TRUE(first.connected());
    ASSERT_TRUE(first.send_line("stats"));
    ASSERT_TRUE(first.read_line().has_value());  // the slot is provably taken
    TestClient second(harness.port());
    ASSERT_TRUE(second.connected());
    const auto reply = second.read_line(std::chrono::seconds(10));
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(*reply, "error: too many connections");
    EXPECT_FALSE(second.read_line(std::chrono::seconds(5)).has_value());
    harness.stop();
    EXPECT_EQ(harness.stats().rejected, 1u);
}

TEST(SocketFront, RejectedPayoffsLeaveTheGameUnchanged) {
    RobustnessServer server;
    SocketHarness harness(server);
    TestClient client(harness.port());
    ASSERT_TRUE(client.connected());
    std::vector<std::string> replies;
    for (const char* line : kRejectedPayoffsScript) {
        ASSERT_TRUE(client.send_line(line));
        const auto reply = client.read_line();
        ASSERT_TRUE(reply.has_value()) << line;
        replies.push_back(*reply);
    }
    EXPECT_EQ(replies[3].rfind("verdict=broken status=resolved", 0), 0u) << replies[3];
    EXPECT_NE(replies[4].find("error: rational '1/0': zero denominator"), std::string::npos)
        << replies[4];
    EXPECT_EQ(replies[5].rfind("verdict=broken status=resolved", 0), 0u) << replies[5];
}

TEST(SocketFront, UploadCapRefusesOversizedGamesAndKeepsTheSession) {
    RobustnessServer server;
    SocketHarness harness(server);
    TestClient client(harness.port());
    ASSERT_TRUE(client.connected());
    setup_pd(client);

    std::string huge = "game 30";
    for (int i = 0; i < 30; ++i) huge += " 2";
    ASSERT_TRUE(client.send_line(huge));
    auto reply = client.read_line();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(*reply, "error: game: payoff tensor exceeds upload cap of 4194304 entries");

    // The connection and its prisoner's dilemma both survived.
    ASSERT_TRUE(client.send_line("ask 1 0"));
    reply = client.read_line();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->rfind("verdict=robust status=resolved", 0), 0u) << *reply;
}

}  // namespace
}  // namespace bnash::serve
