// Self-tests of the benchmark's generator and checks. Run with
// `python3 servebench/run.py --selftest`, which also checks that the
// driver counts a deliberately flipped expectation as a failure.
//
//   1. One seed gives a byte-identical stream, whatever the thread count;
//      another seed gives a different one.
//   2. The disguise transform (player relabeling plus per-player positive
//      affine rescale) preserves every verdict of the (k, t) grid.
//   3. Planted verdicts match the direct checker over a small seed set,
//      for pure and mixed candidates.
//   4. verdict_ok rejects a grid that disagrees with the planted verdict.
#include <cstdio>
#include <string>
#include <vector>

#include "core/robust/robustness.h"
#include "game/catalog.h"
#include "traffic.h"
#include "util/rational.h"

namespace {

using namespace bnash;
using servebench::Grid;
using servebench::Request;
using servebench::Traffic;
using servebench::Workload;

int g_failures = 0;

void expect(bool condition, const std::string& what) {
    if (condition) return;
    ++g_failures;
    std::printf("FAIL: %s\n", what.c_str());
}

Grid frontier_of(const game::NormalFormGame& game, const game::ExactMixedProfile& profile,
                 std::size_t max_k, std::size_t max_t) {
    const core::FrontierVerdict grid = core::batch_robustness_frontier(
        game, profile, max_k, max_t,
        {core::GainCriterion::kAnyMemberGains, game::SweepMode::kSerial});
    Grid out;
    for (std::size_t k = 0; k <= max_k; ++k) {
        for (std::size_t t = 0; t <= max_t; ++t) out.push_back(grid.verdict(k, t));
    }
    return out;
}

void test_deterministic_stream() {
    for (const Workload workload :
         {Workload::kHotRepeat, Workload::kColdAsk, Workload::kFrontierSession}) {
        const std::string name = servebench::workload_name(workload);
        const std::size_t count = workload == Workload::kHotRepeat ? 512 : 16;
        const std::uint64_t a =
            servebench::stream_hash(Traffic(workload, 11, 1).batch(0, count, 1));
        const std::uint64_t b =
            servebench::stream_hash(Traffic(workload, 11, 4).batch(0, count, 4));
        const std::uint64_t c =
            servebench::stream_hash(Traffic(workload, 12, 4).batch(0, count, 4));
        expect(a == b, name + ": same seed, different stream");
        expect(a != c, name + ": different seeds, same stream");
        // A batch boundary does not change the requests.
        const Traffic traffic(workload, 11, 2);
        const std::vector<Request> whole = traffic.batch(0, 16, 2);
        std::vector<Request> split = traffic.batch(0, 8, 2);
        const std::vector<Request> rest = traffic.batch(8, 8, 2);
        split.insert(split.end(), rest.begin(), rest.end());
        expect(servebench::stream_hash(whole) == servebench::stream_hash(split),
               name + ": batch boundary changed the stream");
    }
}

void test_disguise_preserves_verdicts() {
    namespace catalog = game::catalog;
    struct Case final {
        game::NormalFormGame game;
        game::ExactMixedProfile profile;
    };
    std::vector<Case> cases;
    const auto pure = [](const game::NormalFormGame& g, game::PureProfile p) {
        return core::as_exact_profile(g, p);
    };
    cases.push_back({catalog::prisoners_dilemma(), {}});
    cases.back().profile = pure(cases.back().game, {1, 1});
    cases.push_back({catalog::stag_hunt(), {}});
    cases.back().profile = pure(cases.back().game, {0, 0});
    cases.push_back({catalog::attack_coordination_game(4), {}});
    cases.back().profile = pure(cases.back().game, game::PureProfile(4, 0));
    cases.push_back({catalog::bargaining_game(4), {}});
    cases.back().profile = pure(cases.back().game, game::PureProfile(4, 0));
    cases.push_back({catalog::roshambo(), {}});
    cases.back().profile.assign(2, game::ExactMixedStrategy(3, util::Rational(1, 3)));
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        game::NormalFormGame g = servebench::planted_game({3, 3, 3, 3}, seed % 4, seed);
        game::ExactMixedProfile profile = pure(g, {0, 1, 0, 1});
        profile[2] = {util::Rational(1, 3), util::Rational(2, 3), util::Rational(0)};
        cases.push_back({std::move(g), std::move(profile)});
    }
    for (std::size_t c = 0; c < cases.size(); ++c) {
        const Case& base = cases[c];
        const std::size_t max_k = std::min<std::size_t>(base.game.num_players(), 3);
        const Grid expected = frontier_of(base.game, base.profile, max_k, 1);
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            const auto [game, candidate] = servebench::disguise(base.game, base.profile, seed);
            expect(frontier_of(game.game, candidate.profile, max_k, 1) == expected,
                   "disguise changed a verdict (case " + std::to_string(c) + ", seed " +
                       std::to_string(seed) + ")");
        }
    }
}

void test_planted_matches_direct() {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        const std::size_t players = 3 + seed % 3;
        const std::size_t k0 = seed % (players + 1);
        const game::NormalFormGame g =
            servebench::planted_game(std::vector<std::size_t>(players, 3), k0, seed);
        game::ExactMixedProfile profile =
            core::as_exact_profile(g, game::PureProfile(players, seed % 2));
        if (seed % 3 == 0) profile[0] = {util::Rational(1, 4), util::Rational(3, 4), util::Rational(0)};
        const std::size_t max_k = std::min<std::size_t>(players, 4);
        expect(frontier_of(g, profile, max_k, 2) == servebench::planted_grid(k0, max_k, 2, true),
               "planted grid differs from the direct checker (seed " + std::to_string(seed) +
                   ")");
    }
    // The streams' own requests: every planted grid matches the direct one.
    for (const Workload workload :
         {Workload::kHotRepeat, Workload::kColdAsk, Workload::kFrontierSession}) {
        const Traffic traffic(workload, 3, 4);
        for (const Request& request : traffic.batch(0, 32, 4)) {
            expect(request.planted == request.direct,
                   std::string(servebench::workload_name(workload)) +
                       ": planted != direct for upload " + std::to_string(request.upload_id));
        }
    }
}

void test_flipped_expectation_fails() {
    const Traffic traffic(Workload::kColdAsk, 5, 2);
    Request request = traffic.batch(0, 1, 1).front();
    expect(servebench::verdict_ok(request, request.direct), "a correct grid was rejected");
    for (core::CellVerdict& cell : request.planted) {
        cell = cell == core::CellVerdict::kBroken ? core::CellVerdict::kRobust
                                                  : core::CellVerdict::kBroken;
    }
    expect(!servebench::verdict_ok(request, request.direct),
           "a flipped planted verdict was not counted as a failure");
}

}  // namespace

int main() {
    test_deterministic_stream();
    test_disguise_preserves_verdicts();
    test_planted_matches_direct();
    test_flipped_expectation_fails();
    std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASS" : "FAIL", g_failures);
    return g_failures == 0 ? 0 : 1;
}
