// Defensive-path and boundary tests across modules: error contracts,
// degenerate parameters, and rarely-hit branches. These pin the library's
// failure behavior so downstream users get exceptions, not UB.
#include <gtest/gtest.h>

#include "core/machine/machine_game.h"
#include "core/robust/anonymous.h"
#include "core/robust/cheap_talk.h"
#include "core/robust/mediator.h"
#include "crypto/circuit.h"
#include "crypto/shamir.h"
#include "dist/network.h"
#include "game/catalog.h"
#include "game/game_view.h"
#include "scrip/scrip_system.h"
#include "util/combinatorics.h"
#include <cmath>
#include <limits>

#include "util/rational.h"
#include "util/rng.h"

namespace bnash {
namespace {

using util::Rational;

// ----------------------------------------------------------------- util

TEST(EdgeUtil, RationalNegationOfZero) {
    EXPECT_EQ(-Rational{0}, Rational{0});
    EXPECT_EQ(Rational{0}.abs(), Rational{0});
    EXPECT_EQ(Rational{0}.sign(), 0);
}

TEST(EdgeUtil, RationalFromDoubleRejectsNonFinite) {
    EXPECT_THROW((void)Rational::from_double(std::numeric_limits<double>::infinity()),
                 std::invalid_argument);
    EXPECT_THROW((void)Rational::from_double(std::nan("")), std::invalid_argument);
    EXPECT_THROW((void)Rational::from_double(0.5, 0), std::invalid_argument);
}

TEST(EdgeUtil, FullRangeNextInt) {
    // lo == INT64_MIN, hi == INT64_MAX exercises the span == 0 wrap path.
    util::Rng rng{1};
    for (int i = 0; i < 10; ++i) {
        (void)rng.next_int(std::numeric_limits<std::int64_t>::min(),
                           std::numeric_limits<std::int64_t>::max());
    }
    SUCCEED();
}

TEST(EdgeUtil, EmptyProductSpace) {
    int visits = 0;
    EXPECT_TRUE(util::product_for_each({}, [&](const auto&) {
        ++visits;
        return true;
    }));
    EXPECT_EQ(visits, 1);  // the empty tuple is visited exactly once
    EXPECT_EQ(util::product_size({}), 1u);
}

TEST(EdgeUtil, ProductRankErrors) {
    EXPECT_THROW((void)util::product_rank({2, 2}, {0}), std::invalid_argument);
    EXPECT_THROW((void)util::product_rank({2, 2}, {0, 2}), std::out_of_range);
    EXPECT_THROW((void)util::product_unrank({2, 2}, 4), std::out_of_range);
    EXPECT_THROW((void)util::product_unrank({2, 0}, 0), std::invalid_argument);
}

// ----------------------------------------------------------------- game

TEST(EdgeGame, MultiplayerToString) {
    const auto g = game::catalog::attack_coordination_game(3);
    const auto text = g.to_string();
    EXPECT_NE(text.find("3-player"), std::string::npos);
}

TEST(EdgeGame, ConstructorRejectsEmptyActionSets) {
    EXPECT_THROW(game::NormalFormGame({2, 0}), std::invalid_argument);
    EXPECT_THROW(game::NormalFormGame({}), std::invalid_argument);
}

TEST(EdgeGame, RestrictRejectsEmptyKeepSets) {
    const auto pd = game::catalog::prisoners_dilemma();
    EXPECT_THROW((void)game::GameView::restrict(pd, {{}, {0}}), std::invalid_argument);
    EXPECT_THROW((void)game::GameView::restrict(pd, {{0, 5}, {0}}), std::out_of_range);
}

TEST(EdgeGame, PayoffMatrixRequiresTwoPlayers) {
    const auto g = game::catalog::attack_coordination_game(3);
    EXPECT_THROW((void)game::GameView(g).payoff_matrix(0), std::logic_error);
}

TEST(EdgeGame, NodeAtRejectsForeignHistory) {
    const auto tree = game::catalog::figure1_game();
    EXPECT_THROW((void)tree.node_at({1, 1, 1}), std::out_of_range);
}

TEST(EdgeGame, BayesianRejectsNegativePriorAndMismatchedWidths) {
    game::BayesianGame g({2}, {2});
    EXPECT_THROW(g.set_prior({0}, Rational{-1, 2}), std::invalid_argument);
    EXPECT_THROW(game::BayesianGame({2}, {2, 2}), std::invalid_argument);
    EXPECT_THROW(game::BayesianGame({0}, {2}), std::invalid_argument);
}

// --------------------------------------------------------------- crypto

TEST(EdgeCrypto, ShamirDegreeZeroSharesAreConstant) {
    util::Rng rng{3};
    const auto shares = crypto::share_secret(crypto::Fe{9}, 4, 0, rng);
    for (const auto& share : shares) EXPECT_EQ(share.value, crypto::Fe{9});
    EXPECT_EQ(crypto::reconstruct({shares[2]}, 0), crypto::Fe{9});
}

TEST(EdgeCrypto, ShamirRejectsThresholdAtLeastN) {
    util::Rng rng{3};
    EXPECT_THROW((void)crypto::share_secret(crypto::Fe{1}, 3, 3, rng), std::invalid_argument);
}

TEST(EdgeCrypto, ReconstructWithErrorsRejectsBadAgreement) {
    util::Rng rng{4};
    const auto shares = crypto::share_secret(crypto::Fe{5}, 5, 1, rng);
    EXPECT_FALSE(crypto::reconstruct_with_errors(shares, 1, 6).has_value());  // > n
    EXPECT_FALSE(crypto::reconstruct_with_errors(shares, 1, 1).has_value());  // < t+1
}

TEST(EdgeCrypto, CircuitRejectsBadGateReferences) {
    crypto::Circuit c;
    const auto x = c.input(0);
    EXPECT_THROW((void)c.add(x, 99), std::out_of_range);
    EXPECT_THROW(c.set_output(99), std::out_of_range);
}

TEST(EdgeCrypto, LookupCompilerValidatesTableSize) {
    EXPECT_THROW((void)crypto::compile_lookup_table({2, 2}, {crypto::Fe{0}}),
                 std::invalid_argument);
    EXPECT_THROW((void)crypto::compile_lookup_table({}, {}), std::invalid_argument);
}

// ----------------------------------------------------------------- dist

TEST(EdgeDist, CrashAtRoundZeroWithNoPartialSendsIsSilent) {
    // CrashFault(0, 0) == total silence from the very first round.
    dist::CrashFault crash(0, 0);
    util::Rng rng{1};
    std::vector<dist::Message> out{{0, 1, 0, "x", {1}}};
    EXPECT_TRUE(crash.apply(0, out, rng).empty());
    EXPECT_TRUE(crash.apply(5, {{0, 1, 5, "x", {1}}}, rng).empty());
}

TEST(EdgeDist, OutboxRejectsUnknownRecipient) {
    dist::Outbox outbox{0, 3, 0, {}};
    EXPECT_THROW(outbox.send(3, "x", {}), std::out_of_range);
}

TEST(EdgeDist, NetworkRejectsZeroProcesses) {
    EXPECT_THROW(dist::SynchronousNetwork(0, 1), std::invalid_argument);
}

// ----------------------------------------------------------------- core

TEST(EdgeCore, AnonymousGameValidation) {
    EXPECT_THROW(core::AnonymousBinaryGame(1, nullptr), std::invalid_argument);
    const auto g = core::AnonymousBinaryGame::attack(4);
    EXPECT_THROW((void)g.payoff(2, 0), std::out_of_range);
    EXPECT_THROW((void)g.payoff(0, 5), std::out_of_range);
    EXPECT_THROW((void)core::AnonymousBinaryGame::attack(20).to_normal_form(),
                 std::logic_error);
}

TEST(EdgeCore, MediatorPolicyValidation) {
    const auto g = game::catalog::correlated_types_game();
    core::MediatorPolicy policy(g);
    EXPECT_THROW(policy.set_recommendation({0, 0}, {0, 0}, Rational{-1, 2}),
                 std::invalid_argument);
    EXPECT_THROW(policy.validate(), std::logic_error);  // rows are all-zero
}

TEST(EdgeCore, CheapTalkWidthValidation) {
    const auto g = game::catalog::byzantine_agreement_game(7);
    const auto policy = core::MediatorPolicy::byzantine_consensus(g);
    core::CheapTalkParams params;
    params.k = 1;
    params.t = 1;
    EXPECT_THROW((void)core::run_cheap_talk(policy, game::TypeProfile(6, 0),
                                            std::vector<core::CheapTalkBehavior>(
                                                7, core::CheapTalkBehavior::kHonest),
                                            params),
                 std::invalid_argument);
}

TEST(EdgeCore, MachineGameValidation) {
    auto g = core::computational_roshambo(1.0);
    EXPECT_THROW(g.add_machine(0, nullptr), std::invalid_argument);
    EXPECT_THROW((void)g.utility({0}, 0), std::invalid_argument);  // width
}

TEST(EdgeCore, BestResponseCycleFromEveryStart) {
    // Nonexistence means the dynamic must cycle from EVERY starting
    // profile, not just (rock, rock).
    auto g = core::computational_roshambo(1.0);
    for (std::size_t a = 0; a < 4; ++a) {
        for (std::size_t b = 0; b < 4; ++b) {
            const auto cycle = g.best_response_cycle({a, b});
            EXPECT_GT(cycle.size(), 1u) << "start (" << a << "," << b << ")";
        }
    }
}

// ---------------------------------------------------------------- scrip

TEST(EdgeScrip, AllHoardersMeansNoTrade) {
    scrip::ScripParams params;
    params.num_agents = 10;
    params.rounds = 1000;
    params.seed = 2;
    std::vector<scrip::AgentSpec> specs(10, scrip::AgentSpec{scrip::BehaviorKind::kHoarder, 0});
    const auto result = scrip::simulate(params, specs);
    EXPECT_DOUBLE_EQ(result.satisfied_fraction, 0.0);
}

TEST(EdgeScrip, ThresholdZeroNeverVolunteers) {
    scrip::ScripParams params;
    params.num_agents = 10;
    params.rounds = 2000;
    params.seed = 3;
    const auto result = scrip::simulate_uniform(params, 0);
    EXPECT_DOUBLE_EQ(result.satisfied_fraction, 0.0);
}

TEST(EdgeScrip, SpecWidthValidated) {
    scrip::ScripParams params;
    params.num_agents = 5;
    EXPECT_THROW((void)scrip::simulate(params, {}), std::invalid_argument);
}

}  // namespace
}  // namespace bnash
