// Extensive-form games: trees with decision nodes grouped into information
// sets, chance nodes with exact probabilities, and terminal payoffs.
//
// This is the substrate of Section 4: an augmented game is an extensive
// game plus awareness annotations, and generalized Nash equilibrium is
// defined over behavioral strategies on these trees. The representation
// deliberately exposes histories (paths of action indices from the root)
// because awareness levels are *sets of histories* in Halpern-Rego.
#pragma once

#include <cstddef>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "game/normal_form.h"
#include "game/strategy.h"
#include "util/rational.h"

namespace bnash::game {

// A history is the sequence of action indices on the path from the root.
using History = std::vector<std::size_t>;

class ExtensiveGame final {
public:
    using NodeId = std::size_t;
    static constexpr NodeId kNoNode = std::numeric_limits<NodeId>::max();

    enum class NodeKind { kDecision, kChance, kTerminal };

    struct InfoSet final {
        std::size_t player = 0;
        std::string label;
        std::vector<std::string> action_labels;
        std::vector<NodeId> nodes;  // members, in insertion order
        [[nodiscard]] std::size_t num_actions() const noexcept {
            return action_labels.size();
        }
    };

    struct Node final {
        NodeKind kind = NodeKind::kTerminal;
        NodeId parent = kNoNode;
        std::size_t action_from_parent = 0;
        std::size_t info_set = 0;                   // decision nodes
        std::vector<util::Rational> chance_probs;   // chance nodes
        std::vector<NodeId> children;               // decision and chance nodes
        std::vector<util::Rational> payoffs;        // terminal nodes
    };

    explicit ExtensiveGame(std::size_t num_players);

    // --- construction (call finalize() before any analysis) -------------
    // The first node added is the root.
    NodeId add_decision(std::size_t player, const std::string& info_set_label,
                        std::vector<std::string> action_labels);
    NodeId add_chance(std::vector<util::Rational> probabilities);
    NodeId add_terminal(std::vector<util::Rational> payoffs);
    void set_child(NodeId parent, std::size_t action, NodeId child);
    // Validates the tree (single root, children complete, info sets
    // consistent, chance probabilities sum to one) and freezes it.
    void finalize();

    // --- structure -------------------------------------------------------
    [[nodiscard]] std::size_t num_players() const noexcept { return num_players_; }
    [[nodiscard]] std::size_t num_nodes() const noexcept { return nodes_.size(); }
    [[nodiscard]] NodeId root() const;
    [[nodiscard]] const Node& node(NodeId id) const { return nodes_.at(id); }
    [[nodiscard]] std::size_t num_info_sets() const noexcept { return info_sets_.size(); }
    [[nodiscard]] const InfoSet& info_set(std::size_t id) const { return info_sets_.at(id); }
    [[nodiscard]] std::optional<std::size_t> find_info_set(const std::string& label) const;
    [[nodiscard]] std::vector<std::size_t> info_sets_of(std::size_t player) const;
    [[nodiscard]] bool is_perfect_information() const;

    [[nodiscard]] History history_of(NodeId id) const;
    [[nodiscard]] NodeId node_at(const History& history) const;
    // All terminal histories ("runs" in the paper's terminology).
    [[nodiscard]] std::vector<History> runs() const;

    // --- strategies and payoffs ------------------------------------------
    // Behavioral profile: one distribution per information set (info sets
    // are globally indexed; each belongs to exactly one player).
    using BehavioralProfile = std::vector<MixedStrategy>;
    // Pure profile: one action per information set.
    using PureStrategyProfile = std::vector<std::size_t>;

    [[nodiscard]] BehavioralProfile uniform_profile() const;

    [[nodiscard]] std::vector<double> expected_payoffs(const BehavioralProfile& profile) const;
    [[nodiscard]] double expected_payoff(const BehavioralProfile& profile,
                                         std::size_t player) const;

    // Probability of reaching each node under `profile` (root has mass 1).
    [[nodiscard]] std::vector<double> reach_probabilities(
        const BehavioralProfile& profile) const;

    // --- analyses ----------------------------------------------------------
    struct BackwardInductionResult final {
        PureStrategyProfile strategy;        // action per info set
        std::vector<util::Rational> values;  // root value per player
    };
    // Subgame-perfect equilibrium by backward induction. Requires perfect
    // information (throws std::logic_error otherwise). Ties break toward
    // the lowest action index, making the result deterministic.
    [[nodiscard]] BackwardInductionResult backward_induction() const;

    // Full (non-reduced) strategic form. Player i's actions are i's pure
    // strategies: assignments of an action to each of i's info sets, ranked
    // row-major over info_sets_of(i).
    [[nodiscard]] NormalFormGame to_normal_form() const;
    [[nodiscard]] std::uint64_t num_pure_strategies(std::size_t player) const;
    // Decodes a strategic-form action index into per-info-set choices.
    [[nodiscard]] std::vector<std::size_t> decode_pure_strategy(std::size_t player,
                                                                std::uint64_t rank) const;

private:
    void require_finalized() const;
    void require_building() const;
    void accumulate_payoffs(NodeId id, double weight, const BehavioralProfile& profile,
                            std::vector<double>& totals) const;
    [[nodiscard]] std::vector<util::Rational> pure_expected_payoffs_exact(
        const PureStrategyProfile& pure) const;
    [[nodiscard]] std::vector<util::Rational> pure_payoffs_from(
        NodeId id, const PureStrategyProfile& pure) const;

    std::size_t num_players_;
    bool finalized_ = false;
    std::vector<Node> nodes_;
    std::vector<InfoSet> info_sets_;
};

}  // namespace bnash::game
