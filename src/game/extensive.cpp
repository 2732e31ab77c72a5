#include "game/extensive.h"

#include <algorithm>
#include <stdexcept>

#include "util/combinatorics.h"

namespace bnash::game {

ExtensiveGame::ExtensiveGame(std::size_t num_players) : num_players_(num_players) {
    if (num_players == 0) throw std::invalid_argument("ExtensiveGame: no players");
}

ExtensiveGame::NodeId ExtensiveGame::add_decision(std::size_t player,
                                                  const std::string& info_set_label,
                                                  std::vector<std::string> action_labels) {
    require_building();
    if (player >= num_players_) throw std::out_of_range("add_decision: bad player");
    if (action_labels.empty()) throw std::invalid_argument("add_decision: no actions");

    std::size_t info_set_id;
    if (const auto existing = find_info_set(info_set_label)) {
        info_set_id = *existing;
        auto& is = info_sets_[info_set_id];
        if (is.player != player || is.action_labels != action_labels) {
            throw std::invalid_argument("add_decision: inconsistent info set '" +
                                        info_set_label + "'");
        }
    } else {
        info_set_id = info_sets_.size();
        info_sets_.push_back(InfoSet{player, info_set_label, std::move(action_labels), {}});
    }

    Node node;
    node.kind = NodeKind::kDecision;
    node.info_set = info_set_id;
    node.children.assign(info_sets_[info_set_id].num_actions(), kNoNode);
    nodes_.push_back(std::move(node));
    info_sets_[info_set_id].nodes.push_back(nodes_.size() - 1);
    return nodes_.size() - 1;
}

ExtensiveGame::NodeId ExtensiveGame::add_chance(std::vector<util::Rational> probabilities) {
    require_building();
    if (probabilities.empty()) throw std::invalid_argument("add_chance: no outcomes");
    Node node;
    node.kind = NodeKind::kChance;
    node.children.assign(probabilities.size(), kNoNode);
    node.chance_probs = std::move(probabilities);
    nodes_.push_back(std::move(node));
    return nodes_.size() - 1;
}

ExtensiveGame::NodeId ExtensiveGame::add_terminal(std::vector<util::Rational> payoffs) {
    require_building();
    if (payoffs.size() != num_players_) throw std::invalid_argument("add_terminal: width");
    Node node;
    node.kind = NodeKind::kTerminal;
    node.payoffs = std::move(payoffs);
    nodes_.push_back(std::move(node));
    return nodes_.size() - 1;
}

void ExtensiveGame::set_child(NodeId parent, std::size_t action, NodeId child) {
    require_building();
    auto& p = nodes_.at(parent);
    if (p.kind == NodeKind::kTerminal) throw std::invalid_argument("set_child: terminal parent");
    if (action >= p.children.size()) throw std::out_of_range("set_child: bad action");
    if (p.children[action] != kNoNode) throw std::invalid_argument("set_child: slot taken");
    auto& c = nodes_.at(child);
    if (child == 0) throw std::invalid_argument("set_child: root cannot be a child");
    if (c.parent != kNoNode) throw std::invalid_argument("set_child: child already attached");
    p.children[action] = child;
    c.parent = parent;
    c.action_from_parent = action;
}

void ExtensiveGame::finalize() {
    require_building();
    if (nodes_.empty()) throw std::logic_error("finalize: empty game");
    for (NodeId id = 0; id < nodes_.size(); ++id) {
        const auto& n = nodes_[id];
        if (id == 0 && n.parent != kNoNode) throw std::logic_error("finalize: root has parent");
        if (id != 0 && n.parent == kNoNode) {
            throw std::logic_error("finalize: node " + std::to_string(id) + " unattached");
        }
        for (const NodeId child : n.children) {
            if (child == kNoNode) {
                throw std::logic_error("finalize: node " + std::to_string(id) +
                                       " has a missing child");
            }
        }
        if (n.kind == NodeKind::kChance) {
            util::Rational total{0};
            for (const auto& p : n.chance_probs) {
                if (p.sign() < 0) throw std::logic_error("finalize: negative chance prob");
                total += p;
            }
            if (total != util::Rational{1}) {
                throw std::logic_error("finalize: chance probs sum to " + total.to_string());
            }
        }
    }
    finalized_ = true;
}

ExtensiveGame::NodeId ExtensiveGame::root() const {
    require_finalized();
    return 0;
}

std::optional<std::size_t> ExtensiveGame::find_info_set(const std::string& label) const {
    for (std::size_t i = 0; i < info_sets_.size(); ++i) {
        if (info_sets_[i].label == label) return i;
    }
    return std::nullopt;
}

std::vector<std::size_t> ExtensiveGame::info_sets_of(std::size_t player) const {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < info_sets_.size(); ++i) {
        if (info_sets_[i].player == player) out.push_back(i);
    }
    return out;
}

bool ExtensiveGame::is_perfect_information() const {
    for (const auto& is : info_sets_) {
        if (is.nodes.size() > 1) return false;
    }
    return true;
}

History ExtensiveGame::history_of(NodeId id) const {
    History out;
    NodeId cursor = id;
    while (nodes_.at(cursor).parent != kNoNode) {
        out.push_back(nodes_[cursor].action_from_parent);
        cursor = nodes_[cursor].parent;
    }
    std::reverse(out.begin(), out.end());
    return out;
}

ExtensiveGame::NodeId ExtensiveGame::node_at(const History& history) const {
    NodeId cursor = 0;
    for (const std::size_t action : history) {
        const auto& n = nodes_.at(cursor);
        if (action >= n.children.size() || n.children[action] == kNoNode) {
            throw std::out_of_range("node_at: history leaves the tree");
        }
        cursor = n.children[action];
    }
    return cursor;
}

std::vector<History> ExtensiveGame::runs() const {
    std::vector<History> out;
    for (NodeId id = 0; id < nodes_.size(); ++id) {
        if (nodes_[id].kind == NodeKind::kTerminal) out.push_back(history_of(id));
    }
    return out;
}

ExtensiveGame::BehavioralProfile ExtensiveGame::uniform_profile() const {
    require_finalized();
    BehavioralProfile out;
    out.reserve(info_sets_.size());
    for (const auto& is : info_sets_) out.push_back(uniform_strategy(is.num_actions()));
    return out;
}

void ExtensiveGame::accumulate_payoffs(NodeId id, double weight,
                                       const BehavioralProfile& profile,
                                       std::vector<double>& totals) const {
    const auto& n = nodes_[id];
    switch (n.kind) {
        case NodeKind::kTerminal:
            for (std::size_t p = 0; p < num_players_; ++p) {
                totals[p] += weight * n.payoffs[p].to_double();
            }
            return;
        case NodeKind::kChance:
            for (std::size_t a = 0; a < n.children.size(); ++a) {
                const double p = n.chance_probs[a].to_double();
                if (p > 0.0) accumulate_payoffs(n.children[a], weight * p, profile, totals);
            }
            return;
        case NodeKind::kDecision: {
            const auto& strategy = profile.at(n.info_set);
            for (std::size_t a = 0; a < n.children.size(); ++a) {
                if (strategy[a] > 0.0) {
                    accumulate_payoffs(n.children[a], weight * strategy[a], profile, totals);
                }
            }
            return;
        }
    }
}

std::vector<double> ExtensiveGame::expected_payoffs(const BehavioralProfile& profile) const {
    require_finalized();
    std::vector<double> totals(num_players_, 0.0);
    accumulate_payoffs(0, 1.0, profile, totals);
    return totals;
}

double ExtensiveGame::expected_payoff(const BehavioralProfile& profile,
                                      std::size_t player) const {
    return expected_payoffs(profile).at(player);
}

std::vector<double> ExtensiveGame::reach_probabilities(const BehavioralProfile& profile) const {
    require_finalized();
    std::vector<double> reach(nodes_.size(), 0.0);
    reach[0] = 1.0;
    // Parents precede children is not guaranteed by construction order, so
    // walk depth-first from the root.
    std::vector<NodeId> stack{0};
    while (!stack.empty()) {
        const NodeId id = stack.back();
        stack.pop_back();
        const auto& n = nodes_[id];
        for (std::size_t a = 0; a < n.children.size(); ++a) {
            double p = 1.0;
            if (n.kind == NodeKind::kChance) {
                p = n.chance_probs[a].to_double();
            } else if (n.kind == NodeKind::kDecision) {
                p = profile.at(n.info_set)[a];
            }
            reach[n.children[a]] = reach[id] * p;
            stack.push_back(n.children[a]);
        }
    }
    return reach;
}

ExtensiveGame::BackwardInductionResult ExtensiveGame::backward_induction() const {
    require_finalized();
    if (!is_perfect_information()) {
        throw std::logic_error("backward_induction: imperfect information");
    }
    BackwardInductionResult result;
    result.strategy.assign(info_sets_.size(), 0);

    // Recursive evaluation; trees are shallow in this library.
    struct Evaluator final {
        const ExtensiveGame& game;
        BackwardInductionResult& out;
        std::vector<util::Rational> eval(NodeId id) {
            const auto& n = game.nodes_[id];
            if (n.kind == NodeKind::kTerminal) return n.payoffs;
            if (n.kind == NodeKind::kChance) {
                std::vector<util::Rational> acc(game.num_players_, util::Rational{0});
                for (std::size_t a = 0; a < n.children.size(); ++a) {
                    const auto child = eval(n.children[a]);
                    for (std::size_t p = 0; p < game.num_players_; ++p) {
                        acc[p] += n.chance_probs[a] * child[p];
                    }
                }
                return acc;
            }
            const std::size_t player = game.info_sets_[n.info_set].player;
            std::vector<util::Rational> best;
            std::size_t best_action = 0;
            for (std::size_t a = 0; a < n.children.size(); ++a) {
                auto child = eval(n.children[a]);
                if (best.empty() || child[player] > best[player]) {
                    best = std::move(child);
                    best_action = a;
                }
            }
            out.strategy[n.info_set] = best_action;
            return best;
        }
    };
    Evaluator evaluator{*this, result};
    result.values = evaluator.eval(0);
    return result;
}

std::vector<util::Rational> ExtensiveGame::pure_payoffs_from(
    NodeId id, const PureStrategyProfile& pure) const {
    const auto& n = nodes_[id];
    if (n.kind == NodeKind::kTerminal) return n.payoffs;
    if (n.kind == NodeKind::kChance) {
        std::vector<util::Rational> acc(num_players_, util::Rational{0});
        for (std::size_t a = 0; a < n.children.size(); ++a) {
            if (n.chance_probs[a].is_zero()) continue;
            const auto child = pure_payoffs_from(n.children[a], pure);
            for (std::size_t p = 0; p < num_players_; ++p) {
                acc[p] += n.chance_probs[a] * child[p];
            }
        }
        return acc;
    }
    return pure_payoffs_from(n.children[pure[n.info_set]], pure);
}

std::vector<util::Rational> ExtensiveGame::pure_expected_payoffs_exact(
    const PureStrategyProfile& pure) const {
    return pure_payoffs_from(0, pure);
}

std::uint64_t ExtensiveGame::num_pure_strategies(std::size_t player) const {
    require_finalized();
    std::vector<std::size_t> radices;
    for (const std::size_t is : info_sets_of(player)) {
        radices.push_back(info_sets_[is].num_actions());
    }
    return util::product_size(radices);
}

std::vector<std::size_t> ExtensiveGame::decode_pure_strategy(std::size_t player,
                                                             std::uint64_t rank) const {
    std::vector<std::size_t> radices;
    for (const std::size_t is : info_sets_of(player)) {
        radices.push_back(info_sets_[is].num_actions());
    }
    return util::product_unrank(radices, rank);
}

NormalFormGame ExtensiveGame::to_normal_form() const {
    require_finalized();
    std::vector<std::size_t> counts(num_players_);
    for (std::size_t player = 0; player < num_players_; ++player) {
        counts[player] = static_cast<std::size_t>(num_pure_strategies(player));
    }
    std::vector<util::Rational> values;
    values.reserve(util::product_size(counts) * num_players_);
    util::product_for_each(counts, [&](const std::vector<std::size_t>& ranks) {
        PureStrategyProfile pure(info_sets_.size(), 0);
        for (std::size_t player = 0; player < num_players_; ++player) {
            const auto choices = decode_pure_strategy(player, ranks[player]);
            const auto sets = info_sets_of(player);
            for (std::size_t i = 0; i < sets.size(); ++i) pure[sets[i]] = choices[i];
        }
        const auto payoffs = pure_expected_payoffs_exact(pure);
        values.insert(values.end(), payoffs.begin(), payoffs.end());
        return true;
    });
    NormalFormGame out(counts);
    out.assign_payoffs(values);
    return out;
}

void ExtensiveGame::require_finalized() const {
    if (!finalized_) throw std::logic_error("ExtensiveGame: finalize() not called");
}

void ExtensiveGame::require_building() const {
    if (finalized_) throw std::logic_error("ExtensiveGame: already finalized");
}

}  // namespace bnash::game
