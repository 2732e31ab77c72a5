// Fixture: NormalFormGame twins whose whole body forwards the identity
// view — must trigger identity-forward on all four, whichever way the
// view is spelled. The rule has no waiver, so the comment on the second
// one does not silence it.
namespace bnash::solver {

bool is_dominated(const game::NormalFormGame& game, std::size_t player, std::size_t action,
                  DominanceKind kind) {
    return is_dominated(game::GameView::full(game), player, action, kind);
}

// lint: identity-forward-ok(a waiver the rule does not accept)
std::vector<MixedEquilibrium> support_enumeration(const game::NormalFormGame& game,
                                                  std::size_t max_support) {
    return support_enumeration(GameView::full(game), max_support);
}

std::optional<MixedEquilibrium> lemke_howson(const game::NormalFormGame& game,
                                             std::size_t initial_label) {
    return lemke_howson(game::GameView(game), initial_label);
}

std::vector<MixedEquilibrium> lemke_howson_all_labels(const game::NormalFormGame& game) {
    return lemke_howson_all_labels(GameView{game});
}

}  // namespace bnash::solver
