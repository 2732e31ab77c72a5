// Fixture: identity-forward must stay quiet. The view entry takes no
// NormalFormGame, and a NormalFormGame function that builds a view and
// then does real work is not a forward. Comments and strings naming
// "return f(GameView::full(game))" are not code.
namespace bnash::solver {

bool is_dominated(const game::GameView& view, std::size_t player, std::size_t action,
                  DominanceKind kind) {
    return scan(view, player, action, kind);
}

ViewEliminationResult iterated_elimination_view(const game::NormalFormGame& game,
                                                DominanceKind kind) {
    GameView view = GameView::full(game);
    reduce(view, kind);
    return ViewEliminationResult{view};
}

const char* note(const game::NormalFormGame& game) {
    return "return is_dominated(GameView::full(game), 0, 0, kind);";
}

}  // namespace bnash::solver
