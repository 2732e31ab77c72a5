// Fixture: NormalFormGame members whose whole body passes *this to a
// view entry — must trigger identity-forward on all five, defined out of
// line or inside the class, with *this passed directly, as GameView(*this)
// or as GameView{*this}, and whatever the call chain does with the result.
namespace bnash::game {

double NormalFormGame::expected_payoff(const MixedProfile& profile, std::size_t player) const {
    return game::expected_payoff(*this, profile, player);
}

double NormalFormGame::deviation_payoff(const MixedProfile& profile, std::size_t player,
                                        std::size_t action) const {
    return deviation_row(*this, profile, player).at(action);
}

util::MatrixQ NormalFormGame::payoff_matrix(std::size_t player) const {
    return GameView(*this).payoff_matrix(player);
}

GameView NormalFormGame::restrict_view(
    const std::vector<std::vector<std::size_t>>& kept_actions) const {
    return GameView{*this}.restrict(kept_actions);
}

class NormalFormGame final {
public:
    [[nodiscard]] double regret(const MixedProfile& profile) const {
        return regret_from(deviation_payoffs_all(*this, profile), profile);
    }
};

}  // namespace bnash::game
