// Fixture: identity-forward must stay quiet on NormalFormGame members
// that read the store or do real work with a copy of *this, on a plain
// `return *this;`, and on members of other classes that pass *this on.
namespace bnash::game {

const util::Rational& NormalFormGame::payoff(const PureProfile& profile,
                                             std::size_t player) const {
    return payoff_at(profile_rank(profile), player);
}

NormalFormGame NormalFormGame::with_levels(std::vector<std::vector<Rational>> levels) const {
    NormalFormGame out = *this;
    out.replace_levels(std::move(levels));
    return out;
}

NormalFormGame& NormalFormGame::operator=(const NormalFormGame& other) {
    return *this;
}

util::MatrixQ GameView::payoff_matrix(std::size_t player) const {
    return matrix_of(*this, player);
}

class NormalFormGame final {
public:
    [[nodiscard]] std::uint64_t num_profiles() const noexcept { return num_profiles_; }
};

}  // namespace bnash::game
