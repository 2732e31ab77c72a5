// Seeded request streams for the serving benchmark, and the ground truth
// each request is checked against.
//
// Every request is a list of line-protocol commands (serve/text_front.h):
// the upload (game + payoffs + profile/mixed lines), then one `ask` or
// `frontier`. Request i of a stream is a pure function of
// (workload, seed, i), so one seed always yields a byte-identical stream
// whatever the batch boundaries or thread count.
//
// Ground truth comes from two independent places:
//   - PLANTED: generated games are built so that the verdict is known by
//     construction (see planted_game in traffic.cpp). Catalog games,
//     whose verdicts are not planted, take the direct checker's verdict
//     on the undisguised game instead.
//   - DIRECT: an unbudgeted serial core::find_robustness_violation /
//     core::batch_robustness_frontier call on the exact uploaded bytes.
// A reply must agree with both.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/robust/robustness.h"
#include "game/normal_form.h"
#include "game/strategy.h"

namespace servebench {

enum class Workload : std::uint8_t { kHotRepeat, kColdAsk, kFrontierSession };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] const char* workload_name(Workload workload) noexcept;

// Per-cell verdicts of one request. An ask is the 1x1 grid of its (k, t)
// cell; a frontier is (max_k + 1) x (max_t + 1), row-major by k.
using Grid = std::vector<bnash::core::CellVerdict>;

struct GameUpload final {
    bnash::game::NormalFormGame game{std::vector<std::size_t>{1}};
    std::vector<std::string> lines;  // "game ..." and "payoffs ..."
};

struct CandidateUpload final {
    bnash::game::ExactMixedProfile profile;
    std::vector<std::string> lines;  // "profile ..." then one "mixed ..." per mixed player
};

struct Request final {
    std::shared_ptr<const GameUpload> game;
    std::shared_ptr<const CandidateUpload> candidate;
    bool send_game = true;  // frontier: only a game's first request uploads it
    bool frontier = false;
    std::size_t k = 0;  // ask k, or frontier max_k
    std::size_t t = 0;  // ask t, or frontier max_t
    std::uint64_t budget = 0;  // ask cell budget of the first leg; 0 = unbudgeted
    std::uint64_t upload_id = 0;  // identity of the uploaded (game, candidate) bytes
    Grid planted;
    Grid direct;
    std::uint64_t direct_cells = 0;  // cells of the unbudgeted serial direct check

    // The ask/frontier line, with `leg_budget` cells (0 = unbudgeted).
    [[nodiscard]] std::string query_line(std::uint64_t leg_budget) const;
    // Every line of the request's first leg, in send order.
    [[nodiscard]] std::vector<std::string> lines() const;
};

// The verdict grid a reply implies. Asks: the reply's verdict. Frontiers:
// one breaking_k per streamed column (max_k + 1 = clean); a column that
// never streamed stays kUnknown.
[[nodiscard]] Grid ask_grid(bnash::core::CellVerdict verdict);
[[nodiscard]] Grid frontier_grid(std::size_t max_k, std::size_t max_t,
                                 const std::vector<std::optional<std::size_t>>& breaking_k);

// True when `observed` matches both the planted and the direct grid.
[[nodiscard]] bool verdict_ok(const Request& request, const Grid& observed);

// Runs the unbudgeted serial direct check and fills request.direct and
// request.direct_cells.
void check_directly(Request& request);

// Relabels players by a seeded permutation and rescales each player's
// payoffs by a seeded positive affine map. Both preserve every (k,t)
// verdict, which is what the canonical cache key relies on.
[[nodiscard]] std::pair<GameUpload, CandidateUpload> disguise(
    const bnash::game::NormalFormGame& game, const bnash::game::ExactMixedProfile& profile,
    std::uint64_t seed);

// A game whose candidate verdicts are known by construction. Every player
// i earns a constant V_i while it plays one of its "safe" actions (all but
// the last), whatever the others do; its last action pays less than V_i.
// So any candidate over safe actions is robust at every (k, t): nobody is
// ever hurt, and no deviator gains. When planted_k0 > 0, one coalition C0
// of that size is planted: if all of C0 play their last action while
// everyone else plays safe, one member of C0 earns above its V. Cell
// (k, t) is then broken iff k >= 1 and k + t >= planted_k0 (C0 splits into
// a coalition holding the gainer plus a faulty set).
[[nodiscard]] bnash::game::NormalFormGame planted_game(const std::vector<std::size_t>& counts,
                                                        std::size_t planted_k0,
                                                        std::uint64_t seed);
[[nodiscard]] Grid planted_grid(std::size_t planted_k0, std::size_t k, std::size_t t,
                                bool frontier);

// One workload's request stream.
class Traffic final {
public:
    // hot_repeat builds and direct-checks its corpus here, on `threads`
    // threads.
    Traffic(Workload workload, std::uint64_t seed, std::size_t threads);

    // Requests [first, first + count) of the stream, direct checks included
    // (run on `threads` threads). Frontier batches must start and end on a
    // game boundary (multiples of kFrontiersPerGame).
    [[nodiscard]] std::vector<Request> batch(std::size_t first, std::size_t count,
                                             std::size_t threads) const;

    // The fixed, seed-independent warm-up that set-up replays. hot_repeat:
    // one undisguised upload and ask of every corpus game (fills the memo).
    [[nodiscard]] std::vector<Request> warmup(std::size_t threads) const;

    static constexpr std::size_t kFrontiersPerGame = 8;
    // The traffic mix repeats exactly every cycle: cold_ask strata by
    // request index, frontier_session strata by game index.
    static constexpr std::size_t kColdCycle = 120;
    static constexpr std::size_t kFrontierCycleGames = 36;
    static constexpr std::size_t kHotCorpus = 64;
    static constexpr std::size_t kHotDisguises = 8;

private:
    [[nodiscard]] Request hot_request(std::size_t index) const;
    [[nodiscard]] Request cold_request(std::size_t index) const;
    [[nodiscard]] std::vector<Request> frontier_game(std::size_t group) const;

    Workload workload_;
    std::uint64_t seed_;
    std::vector<Request> hot_corpus_;              // undisguised, popularity rank order
    std::vector<double> hot_weights_;              // Zipf over popularity rank
    std::vector<std::vector<Request>> hot_pool_;   // [entry][disguise], direct-checked
};

// FNV-1a 64 over the lines of `requests` (each followed by '\n').
[[nodiscard]] std::uint64_t stream_hash(const std::vector<Request>& requests);

}  // namespace servebench
