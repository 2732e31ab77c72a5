// Fixture: a grant-unaware block-runner call with a documented waiver —
// grant-propagation must stay quiet.
#include <cstddef>

namespace bnash::util {
template <typename Fn>
void for_blocks(std::size_t blocks, bool, const Fn& fn) {
    for (std::size_t b = 0; b < blocks; ++b) fn(b);
}
}

namespace bnash::core {

void waived_scan(std::size_t blocks) {
    // lint: grant-ok(fixture blocks are empty; there is no work a budget
    // could account for)
    bnash::util::for_blocks(blocks, true, [](std::size_t) {});
}

}  // namespace bnash::core
