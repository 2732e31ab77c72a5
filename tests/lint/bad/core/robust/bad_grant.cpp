// Fixture: pooled calls whose enclosing functions show no grant awareness
// and carry no waiver — a raw run_blocks call and the two util block
// runners; each must trigger grant-propagation.
#include "util/thread_pool.h"

namespace bnash::core {

void scan_everything(std::size_t blocks) {
    bnash::util::global_pool().run_blocks(blocks, [](std::size_t) {});
}

void search_everything(std::size_t blocks) {
    (void)bnash::util::first_hit(blocks, 1, true, [](std::size_t, const auto&) {
        return std::optional<std::uint64_t>{};
    });
}

void reduce_everything(std::size_t blocks) {
    util::for_blocks(blocks, true, [](std::size_t) {});
}

}  // namespace bnash::core
