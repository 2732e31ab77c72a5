// Fixture: a grant-aware but raw run_blocks call outside src/util, with no
// waiver — must trigger pool-loop and nothing else.
#include <cstddef>

namespace bnash::util {
struct ExecutionGrant {
    bool expired() const { return false; }
};
ExecutionGrant* active_grant() noexcept;
struct Pool {
    template <typename Fn>
    void run_blocks(std::size_t blocks, const Fn& fn) {
        for (std::size_t b = 0; b < blocks; ++b) fn(b);
    }
};
Pool& global_pool();
}

namespace bnash::core {

void hand_rolled_search(std::size_t blocks) {
    bnash::util::ExecutionGrant* const grant = bnash::util::active_grant();
    bnash::util::global_pool().run_blocks(blocks, [&](std::size_t) {
        if (grant != nullptr && grant->expired()) return;
    });
}

}  // namespace bnash::core
