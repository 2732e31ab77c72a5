// Fixture: a grant-aware raw run_blocks call under a pool-ok comment —
// pool-loop has no waiver, so it must fire anyway, and nothing else may.
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

void per_column_scan(std::size_t blocks) {
    bnash::util::ExecutionGrant* const grant = bnash::util::active_grant();
    // lint: pool-ok(fixture keeps one winner per column, which a single
    // lowest-hit runner cannot express)
    bnash::util::global_pool().run_blocks(blocks, [&](std::size_t) {
        if (grant != nullptr && grant->expired()) return;
    });
}

}  // namespace bnash::core
