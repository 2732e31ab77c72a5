// Fixture: a first_hit search whose enclosing function consults the
// active grant — grant-propagation must stay quiet without a waiver.
#include <cstddef>
#include <cstdint>
#include <optional>

namespace bnash::util {
struct ExecutionGrant {
    bool expired() const { return false; }
};
ExecutionGrant* active_grant() noexcept;
template <typename Fn>
std::optional<std::uint64_t> first_hit(std::size_t blocks, std::uint64_t, bool, const Fn& fn) {
    for (std::size_t b = 0; b < blocks; ++b) {
        if (auto hit = fn(b)) return hit;
    }
    return std::nullopt;
}
}

namespace bnash::core {

bool granted_scan(std::size_t blocks) {
    bnash::util::ExecutionGrant* const grant = bnash::util::active_grant();
    const auto hit = bnash::util::first_hit(blocks, 1, true, [&](std::size_t block) {
        if (grant != nullptr && grant->expired()) return std::optional<std::uint64_t>{};
        return std::optional<std::uint64_t>{block};
    });
    return hit.has_value();
}

}  // namespace bnash::core
