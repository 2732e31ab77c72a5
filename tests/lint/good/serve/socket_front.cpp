// Fixture: the socket front is a sanctioned concurrency owner — its
// per-connection std::jthread must NOT trigger naked-thread.
#include <thread>
#include <vector>

namespace bnash::serve {

void spawn_sessions(std::size_t count) {
    std::vector<std::jthread> threads;
    for (std::size_t i = 0; i < count; ++i) {
        threads.emplace_back([] {});
    }
}

}  // namespace bnash::serve
