// Fixture: a serve/ file other than the socket front that spawns a
// thread — the query server owns none, so naked-thread must fire here.
#include <thread>
#include <vector>

namespace bnash::serve {

struct Server {
    std::vector<std::jthread> workers;

    void start() {
        workers.emplace_back([] {});
    }
};

}  // namespace bnash::serve
