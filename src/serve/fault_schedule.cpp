#include "serve/fault_schedule.h"

#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

namespace bnash::serve {

void FaultSchedule::at_query(std::uint64_t arrival, Action action, std::uint64_t value,
                             std::string message) {
    steps_.push_back(Step{arrival, action, value, std::move(message)});
}

void FaultSchedule::drop_stream_after(std::uint64_t conn, std::uint64_t cols) {
    stream_drops_.push_back(StreamDrop{conn, cols});
}

std::optional<std::uint64_t> FaultSchedule::stream_drop_for(std::uint64_t conn) const {
    for (const StreamDrop& drop : stream_drops_) {
        if (drop.conn == conn) return drop.cols;
    }
    return std::nullopt;
}

void FaultSchedule::fire(util::ExecutionGrant& grant) {
    const std::uint64_t arrival = arrivals_.fetch_add(1, std::memory_order_relaxed);
    for (const Step& step : steps_) {
        if (step.arrival != arrival) continue;
        switch (step.action) {
            case Action::kSleepMs:
                std::this_thread::sleep_for(std::chrono::milliseconds(step.value));
                break;
            case Action::kThrow:
                throw std::runtime_error(step.message);
            case Action::kCancelGrant:
                grant.cancel();
                break;
            case Action::kRestrictBudget:
                grant.restrict_budget(step.value);
                break;
        }
    }
}

void FaultSchedule::install(RobustnessServer& server) {
    server.set_fault_hook([this](util::ExecutionGrant& grant) { fire(grant); });
}

}  // namespace bnash::serve
