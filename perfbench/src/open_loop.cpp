#include "open_loop.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

namespace perfbench {

std::size_t OpenLoopSchedule::DueThrough(std::size_t tick) const {
  return static_cast<std::size_t>(std::floor(
      static_cast<double>(tick + 1) * tick_seconds * items_per_second));
}

double MaxLateness(const std::vector<double>& due_s,
                   const std::vector<double>& started_s) {
  double late = 0.0;
  const std::size_t n = std::min(due_s.size(), started_s.size());
  for (std::size_t i = 0; i < n; ++i) {
    late = std::max(late, started_s[i] - due_s[i]);
  }
  return late;
}

OpenLoopRun RunOpenLoop(const OpenLoopSchedule& schedule, std::size_t total,
                        double deadline_s,
                        const std::function<void(std::size_t, std::size_t)>& emit) {
  using Clock = std::chrono::steady_clock;
  OpenLoopRun run;
  const auto start = Clock::now();
  const auto since_start = [&start] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  for (std::size_t tick = 0; run.emitted < total; ++tick) {
    const double due = static_cast<double>(tick) * schedule.tick_seconds;
    if (deadline_s > 0.0 && due >= deadline_s) break;
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(due)));
    const std::size_t end = std::min(total, schedule.DueThrough(tick));
    run.due_s.push_back(due);
    run.started_s.push_back(since_start());
    if (end > run.emitted) emit(run.emitted, end);
    run.emitted = std::max(run.emitted, end);
  }
  return run;
}

}  // namespace perfbench
