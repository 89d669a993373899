// Open-loop load generation: items are released on a fixed schedule,
// whether or not the system under test keeps up, and the generator reports
// how late it ran against that schedule.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace perfbench {

struct OpenLoopSchedule {
  double items_per_second = 0.0;
  double tick_seconds = 0.0;

  // Items due by the end of tick `tick` (cumulative, 0-based ticks).
  [[nodiscard]] std::size_t DueThrough(std::size_t tick) const;
};

// The serve_live producer's schedule: about 40,000 records per second,
// released in 50 ms ticks (four ticks per 200 ms daemon poll interval).
inline constexpr OpenLoopSchedule kLiveSchedule{40'000.0, 0.050};

struct OpenLoopRun {
  std::vector<double> due_s;      // each tick's due time, from the start
  std::vector<double> started_s;  // when the tick's emit actually began
  std::size_t emitted = 0;
};

// How late the generator ran: the latest any tick started after it was due
// (0 when every tick was on time).  Ticks are matched by index.
[[nodiscard]] double MaxLateness(const std::vector<double>& due_s,
                                 const std::vector<double>& started_s);

// Release items [0, total) on `schedule`: before each tick, sleep until its
// due time (never sleeping to catch up), then call emit(begin, end) with the
// items that tick owes.  Stops after `total` items or once `deadline_s`
// seconds have passed since the start (0 = no deadline).
OpenLoopRun RunOpenLoop(const OpenLoopSchedule& schedule, std::size_t total,
                        double deadline_s,
                        const std::function<void(std::size_t, std::size_t)>& emit);

}  // namespace perfbench
