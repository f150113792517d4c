// Discrete-event simulation core.
//
// The performance study (paper §4) is a simulation: sites with a CPU and a
// disk connected by a network, with the Table-1 cost rates. This engine is
// deliberately minimal and fully deterministic: an integer-nanosecond clock
// (every Table-1 rate is an exact number of nanoseconds per unit) and a
// stable event queue (ties broken by scheduling order), so a given workload
// and seed always reproduce bit-identical times.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <vector>

#include "isomer/common/error.hpp"

namespace isomer {

/// Simulated time in nanoseconds.
using SimTime = std::int64_t;

[[nodiscard]] constexpr SimTime microseconds(std::int64_t us) noexcept {
  return us * 1000;
}

/// The clock reading `delay` (>= 0) after `at`, saturating at the largest
/// SimTime. Durations come from user specs and may be as large as SimTime
/// holds, so every sum of a clock reading and a duration goes through here:
/// a time past the clock's range reads as the end of time instead of
/// overflowing into the past.
[[nodiscard]] constexpr SimTime clock_add(SimTime at, SimTime delay) noexcept {
  constexpr SimTime kEnd = std::numeric_limits<SimTime>::max();
  return delay > 0 && at > kEnd - delay ? kEnd : at + delay;
}

[[nodiscard]] constexpr double to_milliseconds(SimTime t) noexcept {
  return static_cast<double>(t) / 1e6;
}
[[nodiscard]] constexpr double to_seconds(SimTime t) noexcept {
  return static_cast<double>(t) / 1e9;
}

/// Event-driven scheduler.
class Simulator {
 public:
  using Callback = std::function<void()>;

  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedules `cb` at absolute time `at` (>= now).
  void schedule_at(SimTime at, Callback cb);

  /// Schedules `cb` after `delay` (>= 0) from now.
  void schedule_after(SimTime delay, Callback cb) {
    schedule_at(clock_add(now_, delay), std::move(cb));
  }

  /// Runs until no events remain. Callbacks may schedule further events.
  void run();

  [[nodiscard]] bool idle() const noexcept { return queue_.empty(); }
  [[nodiscard]] std::uint64_t events_processed() const noexcept {
    return processed_;
  }

 private:
  struct Event {
    SimTime at;
    std::uint64_t seq;  ///< tie-breaker: FIFO among simultaneous events
    Callback cb;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

}  // namespace isomer
