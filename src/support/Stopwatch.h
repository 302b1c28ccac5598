//===- support/Stopwatch.h - Monotonic wall-clock timing ------------------===//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//

#ifndef OM64_SUPPORT_STOPWATCH_H
#define OM64_SUPPORT_STOPWATCH_H

#include <chrono>
#include <utility>

namespace om64 {

/// Wall-clock seconds on the monotonic clock, counted from construction.
/// The one reader of std::chrono::steady_clock in src/.
class Stopwatch {
public:
  Stopwatch() : Start(Clock::now()) {}

  /// Seconds since construction or the last lap().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - Start).count();
  }

  /// seconds(), restarting the count at the same instant: consecutive
  /// laps partition the elapsed time with no gap between them.
  double lap() {
    Clock::time_point Then = std::exchange(Start, Clock::now());
    return std::chrono::duration<double>(Start - Then).count();
  }

private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point Start;
};

} // namespace om64

#endif // OM64_SUPPORT_STOPWATCH_H
