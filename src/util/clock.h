// Clock: the time source every modelled delay (scan pacing, simulated link
// transfers, filter shipping) is paid against. Production code always uses
// Clock::Real(); tests substitute a fake to check pacing arithmetic
// deterministically.
#ifndef PUSHSIP_UTIL_CLOCK_H_
#define PUSHSIP_UTIL_CLOCK_H_

#include <chrono>

namespace pushsip {

/// \brief Reads the time and sleeps until a deadline.
class Clock {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;

  virtual ~Clock() = default;

  virtual TimePoint Now() = 0;
  /// Returns no earlier than `deadline`; a real sleep overshoots it by the
  /// scheduler's wake-up latency.
  virtual void SleepUntil(TimePoint deadline) = 0;

  /// The steady clock, sleeping the calling thread.
  static Clock& Real();
};

}  // namespace pushsip

#endif  // PUSHSIP_UTIL_CLOCK_H_
