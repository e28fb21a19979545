#include "util/clock.h"

#include <thread>

namespace pushsip {

namespace {

class RealClock final : public Clock {
 public:
  TimePoint Now() override { return std::chrono::steady_clock::now(); }
  void SleepUntil(TimePoint deadline) override {
    std::this_thread::sleep_until(deadline);
  }
};

}  // namespace

Clock& Clock::Real() {
  static RealClock clock;
  return clock;
}

}  // namespace pushsip
