#include "util/pacer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "util/stopwatch.h"

namespace pushsip {
namespace {

using std::chrono::microseconds;

/// Time moves only when slept, and every sleep wakes 60 us past its
/// deadline — about what a short real sleep overshoots on a Linux host.
class OvershootingClock : public Clock {
 public:
  TimePoint Now() override { return now_; }
  void SleepUntil(TimePoint deadline) override {
    const TimePoint woke = std::max(now_, deadline) + microseconds(60);
    slept_ += woke - now_;
    now_ = woke;
    ++sleeps_;
  }

  double slept_seconds() const {
    return std::chrono::duration<double>(slept_).count();
  }
  int sleeps() const { return sleeps_; }

 private:
  TimePoint now_{};
  TimePoint::duration slept_{0};
  int sleeps_ = 0;
};

TEST(PacerTest, SmallDelaysSleepTheirSumOncePerGranule) {
  OvershootingClock clock;
  {
    Pacer pacer(clock);
    for (int i = 0; i < 10000; ++i) pacer.Owe(0.5e-6);  // 64 B at 1 Gb/s
  }
  // 5 ms modelled: slept to within one granule, never less, and in a
  // handful of sleeps rather than 10,000.
  EXPECT_GE(clock.slept_seconds(), 5e-3);
  EXPECT_LE(clock.slept_seconds(), 5e-3 + Pacer::kGranuleSeconds);
  EXPECT_LE(clock.sleeps(), 6);
}

TEST(PacerTest, PacingStepsTurnOvershootIntoCredit) {
  OvershootingClock clock;
  {
    Pacer pacer(clock);
    for (int i = 0; i < 469; ++i) pacer.Owe(1e-3);  // 120k rows, 1 ms/256
  }
  // One sleep per step would take 469 x 1.06 ms = 497 ms.
  EXPECT_GE(clock.slept_seconds(), 0.469);
  EXPECT_LE(clock.slept_seconds(), 0.469 + Pacer::kGranuleSeconds);
}

TEST(PacerTest, EachRunStartsWithNoDebtAndNoCredit) {
  OvershootingClock clock;
  {
    Pacer run(clock);
    run.Owe(0.4e-3);  // below a granule: carried, not slept
    EXPECT_EQ(clock.sleeps(), 0);
  }
  // Settled when the run ended.
  EXPECT_EQ(clock.sleeps(), 1);
  EXPECT_GE(clock.slept_seconds(), 0.4e-3);
  {
    Pacer run(clock);
    EXPECT_EQ(run.owed_seconds(), 0);
    run.Owe(1.5e-3);
    EXPECT_LT(run.owed_seconds(), 0);  // the overshoot is credit
  }
  Pacer next(clock);
  EXPECT_EQ(next.owed_seconds(), 0);  // ...that did not outlive its run
}

TEST(PacerTest, OwesToTheCallingThreadsInnermostPacer) {
  OvershootingClock clock;
  Pacer outer(clock);
  Pacer::OweOnThisThread(0.3e-3);
  {
    Pacer inner(clock);
    Pacer::OweOnThisThread(0.2e-3);
    EXPECT_DOUBLE_EQ(inner.owed_seconds(), 0.2e-3);
    // Another thread has no pacer: it sleeps at once and owes nothing here.
    std::thread other([] {
      Stopwatch timer;
      Pacer::OweOnThisThread(2e-3);
      EXPECT_GE(timer.ElapsedSeconds(), 2e-3);
    });
    other.join();
    EXPECT_DOUBLE_EQ(inner.owed_seconds(), 0.2e-3);
  }
  Pacer::OweOnThisThread(0.2e-3);
  EXPECT_DOUBLE_EQ(outer.owed_seconds(), 0.5e-3);
}

}  // namespace
}  // namespace pushsip
