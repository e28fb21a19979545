// Pacer: pays modelled delays as owed time instead of one sleep per event.
//
// A source's producer thread models time it does not spend computing: a
// scan's initial delay and per-step pacing, each simulated-link transfer,
// a Bloom filter's shipping time. Sleeping each of those on its own costs
// far more than it models for short delays (a sleep of a microsecond takes
// tens of microseconds on a Linux host), and every sleep overshoots. The
// pacer instead adds each delay to the thread's debt and sleeps only once
// the debt reaches kGranuleSeconds; whatever the sleep overshoots is kept
// as credit against the next delays. A thread therefore sleeps what it
// models to within one granule, and never less: the remaining debt is
// paid when the pacer is destroyed.
//
// Each source's Run installs a fresh Pacer, so debt and credit start at
// zero per run and are settled when it ends; nothing carries across
// queries on a pooled worker thread. The delays stay *in addition to* the
// work between them: time spent computing pays no debt.
#ifndef PUSHSIP_UTIL_PACER_H_
#define PUSHSIP_UTIL_PACER_H_

#include "util/clock.h"

namespace pushsip {

/// \brief The calling thread's owed modelled delay.
class Pacer {
 public:
  /// Debt below this is carried rather than slept. It is a constant, not
  /// an option: at 1 ms it is over 10x the ~60 us a short sleep overshoots
  /// on Linux, and at most one granule of a run's modelled delay moves to
  /// its end.
  static constexpr double kGranuleSeconds = 1e-3;

  /// Starts with no debt and no credit and becomes the calling thread's
  /// pacer until destroyed (the previous one, if any, is reinstated).
  explicit Pacer(Clock& clock = Clock::Real());
  /// Settles: sleeps any remaining debt; credit is dropped.
  ~Pacer();

  Pacer(const Pacer&) = delete;
  Pacer& operator=(const Pacer&) = delete;

  /// Adds `seconds` of modelled delay. Once the debt reaches a granule the
  /// thread sleeps it, and the time actually slept is subtracted, so an
  /// overshoot becomes credit.
  void Owe(double seconds);

  /// Seconds still owed; negative is credit.
  double owed_seconds() const { return owed_; }

  /// Owes `seconds` to the calling thread's pacer. A thread without one
  /// (outside any source's Run) sleeps them at once.
  static void OweOnThisThread(double seconds);

 private:
  void Pay();

  Clock& clock_;
  double owed_ = 0;
  Pacer* outer_;
};

}  // namespace pushsip

#endif  // PUSHSIP_UTIL_PACER_H_
