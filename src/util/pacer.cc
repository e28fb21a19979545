#include "util/pacer.h"

namespace pushsip {

namespace {

thread_local Pacer* t_pacer = nullptr;

}  // namespace

Pacer::Pacer(Clock& clock) : clock_(clock), outer_(t_pacer) {
  t_pacer = this;
}

Pacer::~Pacer() {
  if (owed_ > 0) Pay();
  t_pacer = outer_;
}

void Pacer::Owe(double seconds) {
  owed_ += seconds;
  if (owed_ >= kGranuleSeconds) Pay();
}

void Pacer::Pay() {
  const Clock::TimePoint start = clock_.Now();
  clock_.SleepUntil(
      start + std::chrono::ceil<Clock::TimePoint::duration>(
                  std::chrono::duration<double>(owed_)));
  owed_ -= std::chrono::duration<double>(clock_.Now() - start).count();
}

void Pacer::OweOnThisThread(double seconds) {
  if (t_pacer != nullptr) {
    t_pacer->Owe(seconds);
    return;
  }
  Pacer once;
  once.Owe(seconds);
}

}  // namespace pushsip
