#include "net/sim_link.h"

#include <cmath>

#include "exec/exec_context.h"
#include "net/fault_injector.h"
#include "util/pacer.h"

namespace pushsip {

Status SimLink::Transmit(size_t bytes, ExecContext* bill_to) {
  if (injector_ != nullptr) {
    PUSHSIP_RETURN_NOT_OK(injector_->Check(from_, to_));
  }
  double secs = TransferSeconds(bytes);
  // One atomic exchange decides the single payer of the one-time latency;
  // concurrent first transmissions cannot both (or neither) pay it.
  if (!latency_paid_.exchange(true)) {
    secs += latency_ms_ / 1e3;
  }
  bytes_transferred_.fetch_add(static_cast<int64_t>(bytes));
  busy_nanos_.fetch_add(std::llround(secs * 1e9));
  if (bill_to != nullptr) {
    bill_to->RecordLinkTraffic(static_cast<int64_t>(bytes), secs);
  }
  if (secs > 0) Pacer::OweOnThisThread(secs);
  return Status::OK();
}

void SimLink::SetFaultInjector(std::shared_ptr<FaultInjector> injector,
                               int from, int to) {
  injector_ = std::move(injector);
  from_ = from;
  to_ = to;
}

}  // namespace pushsip
