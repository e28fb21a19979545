// SimLink: a simulated network link with a modelled bandwidth and latency.
//
// Substitution note (see DESIGN.md §3): the paper runs its distributed
// experiments on two Tukwila nodes over real Ethernet. We model the link in
// process: transmitting n bytes costs the sending thread n/bandwidth
// seconds (plus a one-time latency), which reproduces exactly the property
// those experiments measure — shipping a small Bloom filter upstream saves
// the transfer time of the tuples it prunes. The time is owed to the
// sender's Pacer (util/pacer.h) rather than slept per call, so a small
// frame costs what it models instead of a whole scheduler wake-up; the
// sender sleeps its summed transfer time to within one pacing granule.
#ifndef PUSHSIP_NET_SIM_LINK_H_
#define PUSHSIP_NET_SIM_LINK_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/status.h"

namespace pushsip {

class ExecContext;
class FaultInjector;

/// \brief A point-to-point simulated link.
class SimLink {
 public:
  /// `bandwidth_bps` in bits per second (paper: 100 Mb Ethernet for the
  /// distributed join experiments, 10 Mbps in the cost model).
  SimLink(double bandwidth_bps, double latency_ms = 0.0)
      : bandwidth_bps_(bandwidth_bps), latency_ms_(latency_ms) {}

  /// Owes the time `bytes` takes to cross the link to the calling thread's
  /// Pacer: inside a source's Run the sender sleeps once its owed time
  /// reaches a pacing granule (outside one, it sleeps at once). The first
  /// transmission also pays the latency (exactly once, even under
  /// concurrent first transmissions). The bytes and seconds are billed in
  /// full, as modelled, whenever the sleep happens. Fails with kUnavailable —
  /// before any bytes move or are billed — when an installed FaultInjector
  /// has an armed fault covering this link. When `bill_to` is non-null the
  /// same bytes/seconds are additionally billed to that context via
  /// ExecContext::RecordLinkTraffic, giving per-query accounting on links
  /// shared by concurrent sessions (the link's own totals stay global).
  Status Transmit(size_t bytes, ExecContext* bill_to = nullptr);

  /// Names the link's endpoints and attaches the mesh's failure oracle.
  /// Links without an injector never fail.
  void SetFaultInjector(std::shared_ptr<FaultInjector> injector, int from,
                        int to);

  /// Seconds `bytes` would take (excluding latency) — for cost estimation.
  double TransferSeconds(size_t bytes) const {
    return static_cast<double>(bytes) * 8.0 /
           bandwidth_bps_.load(std::memory_order_relaxed);
  }

  /// Re-rates the link, possibly while transmissions are in flight (the
  /// straggler-injection knob: throttling one site's outbound links makes
  /// it lag the mesh). In-flight transmissions keep the rate they sampled.
  void set_bandwidth_bps(double bps) {
    bandwidth_bps_.store(bps <= 0 ? 1.0 : bps, std::memory_order_relaxed);
  }

  int64_t bytes_transferred() const { return bytes_transferred_.load(); }
  /// Total simulated seconds the link spent transmitting (latency included).
  double busy_seconds() const {
    return static_cast<double>(busy_nanos_.load()) / 1e9;
  }
  double bandwidth_bps() const {
    return bandwidth_bps_.load(std::memory_order_relaxed);
  }
  double latency_ms() const { return latency_ms_; }

 private:
  std::atomic<double> bandwidth_bps_;
  double latency_ms_;
  std::atomic<int64_t> bytes_transferred_{0};
  /// Whole nanoseconds: a 64-byte frame at 1 Gb/s is 512 ns, which a
  /// microsecond count would round away.
  std::atomic<int64_t> busy_nanos_{0};
  std::atomic<bool> latency_paid_{false};
  std::shared_ptr<FaultInjector> injector_;
  int from_ = -1;
  int to_ = -1;
};

}  // namespace pushsip

#endif  // PUSHSIP_NET_SIM_LINK_H_
