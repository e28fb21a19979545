// ExecContext: shared runtime state for one query execution — memory/state
// accounting, error propagation + cancellation, batch sizing, and the
// completion hooks that the adaptive-information-passing layer subscribes to.
#ifndef PUSHSIP_EXEC_EXEC_CONTEXT_H_
#define PUSHSIP_EXEC_EXEC_CONTEXT_H_

#include <atomic>
#include <cmath>
#include <functional>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "util/memory_tracker.h"

namespace pushsip {

class Operator;

/// Aggregate traffic of one (simulated) network link.
struct LinkUsage {
  int64_t bytes = 0;
  double seconds = 0;
};

/// \brief Per-query execution context shared by all operators and threads.
class ExecContext {
 public:
  ExecContext() = default;

  MemoryTracker& state_tracker() { return state_tracker_; }

  /// Records the first error and cancels the query.
  void SetError(const Status& status);
  Status GetError() const;
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// Registers an operator for stats reporting; called by Operator's ctor.
  void RegisterOperator(Operator* op);
  const std::vector<Operator*>& operators() const { return operators_; }

  /// Subscribes to "input port of a stateful operator completed" events —
  /// the trigger point for cost-based AIP (paper §IV-B). Callbacks run on
  /// the thread that delivered the Finish and must be quick or hand off.
  using InputFinishedHook = std::function<void(Operator*, int port)>;
  void AddInputFinishedHook(InputFinishedHook hook);

  /// Invoked by stateful operators when one of their inputs completes.
  void NotifyInputFinished(Operator* op, int port);

  size_t batch_size() const { return batch_size_; }
  void set_batch_size(size_t n) { batch_size_ = n == 0 ? 1 : n; }

  /// Per-operator timing (busy/downstream micros) is measured only when
  /// profiling is on — a relaxed load per Push keeps the disabled cost to
  /// one predictable branch. Row/batch counters are always maintained.
  bool profiling() const { return profiling_.load(std::memory_order_relaxed); }
  void set_profiling(bool on) {
    profiling_.store(on, std::memory_order_relaxed);
  }

  /// Heartbeat every exchange receiver of this query inherits unless its
  /// ReceiverOptions override it explicitly: give up with kUnavailable
  /// after this long without traffic (0 disables). A per-context knob so
  /// slow-site/straggler tests can shorten it without touching production
  /// defaults. Set before the query runs.
  double exchange_idle_timeout_sec() const {
    return exchange_idle_timeout_sec_;
  }
  void set_exchange_idle_timeout_sec(double sec) {
    exchange_idle_timeout_sec_ = sec;
  }

  /// Bills one transmission to *this* query: every transmit path (a remote
  /// scan's batches, exchange senders, AIP filter shipments) passes its
  /// context to SimLink::Transmit, so a context owns exactly the traffic it
  /// sent even on links shared by concurrent sessions. This is the one
  /// link ledger QueryStats::bytes_shipped/link_seconds are read from.
  void RecordLinkTraffic(int64_t bytes, double seconds) {
    own_link_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    own_link_nanos_.fetch_add(std::llround(seconds * 1e9),
                              std::memory_order_relaxed);
  }

  /// Traffic billed to this context via RecordLinkTraffic.
  LinkUsage OwnLinkUsage() const {
    LinkUsage u;
    u.bytes = own_link_bytes_.load(std::memory_order_relaxed);
    u.seconds = static_cast<double>(
                    own_link_nanos_.load(std::memory_order_relaxed)) /
                1e9;
    return u;
  }

  /// Records one serialized exchange transmission (`rows` rows became
  /// `bytes` wire bytes, compression included) — the recalibration feed for
  /// the AIP ship-vs-save decision, which multiplies pruned-row estimates
  /// by the bytes a row actually costs on this query's (compressed) links.
  void RecordWireSample(int64_t rows, int64_t bytes) {
    if (rows <= 0) return;
    wire_rows_.fetch_add(rows, std::memory_order_relaxed);
    wire_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }

  /// Observed average wire bytes per shipped row, or 0 when nothing has
  /// been shipped yet (callers fall back to their static estimate).
  double observed_wire_bytes_per_row() const {
    const int64_t rows = wire_rows_.load(std::memory_order_relaxed);
    if (rows <= 0) return 0;
    return static_cast<double>(wire_bytes_.load(std::memory_order_relaxed)) /
           static_cast<double>(rows);
  }

 private:
  MemoryTracker state_tracker_;
  std::atomic<bool> cancelled_{false};
  mutable std::mutex mu_;
  Status first_error_;
  std::vector<Operator*> operators_;
  std::vector<InputFinishedHook> hooks_;
  size_t batch_size_ = 1024;
  std::atomic<bool> profiling_{false};
  double exchange_idle_timeout_sec_ = 30.0;
  std::atomic<int64_t> wire_rows_{0};
  std::atomic<int64_t> wire_bytes_{0};
  std::atomic<int64_t> own_link_bytes_{0};
  /// Whole nanoseconds, so a sub-microsecond frame still bills its time.
  std::atomic<int64_t> own_link_nanos_{0};
};

}  // namespace pushsip

#endif  // PUSHSIP_EXEC_EXEC_CONTEXT_H_
