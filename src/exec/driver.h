// Driver: runs a push plan — one producer thread per source scan (Tukwila's
// multithreaded, nondeterministically scheduled execution model) — and
// collects per-query statistics.
#ifndef PUSHSIP_EXEC_DRIVER_H_
#define PUSHSIP_EXEC_DRIVER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "exec/scan.h"
#include "exec/sink.h"

namespace pushsip {

/// Measurements of one query execution.
struct QueryStats {
  double elapsed_sec = 0;
  int64_t result_rows = 0;
  /// Peak of the summed intermediate state across all stateful operators
  /// (what Figs. 7/8/11/12/14 plot as "Intermediate State (MB)").
  int64_t peak_state_bytes = 0;
  /// Total tuples pruned by dynamically injected AIP filters.
  int64_t rows_pruned = 0;
  /// Total tuples pruned at sources (before a simulated link).
  int64_t rows_source_pruned = 0;
  /// Bytes that crossed every simulated link registered with the context
  /// (remote scans, exchanges, shipped AIP filters).
  int64_t bytes_shipped = 0;
  /// Simulated seconds those links spent transmitting.
  double link_seconds = 0;
  /// Seconds operators spent stalled — exchange receivers waiting for
  /// traffic, senders blocked on backpressure/credit (summed over ops).
  double stall_seconds = 0;

  double peak_state_mb() const {
    return static_cast<double>(peak_state_bytes) / (1024.0 * 1024.0);
  }
  double shipped_mb() const {
    return static_cast<double>(bytes_shipped) / (1024.0 * 1024.0);
  }
};

/// Adds one context's counters to `stats`: its state peak plus every
/// operator's port-filter pruning, stall seconds and (scans) source
/// pruning. `visit`, when set, sees each operator in the same walk, so a
/// caller folds counters of operator kinds this layer does not know.
void AddContextCounters(ExecContext& ctx, QueryStats* stats,
                        const std::function<void(Operator*)>& visit = {});

/// Folds a finished plan's counters (sink rows, AddContextCounters, link
/// usage) into a QueryStats. Shared by Driver and the serving layer, which
/// runs sources on pooled workers instead of fresh threads but reports the
/// same statistics shape.
QueryStats CollectQueryStats(ExecContext* ctx, Sink* sink,
                             double elapsed_sec);

/// \brief Owns the threads that drive a plan's sources to completion.
class Driver {
 public:
  /// `sources` are the plan's leaf operators (table scans and exchange
  /// receivers); `sink` its terminal operator. Neither ownership nor
  /// lifetime is transferred.
  Driver(ExecContext* ctx, std::vector<SourceOperator*> sources, Sink* sink)
      : ctx_(ctx), sources_(std::move(sources)), sink_(sink) {}

  /// Runs the plan to completion and returns its statistics.
  Result<QueryStats> Run();

 private:
  ExecContext* ctx_;
  std::vector<SourceOperator*> sources_;
  Sink* sink_;
};

}  // namespace pushsip

#endif  // PUSHSIP_EXEC_DRIVER_H_
