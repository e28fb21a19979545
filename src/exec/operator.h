// Operator: base class of the push-style execution engine.
//
// Data flows by Push(port, batch) calls made on producer threads; end of
// stream is signalled by Finish(port). Every operator supports two dynamic
// extension points used by adaptive information passing (paper §V-B):
//   * AttachFilter(port, f) — registers an "on-the-fly semijoin": arriving
//     tuples that fail the filter are pruned before the operator sees them.
//   * AttachTap(port, t)    — observes tuples that survived the filters
//     (Feed-Forward AIP builds its local working AIP sets this way).
#ifndef PUSHSIP_EXEC_OPERATOR_H_
#define PUSHSIP_EXEC_OPERATOR_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/schema.h"
#include "common/tuple.h"
#include "exec/exec_context.h"

namespace pushsip {

namespace obs {
struct OperatorProfile;
}  // namespace obs

/// \brief A dynamically injected semijoin filter.
///
/// Implementations must be thread-safe for concurrent Pass()/PassBatch()
/// calls.
class TupleFilter {
 public:
  virtual ~TupleFilter() = default;

  /// Returns false to prune row `row` of `batch`.
  virtual bool Pass(const Batch& batch, size_t row) const = 0;

  /// Batch variant over a selection vector: `*sel` holds the indices of the
  /// rows still alive after the filters applied so far (strictly
  /// increasing); the filter keeps only the passing indices, preserving
  /// order. The base implementation is the row-at-a-time reference loop;
  /// hash-probing filters override it to hash key columns once per batch
  /// and probe in a tight loop with one lock/bulk-counter update per batch
  /// instead of per row. Must prune exactly the rows Pass() would.
  virtual void PassBatch(const Batch& batch,
                         std::vector<uint32_t>* sel) const {
    size_t kept = 0;
    for (const uint32_t idx : *sel) {
      if (Pass(batch, idx)) (*sel)[kept++] = idx;
    }
    sel->resize(kept);
  }

  /// Human-readable label for diagnostics.
  virtual std::string label() const = 0;
};

/// Observer invoked for every row that survived the port's filters.
///
/// ObserveBatch receives the batch mutably only so it can use (and warm)
/// the batch's cached key-hash lane; taps must never modify the rows.
class TupleTap {
 public:
  virtual ~TupleTap() = default;
  virtual void Observe(const Batch& batch, size_t row) = 0;
  /// Batch variant; override to amortize per-call synchronization.
  virtual void ObserveBatch(Batch& batch) {
    for (size_t r = 0; r < batch.size(); ++r) Observe(batch, r);
  }
};

/// \brief Base class for all push operators.
class Operator {
 public:
  Operator(ExecContext* ctx, std::string name, int num_inputs,
           Schema output_schema);
  virtual ~Operator();

  Operator(const Operator&) = delete;
  Operator& operator=(const Operator&) = delete;

  const std::string& name() const { return name_; }
  int num_inputs() const { return num_inputs_; }
  const Schema& output_schema() const { return output_schema_; }
  ExecContext* context() const { return ctx_; }

  /// Connects this operator's output to `op` input `port`.
  void SetOutput(Operator* op, int port = 0);
  Operator* output() const { return out_; }
  int output_port() const { return out_port_; }

  /// Pushes a batch into input `port`. Applies attached filters and taps,
  /// then forwards to DoPush. Thread-safe.
  Status Push(int port, Batch&& batch);

  /// Signals end-of-stream on `port`. Thread-safe; at most once per port.
  Status Finish(int port);

  /// Injects a semijoin filter on input `port` (thread-safe, mid-query).
  void AttachFilter(int port, std::shared_ptr<const TupleFilter> filter);

  /// Installs a tuple observer on input `port` (thread-safe, mid-query).
  void AttachTap(int port, std::shared_ptr<TupleTap> tap);

  // --- statistics (paper §V-A: "all query operators are supplemented with
  // cardinality counters", exposed to the optimizer / AIP Manager) ---
  int64_t rows_in(int port) const { return rows_in_[port].load(); }
  int64_t rows_out() const { return rows_out_.load(); }
  int64_t batches_out() const { return batches_out_.load(); }
  int64_t rows_pruned(int port) const { return rows_pruned_[port].load(); }
  bool input_finished(int port) const { return finished_[port].load(); }

  // --- profiling (measured only while ExecContext::profiling() is on) ---

  /// Rows probed against attached AIP filters (pruned + passed).
  int64_t aip_probe_rows() const {
    return aip_probe_rows_.load(std::memory_order_relaxed);
  }
  /// Inclusive seconds inside this operator's Push/Finish bodies. Push-style
  /// execution nests downstream work inside the producer's call, so this
  /// includes everything below; see self_seconds().
  double busy_seconds() const {
    return static_cast<double>(
               busy_micros_.load(std::memory_order_relaxed)) /
           1e6;
  }
  /// Seconds spent inside the downstream Push/Finish calls Emit makes.
  double downstream_seconds() const {
    return static_cast<double>(
               downstream_micros_.load(std::memory_order_relaxed)) /
           1e6;
  }
  /// busy minus downstream, clamped at zero: the operator's own work.
  double self_seconds() const {
    const double s = busy_seconds() - downstream_seconds();
    return s > 0 ? s : 0;
  }
  /// Credits externally measured busy time — drivers wrap each source's
  /// Run() with this, since sources are driven rather than pushed into.
  void AddBusyMicros(int64_t micros) {
    busy_micros_.fetch_add(micros, std::memory_order_relaxed);
  }

  /// Snapshots this operator's counters into `profile` (name, rows, times,
  /// state). Subclasses annotate via AddProfileDetail.
  void FillProfile(obs::OperatorProfile* profile) const;
  /// Subclass hook: add operator-specific profile fields (scan prune
  /// counts, exchange bytes, a detail string). Default: nothing.
  virtual void AddProfileDetail(obs::OperatorProfile* profile) const;

  /// True for plan leaves driven by their own thread (SourceOperator).
  virtual bool IsSource() const { return false; }

  /// Seconds this operator spent stalled waiting for input to arrive (only
  /// exchange receivers measure this today) — a progress-snapshot signal
  /// for the adaptive runtime's straggler detector.
  virtual double stall_seconds() const { return 0; }

  /// Bytes of intermediate state currently buffered by this operator.
  virtual int64_t StateBytes() const { return 0; }
  /// Peak intermediate state this operator reached.
  virtual int64_t PeakStateBytes() const { return 0; }

  /// True for operators that buffer correlatable state (join, group-by,
  /// distinct) — the producers and subjects of AIP sets.
  virtual bool IsStateful() const { return false; }

  /// Rearms the operator for a deterministic replay of its fragment after a
  /// failure: clears the end-of-stream latches so a restarted source can
  /// push and finish again. Row/prune counters stay cumulative — replayed
  /// work is real work and shows up as recovery overhead. Only called by
  /// the multi-site driver, after every thread of the fragment has exited.
  /// Stateful operators (join/agg/distinct) additionally drop their buffered
  /// state, returning to the just-constructed shape; the checkpoint/restore
  /// protocol below re-fills them when a checkpoint exists.
  virtual void ResetForReplay();

  // --- state checkpointing (stateful fragment recovery) ---
  //
  // A stateful operator exports its buffered state as (meta, batches):
  // `meta` is a small operator-private byte string (flags, counts — the
  // operator owns the encoding) and `batches` carry the bulk state as
  // ordinary columnar batches, which the checkpointing layer serializes
  // through the wire encoding like any exchange payload. RestoreState
  // expects the operator to be freshly reset (ResetForReplay) and
  // re-inserts the rows in their serialized order, so hash-table iteration
  // order — and with it downstream emission order — reproduces the
  // snapshotted run exactly.
  // Snapshot/Restore are called only while no thread is pushing into the
  // fragment (the checkpoint holds the fragment's exclusive lock, restore
  // runs after every fragment thread exited).

  /// True when this operator implements SnapshotState/RestoreState.
  virtual bool SupportsStateSnapshot() const { return false; }
  /// Exports the operator's buffered state. Appends to `batches`.
  virtual Status SnapshotState(std::string* /*meta*/,
                               std::vector<Batch>* /*batches*/) const {
    return Status::NotImplemented(name_ + ": state snapshot not supported");
  }
  /// Rebuilds the operator's state from a SnapshotState export. The
  /// operator must be in its reset (empty) state.
  virtual Status RestoreState(const std::string& /*meta*/,
                              std::vector<Batch>&& /*batches*/) {
    return Status::NotImplemented(name_ + ": state restore not supported");
  }

 protected:
  /// Type-specific batch processing. `port` is 0..num_inputs-1.
  virtual Status DoPush(int port, Batch&& batch) = 0;
  /// Type-specific end-of-stream handling.
  virtual Status DoFinish(int port) = 0;

  /// Emits a batch downstream (no-op when there is no consumer).
  Status Emit(Batch&& batch);
  /// Emits end-of-stream downstream.
  Status EmitFinish();

  /// Marks cancellation-aware early exit.
  bool ShouldStop() const { return ctx_->cancelled(); }

  ExecContext* ctx_;

 private:
  static constexpr int kMaxInputs = 2;

  std::string name_;
  int num_inputs_;
  Schema output_schema_;
  Operator* out_ = nullptr;
  int out_port_ = 0;

  std::mutex hook_mu_;
  std::vector<std::shared_ptr<const TupleFilter>> filters_[kMaxInputs];
  std::vector<std::shared_ptr<TupleTap>> taps_[kMaxInputs];
  std::atomic<uint64_t> hook_version_{0};

  std::atomic<int64_t> rows_in_[kMaxInputs];
  std::atomic<int64_t> rows_out_{0};
  std::atomic<int64_t> batches_out_{0};
  std::atomic<int64_t> rows_pruned_[kMaxInputs];
  std::atomic<bool> finished_[kMaxInputs];
  std::atomic<int64_t> aip_probe_rows_{0};
  std::atomic<int64_t> busy_micros_{0};
  std::atomic<int64_t> downstream_micros_{0};
};

}  // namespace pushsip

#endif  // PUSHSIP_EXEC_OPERATOR_H_
