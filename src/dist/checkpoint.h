// FragmentCheckpointer: periodic consistent snapshots of a stateful
// fragment's in-flight state — the hash-join builds, aggregate/distinct
// tables, the receivers' replay progress, and any ordered-merge hold
// buffers — so a site failure mid-join-build resumes from the last window
// boundary instead of replaying the whole stream into empty state.
//
// Consistency model. Every receiver of the fragment incorporates each
// accepted frame (dedup bookkeeping + downstream operator pushes) under
// this object's shared lock; a checkpoint takes the exclusive side, so the
// cut it observes is a frame boundary on every input simultaneously: a
// frame's effects — the receiver's high-water advance AND the operator
// state it built — are entirely inside or entirely outside the snapshot.
//
// What a restore means. The supervisor resets the fragment's operators
// (dropping the partial state of the failed attempt), feeds the snapshot
// back (operators re-insert their rows in the serialized order, which is
// the original insertion order — reproducing hash-table iteration order
// and hence bit-identical downstream emission), arms the receivers with
// the recorded high-waters at an epoch floor one past the recorded epoch,
// and relaunches every producer. Producers replay their deterministic
// window streams; the restored high-waters discard everything the snapshot
// already absorbed, so each window is applied exactly once across the
// failure.
//
// State is serialized through the standalone batch wire encoding:
// operators (in exec/, below net/) export (meta, batches) pairs and this
// layer owns the byte format, keeping the layering acyclic.
#ifndef PUSHSIP_DIST_CHECKPOINT_H_
#define PUSHSIP_DIST_CHECKPOINT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace pushsip {

class Operator;
class ExchangeReceiver;
class PlanBuilder;

/// \brief Coordinates consistent cuts over one stateful fragment and holds
/// its latest snapshot.
class FragmentCheckpointer {
 public:
  /// `interval_frames` > 0 takes a checkpoint every that many accepted
  /// frames (counted across all of the fragment's receivers); 0 disables
  /// automatic checkpoints (TakeCheckpoint may still be called directly).
  explicit FragmentCheckpointer(int64_t interval_frames = 0)
      : interval_frames_(interval_frames) {}

  /// Collects the fragment's checkpointable parts — operators answering
  /// SupportsStateSnapshot (in creation order) and ExchangeReceiver
  /// sources (in source order) — and registers this checkpointer with
  /// each receiver. Call once after the fragment is built, before it
  /// runs; call again with the rebuilt fragment before RestoreInto when
  /// recovering onto a migrated copy (the rebuild recipe must create the
  /// same operator/receiver sequence, which positional matching checks).
  void Bind(PlanBuilder* fragment);

  /// Shared side of the cut lock — receivers hold it across each frame's
  /// incorporation.
  std::shared_lock<std::shared_mutex> LockShared() {
    return std::shared_lock<std::shared_mutex>(cut_mu_);
  }

  /// Receiver callback after each accepted frame (called outside the
  /// shared lock); takes an automatic checkpoint at the configured
  /// interval. Checkpoint failures are swallowed: a missing snapshot
  /// degrades to the pre-existing full-replay recovery, it never fails
  /// the query.
  void OnFrameAccepted();

  /// Takes one consistent snapshot of the bound fragment now. Thread-safe
  /// against the fragment's receivers (exclusive cut) and against itself.
  Status TakeCheckpoint();

  /// True when a snapshot is available for RestoreInto.
  bool has_checkpoint() const;

  /// Feeds the latest snapshot into `fragment` (the original, reset in
  /// place, or a rebuilt copy previously passed to Bind). The fragment
  /// must be quiescent (no receiver threads) with its operators already
  /// ResetForReplay. On error the fragment is left reset — the caller
  /// falls back to a from-scratch replay via ClearReplayState.
  Status RestoreInto(PlanBuilder* fragment);

  /// Receivers the last Bind() registered with this checkpointer.
  size_t bound_receivers() const {
    std::lock_guard<std::mutex> lock(snap_mu_);
    return receivers_.size();
  }

  int64_t checkpoints_taken() const { return checkpoints_taken_.load(); }
  /// Serialized size of the latest snapshot (bytes); 0 before the first.
  int64_t checkpoint_bytes() const { return checkpoint_bytes_.load(); }
  /// Cumulative serialized bytes across all checkpoints taken.
  int64_t checkpoint_bytes_total() const {
    return checkpoint_bytes_total_.load();
  }
  /// Cumulative wall seconds spent inside RestoreInto.
  double restore_seconds() const { return restore_seconds_.load(); }
  /// Successful RestoreInto calls.
  int64_t restores() const { return restores_.load(); }

 private:
  /// One consistent cut: per-receiver replay blobs plus per-operator
  /// (meta, serialized batches) state, both positionally indexed.
  struct Snapshot {
    std::vector<std::string> receiver_state;
    std::vector<std::string> op_meta;
    std::vector<std::vector<std::string>> op_batches;
    int64_t bytes = 0;
  };

  int64_t interval_frames_;
  /// The consistency lock: receivers shared, checkpoints exclusive.
  std::shared_mutex cut_mu_;

  /// Bound fragment parts + latest snapshot, guarded by snap_mu_ (Bind and
  /// RestoreInto run on the supervisor thread; TakeCheckpoint on whichever
  /// receiver thread crossed the interval).
  mutable std::mutex snap_mu_;
  std::vector<Operator*> ops_;
  std::vector<ExchangeReceiver*> receivers_;
  std::unique_ptr<Snapshot> snapshot_;

  std::atomic<int64_t> frames_since_checkpoint_{0};
  std::atomic<int64_t> checkpoints_taken_{0};
  std::atomic<int64_t> checkpoint_bytes_{0};
  std::atomic<int64_t> checkpoint_bytes_total_{0};
  std::atomic<int64_t> restores_{0};
  std::atomic<double> restore_seconds_{0};
};

}  // namespace pushsip

#endif  // PUSHSIP_DIST_CHECKPOINT_H_
