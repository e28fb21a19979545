// SymmetricHashJoin: the pipelined (doubly-pipelined / XJoin-style) hash
// join at the heart of push-style query processing (paper §II, §V-A).
//
// Both inputs build hash tables and probe the opposite side as tuples
// arrive, so results stream out regardless of input arrival order. The
// operator implements Tukwila's short-circuit optimization (paper §VI-A,
// the Q2C discussion): once one input finishes, the other side stops
// buffering — arriving tuples only probe — and the now-unprobeable table
// is freed.
//
// Each side's table is a flat chained hash table over the side's retained
// batches (see Side). A pushed batch is joined a batch at a time: the probe
// collects every match as (probe row, build batch, build row), then each
// output column is built with one typed gather (Column::AppendGather; the
// build side's multi-batch form), and a residual predicate becomes one
// selection plus one compaction.
//
// Emission order is part of the contract: probe rows in arrival order, and
// each probe row's matches newest-first by build insertion order. Answers
// that sum floating-point values depend on it, so sim, TCP and recovered
// runs stay bit-identical only because every path reproduces it.
#ifndef PUSHSIP_EXEC_HASH_JOIN_H_
#define PUSHSIP_EXEC_HASH_JOIN_H_

#include <cstdint>
#include <vector>

#include "exec/operator.h"
#include "expr/expression.h"

namespace pushsip {

/// \brief Symmetric (doubly-pipelined) hash join on equality keys, with an
/// optional residual predicate evaluated over the concatenated output row.
class SymmetricHashJoin : public Operator {
 public:
  /// `left_keys` / `right_keys` are parallel column-index lists into the
  /// respective input schemas. Output schema is left ++ right.
  SymmetricHashJoin(ExecContext* ctx, std::string name, Schema left_schema,
                    Schema right_schema, std::vector<int> left_keys,
                    std::vector<int> right_keys, ExprPtr residual = nullptr);
  ~SymmetricHashJoin() override;

  bool IsStateful() const override { return true; }
  int64_t StateBytes() const override;
  int64_t PeakStateBytes() const override { return peak_state_.load(); }

  /// Hashes of the values in column `col` of every tuple buffered for input
  /// `port`. Used by cost-based AIP to build an AIP set from the completed
  /// subexpression held in this operator's state (paper §IV-B).
  std::vector<uint64_t> StateColumnHashes(int port, int col) const;

  /// Number of tuples currently buffered for `port`.
  int64_t StateTupleCount(int port) const;

  /// True iff the state buffered for `port` at the moment it finished was
  /// the *complete* input subexpression. False when the short-circuit
  /// optimization had already stopped buffering this side (the other input
  /// finished first), in which case an AIP set must NOT be built from it —
  /// it would have false negatives.
  bool StateCompleteAtFinish(int port) const;

  const std::vector<int>& keys(int port) const {
    return port == 0 ? left_keys_ : right_keys_;
  }

  /// Drops both sides' build state (plus the base latches): the fragment
  /// restarts from the last checkpoint, or from scratch when none exists.
  void ResetForReplay() override;

  // State checkpointing: `meta` carries each side's flags and batch count;
  // the batches are both sides' retained build batches in insertion order.
  // RestoreState re-inserts rows batch-by-batch, row-by-row — the exact
  // original insertion sequence — so every bucket chain comes back in the
  // same newest-first order, and a restored run emits its matches in the
  // order the snapshotted run would have.
  bool SupportsStateSnapshot() const override { return true; }
  Status SnapshotState(std::string* meta,
                       std::vector<Batch>* batches) const override;
  Status RestoreState(const std::string& meta,
                      std::vector<Batch>&& batches) override;

 protected:
  Status DoPush(int port, Batch&& batch) override;
  Status DoFinish(int port) override;

 private:
  /// One buffered row: its key hash, where it lives, and the next-older
  /// entry in its bucket chain (kNoEntry ends the chain).
  struct Entry {
    uint64_t hash;
    uint32_t batch;
    uint32_t row;
    uint32_t next;
  };
  static constexpr uint32_t kNoEntry = UINT32_MAX;

  struct Side {
    // Build state stays columnar: arriving batches are retained whole and
    // the table stores (batch index, row index) references, so builds are
    // O(1) per row (no row materialization) and probe hits gather output
    // columns with code-copying string appends.
    std::vector<Batch> batches;
    // Flat chained hash table. `entries` holds one Entry per buffered row,
    // in insertion order. `heads` (a power of two, empty until the first
    // insert, at least one bucket per entry) holds the newest entry of each
    // bucket, selected by the low bits of the hash. Inserting at the head
    // makes a chain walk meet rows newest-first, which is the documented
    // emission order; growth rebuilds every chain by re-inserting the
    // entries in insertion order, so it never reorders a chain. Chains mix
    // hashes that share a bucket: the walk skips other hashes, and hash
    // collisions are verified by RowsEqualOn before emitting.
    std::vector<Entry> entries;
    std::vector<uint32_t> heads;
    // Probe scratch, per batch index: the batch's position in the current
    // push's list of matched batches, or kNoEntry. Reset after every push.
    std::vector<uint32_t> match_slot;
    bool finished = false;
    bool buffering = true;
    bool complete_at_finish = false;
    int64_t state_bytes = 0;
  };

  /// Retains `batch` in `side`: inserts each row under its key hash from
  /// `hashes` (row-parallel) and charges the state tracker.
  void BufferBatch(Side* side, Batch&& batch,
                   const std::vector<uint64_t>& hashes);
  void ReleaseSide(Side* side);
  void BumpPeak();

  std::vector<int> left_keys_, right_keys_;
  ExprPtr residual_;

  mutable std::mutex mu_;
  Side sides_[2];
  std::atomic<int64_t> peak_state_{0};
};

}  // namespace pushsip

#endif  // PUSHSIP_EXEC_HASH_JOIN_H_
