// HashAggregate: hash-based group-by, the blocking operator that AIP can
// pass information *across* (paper §III: "regardless of whether there are
// intervening blocking operators").
#ifndef PUSHSIP_EXEC_HASH_AGGREGATE_H_
#define PUSHSIP_EXEC_HASH_AGGREGATE_H_

#include <unordered_map>

#include "exec/operator.h"
#include "expr/aggregate.h"

namespace pushsip {

/// \brief Groups input rows by key columns and computes aggregates.
///
/// Output layout: the group-key columns (retaining their AttrIds, so AIP
/// can correlate through the aggregation) followed by one column per
/// AggSpec. Results are emitted when the input finishes; the hash table is
/// retained afterwards (it is the AIP-set source for this subexpression)
/// and released at destruction.
class HashAggregate : public Operator {
 public:
  /// `group_cols` index the input schema. An empty list means a single
  /// global group (scalar aggregation).
  HashAggregate(ExecContext* ctx, std::string name, const Schema& in_schema,
                std::vector<int> group_cols, std::vector<AggSpec> aggs);
  ~HashAggregate() override;

  bool IsStateful() const override { return true; }
  int64_t StateBytes() const override;
  int64_t PeakStateBytes() const override { return peak_state_.load(); }

  /// Hashes of the values of output column `col` (must be a group-key
  /// column) across all groups. AIP-set source for cost-based AIP.
  std::vector<uint64_t> StateColumnHashes(int col) const;

  int64_t NumGroups() const;

  static Schema MakeOutputSchema(const Schema& in_schema,
                                 const std::vector<int>& group_cols,
                                 const std::vector<AggSpec>& aggs);

  /// Drops the group table (plus the base latches) for a from-scratch replay.
  void ResetForReplay() override;

  // State checkpointing: one batch holding, per group, the key values
  // followed by each AggState's raw running fields (count, sum bits,
  // integral flag, integer sum, running extreme). `meta` records whether
  // DoFinish had already emitted the results before the snapshot — a
  // restored operator must then re-signal finish without re-emitting rows
  // the downstream state already incorporated.
  bool SupportsStateSnapshot() const override { return true; }
  Status SnapshotState(std::string* meta,
                       std::vector<Batch>* batches) const override;
  Status RestoreState(const std::string& meta,
                      std::vector<Batch>&& batches) override;

 protected:
  Status DoPush(int port, Batch&& batch) override;
  Status DoFinish(int port) override;

 private:
  struct Group {
    Tuple key;  // values of the group columns
    std::vector<AggState> states;
    /// Creation order. Snapshots serialize groups by seq so a restore
    /// replays the original emplace sequence — the hash table's layout
    /// (and with it DoFinish's emission order) is a deterministic function
    /// of that sequence, which iteration order alone is not.
    int64_t seq = 0;
  };

  /// The group of row `r` of `batch` (key hash `h`), created — and its
  /// state bytes charged — when new. Caller holds mu_.
  Group* FindOrAddGroup(const Batch& batch, size_t r, uint64_t h);

  std::vector<int> group_cols_;
  /// 0..k-1: the positions of the group columns within a Group's key.
  std::vector<int> key_cols_;
  std::vector<AggSpec> aggs_;

  mutable std::mutex mu_;
  std::unordered_multimap<uint64_t, Group> groups_;
  int64_t next_group_seq_ = 0;
  int64_t state_bytes_ = 0;
  /// Set once DoFinish has emitted the result rows. Checkpointed: a restore
  /// with the flag set makes the re-run DoFinish forward only the finish
  /// signal (the rows already reached — and were checkpointed inside — the
  /// downstream operators).
  bool results_emitted_ = false;
  std::atomic<int64_t> peak_state_{0};
};

}  // namespace pushsip

#endif  // PUSHSIP_EXEC_HASH_AGGREGATE_H_
