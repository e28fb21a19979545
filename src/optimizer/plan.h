// Plan: a lightweight mirror of the physical operator DAG carrying the
// optimizer's cardinality/NDV estimates. Tukwila's optimizer services stay
// invocable during execution (paper §V-A); here the Plan is re-estimated at
// runtime by blending observed operator counters with static estimates.
#ifndef PUSHSIP_OPTIMIZER_PLAN_H_
#define PUSHSIP_OPTIMIZER_PLAN_H_

#include <atomic>
#include <memory>
#include <unordered_map>
#include <vector>

#include "exec/operator.h"
#include "storage/table.h"

namespace pushsip {

/// \brief One node of the estimated plan (1:1 with a physical operator).
struct PlanNode {
  enum class Kind {
    kScan,
    kFilter,
    kProject,
    kJoin,
    kAggregate,
    kDistinct,
    kSink,
    kMagicBuilder,
    kMagicGate,
    kExchange,  ///< leaf fed by a remote fragment through an exchange
  };

  Kind kind = Kind::kScan;
  Operator* op = nullptr;     ///< the physical operator
  std::vector<PlanNode*> children;
  PlanNode* parent = nullptr;
  int depth = 0;              ///< root = 0, grows downward

  /// Estimated output cardinality (rows).
  double est_rows = 0;
  /// Estimated number of distinct values per attribute in the output.
  std::unordered_map<AttrId, double> ndv;

  // Kind-specific estimation inputs.
  TablePtr table;            ///< kScan
  /// kScan: the table column each output field reads (a scan may read a
  /// subset of the table, so field i's statistics are column_stats of
  /// table_cols[i], not of column i).
  std::vector<int> table_cols;
  double selectivity = 1.0;  ///< kFilter / join residual selectivity hint
  std::vector<std::pair<AttrId, AttrId>> join_attrs;  ///< kJoin key pairs
  std::vector<AttrId> group_attrs;                    ///< kAggregate keys
  /// kExchange: estimated rows arriving over the wire. Seeded with the
  /// fragmenter's static estimate (this fragment cannot see past the wire);
  /// the adaptive runtime overwrites it with the producing fragments'
  /// *observed* cardinalities as they complete (FeedObservedExchangeRows).
  /// Atomic because the writer is the supervisor thread while readers
  /// re-estimate under their own AIP-manager locks.
  std::atomic<double> exchange_est_rows{0};
  std::unordered_map<AttrId, double> exchange_ndv;

  /// Which input port of `parent->op` this node feeds.
  int parent_port = 0;

  const Schema& schema() const { return op->output_schema(); }
};

/// \brief Owns the PlanNodes of one query and provides (re-)estimation.
class Plan {
 public:
  PlanNode* AddNode(std::unique_ptr<PlanNode> node);
  void SetRoot(PlanNode* root);

  PlanNode* root() const { return root_; }
  const std::vector<std::unique_ptr<PlanNode>>& nodes() const {
    return nodes_;
  }

  /// Node that produces the stream entering `op` input `port` (nullptr when
  /// unknown).
  PlanNode* InputNode(const Operator* op, int port) const;

  /// Computes est_rows / ndv bottom-up from table statistics and hints.
  /// Call once after the plan is fully built.
  void Estimate();

  /// Runtime re-estimation (the paper's UPDATEESTIMATES): nodes whose output
  /// stream has finished are pinned to their observed cardinality; everything
  /// else is recomputed bottom-up with estimates floored at observed counts.
  void Reestimate();

  /// Rows still expected to arrive at `op` input `port` (0 once finished).
  double EstimatedRowsRemaining(const Operator* op, int port) const;

 private:
  void EstimateNode(PlanNode* n, bool use_runtime);
  void AssignDepths(PlanNode* n, int depth);

  std::vector<std::unique_ptr<PlanNode>> nodes_;
  PlanNode* root_ = nullptr;
};

}  // namespace pushsip

#endif  // PUSHSIP_OPTIMIZER_PLAN_H_
