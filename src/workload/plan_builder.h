// PlanBuilder: the public plan-construction API. Builds, in one pass, the
// physical push-operator DAG, the optimizer's estimated Plan, and the
// SipPlanInfo (source-predicate graph + stateful ports) that the AIP
// algorithms consume. Queries are expressed against catalog tables with
// per-instance aliases; every base column instance receives a fresh AttrId.
#ifndef PUSHSIP_WORKLOAD_PLAN_BUILDER_H_
#define PUSHSIP_WORKLOAD_PLAN_BUILDER_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/distinct.h"
#include "exec/driver.h"
#include "exec/filter.h"
#include "exec/hash_aggregate.h"
#include "exec/hash_join.h"
#include "exec/project.h"
#include "exec/scan.h"
#include "exec/sink.h"
#include "sip/magic_sets.h"
#include "sip/sip_plan.h"
#include "storage/catalog.h"

namespace pushsip {

/// Aggregate description for PlanBuilder::Aggregate.
struct AggDesc {
  AggFunc func;
  /// Input column name; empty for COUNT(*).
  std::string input_col;
  std::string out_name;
};

/// The schema PlanBuilder::Scan assigns to instance number `instance` of
/// `table` under `alias`: columns renamed "alias.col", attribute ids
/// instance*100+column. Exposed so distributed plans can give shard scans
/// of the same logical table, built in different fragments, identical
/// attribute ids.
///
/// `cols`, when non-empty, names the only table columns to keep (unqualified
/// names, in the order given); a scan over the result reads just those
/// columns. A kept column keeps its full-schema AttrId — instance*100 plus
/// its *table* column index, not its position in the subset — so a narrowed
/// and a full-width scan of one instance agree on every shared attribute:
/// AIP correlation and IndexOfAttr lookups see the same ids either way. A
/// name that matches no column yields an untyped field that ScanTable
/// rejects.
Schema MakeInstanceSchema(const Table& table, const std::string& alias,
                          int instance,
                          const std::vector<std::string>& cols = {});

/// \brief Fluent construction of one executable query plan.
///
/// The builder owns every operator it creates; keep it alive while the
/// query runs. Node handles are indices into the builder's node table.
class PlanBuilder {
 public:
  using NodeId = int;

  PlanBuilder(ExecContext* ctx, std::shared_ptr<Catalog> catalog);
  ~PlanBuilder();

  PlanBuilder(const PlanBuilder&) = delete;
  PlanBuilder& operator=(const PlanBuilder&) = delete;

  /// Scans `table` as instance `alias`. `remote` marks the scan as sitting
  /// behind a simulated link (its ScanOptions should carry the link's
  /// transfer hook; see RemoteNode::WrapScanOptions).
  Result<NodeId> Scan(const std::string& table, const std::string& alias,
                      ScanOptions options = {}, bool remote = false);

  /// Scans `table` with a caller-supplied instance schema (attribute ids
  /// included) instead of allocating a fresh instance. Used for partitioned
  /// scans: every site's shard of one logical table carries the same
  /// attributes, so streams merged by an exchange stay AIP-correlatable.
  Result<NodeId> ScanShard(const std::string& table, Schema instance_schema,
                           ScanOptions options = {}, bool remote = false);

  /// Like ScanShard but over an explicit TablePtr, bypassing this builder's
  /// catalog. The adaptive runtime's migration recipes use it to rebuild a
  /// fragment on a site whose catalog does not hold the scanned partition —
  /// the data is the *original* site's shard (a replica, in the simulation
  /// the shared table).
  ///
  /// `instance_schema` may name any non-empty subset of the table's columns
  /// (MakeInstanceSchema's `cols`); the scan reads only those. Returns
  /// InvalidArgument — in every build type — when a field names no table
  /// column, has a type other than its column's, or repeats a column.
  Result<NodeId> ScanTable(TablePtr table, Schema instance_schema,
                           ScanOptions options = {}, bool remote = false);

  /// Registers an externally created source (an exchange receiver) as a
  /// leaf. `est_rows`/`ndv` seed the estimator — this fragment cannot see
  /// past the wire. `remote_ship`, when set, lets cost-based AIP deliver
  /// filters to the fragment(s) feeding the source. `partitioned_stream`
  /// marks a source carrying one hash partition of the logical stream
  /// (see StatefulPort::state_is_partitioned); the flag propagates to
  /// every stateful port downstream of the source.
  Result<NodeId> Source(std::unique_ptr<SourceOperator> op, double est_rows,
                        std::unordered_map<AttrId, double> ndv = {},
                        RemoteFilterShipFn remote_ship = nullptr,
                        bool partitioned_stream = false);

  /// Default rate limiting applied to scans that carry none of their own —
  /// models the paper's disk-streamed (I/O-paced) sources and makes input
  /// completion order reproducible.
  void set_default_pacing(size_t every_rows, double delay_ms) {
    pace_every_rows_ = every_rows;
    pace_ms_ = delay_ms;
  }

  /// Selection. `selectivity` is the optimizer hint (fraction kept).
  Result<NodeId> Filter(NodeId input, ExprPtr predicate, double selectivity);

  /// Pass-through projection onto the named columns.
  Result<NodeId> Project(NodeId input, const std::vector<std::string>& cols);

  /// General projection: `exprs[i]` computes output field `out_fields[i]`.
  /// Give pass-through columns their source Field (keeping the AttrId) so
  /// they stay visible to AIP; computed outputs should use kInvalidAttr.
  Result<NodeId> ProjectExprs(NodeId input, std::vector<Field> out_fields,
                              std::vector<ExprPtr> exprs);

  /// Schema a Join(left, right) output would have — for building residual
  /// join predicates before the join exists.
  Schema ConcatSchema(NodeId left, NodeId right) const {
    return Schema::Concat(schema(left), schema(right));
  }

  /// Equi-join on the named column pairs, optional residual predicate over
  /// the concatenated row with its selectivity hint.
  Result<NodeId> Join(NodeId left, NodeId right,
                      const std::vector<std::pair<std::string, std::string>>&
                          eq_cols,
                      ExprPtr residual = nullptr, double residual_sel = 1.0);

  /// Hash group-by on the named columns.
  Result<NodeId> Aggregate(NodeId input,
                           const std::vector<std::string>& group_cols,
                           const std::vector<AggDesc>& aggs);

  /// Duplicate elimination over all columns.
  Result<NodeId> Distinct(NodeId input);

  // --- magic-sets rewriting support ---
  /// Taps `input`, building the magic filter set over `key_cols`.
  Result<NodeId> MagicBuild(NodeId input,
                            const std::vector<std::string>& key_cols,
                            std::shared_ptr<MagicSetState> state);
  /// Gates `input` on the magic set over `key_cols`; `selectivity` hints
  /// the estimator.
  Result<NodeId> MagicGateOn(NodeId input,
                             const std::vector<std::string>& key_cols,
                             std::shared_ptr<MagicSetState> state,
                             double selectivity);

  /// Terminates the plan: attaches the Sink, assigns depths, estimates the
  /// Plan, and finalizes SipPlanInfo.
  Status Finish(NodeId root);

  /// Terminates a non-root fragment with `terminal` (an exchange sender)
  /// instead of a Sink. The fragment then has no Sink and is run by the
  /// multi-site driver rather than Run().
  Status FinishWith(NodeId root, std::unique_ptr<Operator> terminal);

  /// Convenience: runs the finished plan with a Driver.
  Result<QueryStats> Run();

  // --- accessors (valid after the corresponding construction step) ---
  const Schema& schema(NodeId node) const;
  /// Builds a column reference into `node`'s output schema.
  Result<ExprPtr> ColRef(NodeId node, const std::string& name) const;

  Sink* sink() const { return sink_; }
  const std::vector<TableScan*>& source_scans() const { return scans_; }
  /// All leaves (scans and registered sources), in creation order.
  const std::vector<SourceOperator*>& sources() const { return sources_; }
  /// The fragment's terminal operator (Sink, or the FinishWith terminal).
  Operator* terminal() const { return terminal_; }
  /// Estimated output rows of `node` (valid after Finish/FinishWith).
  double estimated_rows(NodeId node) const;
  /// Estimated per-attribute distinct counts of `node`'s output.
  const std::unordered_map<AttrId, double>& estimated_ndv(NodeId node) const;
  /// Every operator the builder owns (scans, interior ops, terminal), in
  /// creation order — the reset set for a fragment replay.
  const std::vector<std::unique_ptr<Operator>>& operators() const {
    return operators_;
  }
  SipPlanInfo& sip_info() { return sip_info_; }
  Plan& plan() { return plan_; }
  /// The estimated-plan node mirroring `node`'s operator (nullptr for an
  /// out-of-range id). Exchange-consumer registration uses this to hand
  /// the adaptive runtime its recalibration target.
  PlanNode* plan_node(NodeId node) const;
  ExecContext* context() const { return ctx_; }
  const std::shared_ptr<Catalog>& catalog() const { return catalog_; }

 private:
  struct NodeRec {
    Operator* op = nullptr;
    PlanNode* pnode = nullptr;
    TableScan* scan = nullptr;  ///< non-null when this node is a scan
    bool remote = false;
    std::shared_ptr<SimLink> scan_link;  ///< link a remote scan crosses
    RemoteFilterShipFn remote_ship;      ///< set on exchange-fed sources
    /// Some input of this node's subtree was a hash-partitioned source.
    bool partitioned = false;
  };

  Result<NodeRec*> GetNode(NodeId id);
  NodeId Register(std::unique_ptr<Operator> op,
                  std::unique_ptr<PlanNode> pnode, NodeRec rec);
  /// Records (op, port) as a stateful port fed by `child`.
  void AddStatefulPort(Operator* op, int port, const NodeRec& child);
  Status Finalize(NodeId root, std::unique_ptr<Operator> terminal);

  ExecContext* ctx_;
  std::shared_ptr<Catalog> catalog_;
  std::vector<std::unique_ptr<Operator>> operators_;
  std::vector<NodeRec> nodes_;
  std::vector<TableScan*> scans_;
  std::vector<SourceOperator*> sources_;
  Sink* sink_ = nullptr;
  Operator* terminal_ = nullptr;
  Plan plan_;
  SipPlanInfo sip_info_;
  int next_instance_ = 0;
  bool finished_ = false;
  size_t pace_every_rows_ = 0;
  double pace_ms_ = 0;
};

}  // namespace pushsip

#endif  // PUSHSIP_WORKLOAD_PLAN_BUILDER_H_
