// PlanFragmenter: the one assembler of distributed plans. It cuts a
// LogicalPlan into per-site fragments joined by exchanges and registers
// what the runtime needs to supervise them.
//
// Placement. A scan runs at the site whose catalog holds its table, or at
// every site when every catalog holds a shard of it. A unary node runs
// where its input runs. An Exchange node is a cut (Graefe's exchange
// operator): its input runs where it runs, and its output is at every site
// (broadcast, hash partition) or at the coordinator (forward). A join runs
// where its inputs run; when they run at two different single sites, the
// right input is cut by an implicit forward exchange to the left input's
// site, and a single-site input joined with an all-sites input is refused.
// A root that runs elsewhere than the coordinator is forwarded there.
//
// Fragments. Each cut's input subtree becomes one fragment per producing
// site, terminated by an ExchangeSender `xsend_<stage>`; its consumers read
// an ExchangeReceiver `xrecv_<stage>` whose estimates come from the
// producers' (rows summed; a hash partition divides rows and the key's NDV
// by the site count). Every site of a query with cuts gets a SimTransport
// endpoint over the mesh, and each sender's edges are opened on its site's
// endpoint; receivers ship AIP filters back to the producing sites from
// their own site's endpoint (WireTransport later moves sites onto TCP).
// Fragments are built in the order their exchanges were declared,
// producers before consumers.
//
// Registries. A fragment whose joins read receivers gets a cost-based AIP
// Manager (when `aip` is set). A producer fragment is replayable when it is
// a single windowed scan under stateless operators; it is stateful (a
// checkpointer, its input channels and its producers) when it holds join or
// aggregate state fed by receivers and every fragment feeding it is
// replayable. Both kinds are migratable, with one rebuild recipe that
// re-materializes the fragment's logical subtree on any host site. The
// root and every other fragment only restart in place, if at all.
#ifndef PUSHSIP_DIST_PLAN_FRAGMENTER_H_
#define PUSHSIP_DIST_PLAN_FRAGMENTER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dist/dist_driver.h"

namespace pushsip {

/// Knobs for assembling and running one distributed plan.
struct ScaleOutOptions {
  /// Read by BuildScaleOutQuery (PlanFragmenter takes the site count from
  /// its catalogs and the mesh from its constructor).
  int num_sites = 3;
  double bandwidth_bps = 1e9;
  double latency_ms = 0.2;
  /// Install a cost-based AIP Manager on every fragment whose joins read
  /// exchange receivers.
  bool aip = false;
  AipOptions aip_options;
  CostConstants cost;
  size_t batch_size = 1024;
  /// Pacing of the scale-out workloads' sharded scans (models
  /// disk-streamed sources and gives the AIP filter time to arrive while
  /// the stream is still flowing).
  size_t pace_every_rows = 256;
  double pace_ms = 1.0;
  /// Drop the brand predicate from Q17's part filter (keeps ~25x more
  /// parts) so tiny test-scale catalogs still produce non-empty results.
  bool weak_part_filter = false;
  size_t channel_capacity = 64;
  /// Failure oracle armed on every mesh link (chaos tests, --kill-site).
  /// The driver heals its fired faults through the sites' sim endpoints
  /// when it restarts a fragment.
  std::shared_ptr<FaultInjector> fault_injector;
  /// Receiver heartbeat: give up after this long without exchange traffic.
  double exchange_idle_timeout_sec = 30.0;
  /// Replays allowed per fragment before a failure becomes fatal.
  int max_fragment_restarts = 3;
  /// Give every receiver ReceiverOptions::ordered_merge: buffer the stream
  /// and emit it sorted by (sender, seq) at end-of-stream, making the
  /// final answer bit-identical across backends and schedulers. Used by
  /// the sim-vs-TCP parity check; costs full stream buffering.
  bool deterministic_merge = false;
  /// Checkpoint each stateful fragment's state (join builds, aggregate
  /// tables, receiver replay progress) every this many accepted frames — a
  /// failed stateful fragment then resumes from its last cut instead of
  /// replaying every producer into empty state. 0 disables automatic
  /// checkpoints (failures still recover, from scratch).
  int64_t checkpoint_interval_frames = 0;
  /// Chaos: kill the Q17 compute fragment at this site (-1 = off) by
  /// failing one of its receivers with kUnavailable after
  /// `stateful_kill_after_frames` accepted frames. The rebuilt/restarted
  /// fragment is never re-armed, so the failure fires exactly once.
  int stateful_kill_site = -1;
  int64_t stateful_kill_after_frames = 0;
  /// Which input dies: false = the broadcast part stream (xrecv_part,
  /// mid-join-build), true = the l2 shuffle (xrecv_l2, mid-aggregate).
  bool stateful_kill_aggregate = false;
};

/// Builds a predicate once the schema at its attach point is known (column
/// indexes differ between fragments and sites).
using PredicateFn = std::function<Result<ExprPtr>(const Schema&)>;

/// Output columns of a ProjectExprs node: `exprs[i]` computes `fields[i]`.
struct Projection {
  std::vector<Field> fields;
  std::vector<ExprPtr> exprs;
};
using ProjectionFn = std::function<Result<Projection>(const Schema&)>;

/// \brief A site-independent query description the fragmenter materializes.
class LogicalPlan {
 public:
  using NodeId = int;

  /// Scans `table` as instance `alias`. Instance numbers (and with them the
  /// AttrIds, see MakeInstanceSchema) follow declaration order. `cols`,
  /// when non-empty, names the only table columns the scan reads.
  NodeId Scan(std::string table, std::string alias, ScanOptions options = {},
              std::vector<std::string> cols = {});
  NodeId Filter(NodeId input, PredicateFn predicate, double selectivity);
  NodeId Project(NodeId input, std::vector<std::string> cols);
  /// Computed columns (PlanBuilder::ProjectExprs).
  NodeId ProjectExprs(NodeId input, ProjectionFn projection);
  NodeId Join(NodeId left, NodeId right,
              std::vector<std::pair<std::string, std::string>> eq_cols,
              PredicateFn residual = nullptr, double residual_sel = 1.0);
  NodeId Aggregate(NodeId input, std::vector<std::string> group_cols,
                   std::vector<AggDesc> aggs);
  NodeId Distinct(NodeId input);
  /// Cuts the plan between `input` and its consumer. `key_col` is the
  /// column the stream is keyed on: kHashPartition routes rows by it, and
  /// the receivers' NDV hint covers it (empty = no key). `stage` names the
  /// sender `xsend_<stage>`, the receiver `xrecv_<stage>` and the straggler
  /// stage of the producing fragments.
  NodeId Exchange(NodeId input, ExchangeMode mode, std::string key_col,
                  std::string stage);

  struct Node {
    enum class Kind {
      kScan,
      kFilter,
      kProject,
      kProjectExprs,
      kJoin,
      kAggregate,
      kDistinct,
      kExchange,
    };
    Kind kind = Kind::kScan;
    std::vector<NodeId> children;
    std::string table, alias;   // kScan
    int instance = 0;           // kScan
    ScanOptions scan_options;   // kScan
    std::vector<std::string> cols;  // kScan (read set) / kProject
    PredicateFn predicate;      // kFilter predicate / kJoin residual
    double selectivity = 1.0;
    ProjectionFn projection;    // kProjectExprs
    std::vector<std::pair<std::string, std::string>> eq_cols;  // kJoin
    std::vector<std::string> group_cols;  // kAggregate
    std::vector<AggDesc> aggs;            // kAggregate
    ExchangeMode mode = ExchangeMode::kForward;  // kExchange
    std::string key_col, stage;                  // kExchange
  };

  const std::vector<Node>& nodes() const { return nodes_; }

 private:
  NodeId Add(Node node);
  std::vector<Node> nodes_;
  int num_scans_ = 0;
};

/// \brief Materializes logical plans over a set of site catalogs.
class PlanFragmenter {
 public:
  /// One SiteEngine is created per catalog; site i transmits over `mesh`'s
  /// links from i, so the mesh needs at least as many sites as there are
  /// catalogs. The mesh may be private to one query or shared by many (a
  /// serving layer's): every Transmit bills the sending site's context, and
  /// that billing is what the query reports. `coordinator` is the site the
  /// final Sink is placed on.
  PlanFragmenter(std::vector<std::shared_ptr<Catalog>> site_catalogs,
                 std::shared_ptr<SiteMesh> mesh, int coordinator = 0);

  /// Cuts `plan` (rooted at `root`) into fragments and assembles the
  /// runnable DistributedQuery. `options.num_sites`, `bandwidth_bps`,
  /// `latency_ms`, the pacing and the Q17 knobs are not read here; a
  /// `fault_injector` is armed on the mesh.
  Result<std::unique_ptr<DistributedQuery>> Fragment(
      const LogicalPlan& plan, LogicalPlan::NodeId root,
      const ScaleOutOptions& options = {});

 private:
  std::vector<std::shared_ptr<Catalog>> catalogs_;
  std::shared_ptr<SiteMesh> mesh_;
  int coordinator_;
};

}  // namespace pushsip

#endif  // PUSHSIP_DIST_PLAN_FRAGMENTER_H_
