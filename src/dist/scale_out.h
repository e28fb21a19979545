// Scale-out scenarios: TPC-H Q17 and the IBM subquery workload executed as
// genuinely partitioned multi-site plans. LINEITEM / PARTSUPP is sharded
// round-robin across N sites (as ingest would leave it). Each query is a
// LogicalPlan whose explicit exchanges re-shuffle the shards by join key
// (hash partition), replicate the small filtered inputs (broadcast) and
// gather the per-site results at the coordinator (forward); the
// PlanFragmenter cuts it into fragments and derives their estimates,
// recovery registrations and rebuild recipes.
//
// With cost-based AIP enabled, each site's AIP Manager ships the Bloom
// filter of the completed (small) join side across the mesh to the scans
// feeding the shuffles — pruned tuples never reach the wire, the
// distributed generalization of the paper's adaptive Bloomjoin.
#ifndef PUSHSIP_DIST_SCALE_OUT_H_
#define PUSHSIP_DIST_SCALE_OUT_H_

#include "dist/plan_fragmenter.h"

namespace pushsip {

/// The two distributed workloads.
enum class ScaleOutQuery {
  kQ17,       ///< TPC-H 17 (correlated AVG subquery over LINEITEM)
  kSubquery,  ///< the IBM complex-decorrelation query (MIN over PARTSUPP)
};

const char* ScaleOutQueryName(ScaleOutQuery query);

/// One catalog per site: shard s of each table in `shard_tables` at site s
/// (`full.Shards`, the round-robin shards `full` computes once per table
/// version and site count, each with its own statistics and the table's
/// key/FK metadata); every other table, and every table when `num_sites`
/// is 1, is registered whole at site 0 only.
std::vector<std::shared_ptr<Catalog>> PartitionCatalog(
    const Catalog& full, const std::vector<std::string>& shard_tables,
    int num_sites);

/// Assembles the runnable multi-site plan for `query` over a partition of
/// `full_catalog`: partitions the catalog (reusing `full_catalog`'s shards
/// of the current table versions), builds the query's LogicalPlan and
/// fragments it. The returned query's root sink collects the final
/// rows.
Result<std::unique_ptr<DistributedQuery>> BuildScaleOutQuery(
    ScaleOutQuery query, const std::shared_ptr<Catalog>& full_catalog,
    const ScaleOutOptions& options);

}  // namespace pushsip

#endif  // PUSHSIP_DIST_SCALE_OUT_H_
