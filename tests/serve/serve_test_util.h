// Shared fixtures for the serving-layer suites: canned ServeQuery specs
// over the tiny TPC-H catalog, and an independent reference runner (its own
// PlanBuilder + Driver, no serving layer, no AIP) that serve results are
// compared against.
#ifndef PUSHSIP_TESTS_SERVE_SERVE_TEST_UTIL_H_
#define PUSHSIP_TESTS_SERVE_SERVE_TEST_UTIL_H_

#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "exec/driver.h"
#include "expr/expression.h"
#include "serve/query_session.h"
#include "workload/plan_builder.h"

namespace pushsip {
namespace testing {

/// lineitem JOIN part ON l_partkey = p_partkey WHERE p_size < upper,
/// COUNT(*) + SUM(l_quantity).
inline ServeQuery PartQuery(int64_t upper) {
  ServeQuery q;
  q.probe_table = "lineitem";
  q.probe_key = "l_partkey";
  q.build_table = "part";
  q.build_key = "p_partkey";
  q.build_filter_col = "p_size";  // uniform in [1, 50]
  q.build_filter_upper = upper;
  q.build_selectivity = static_cast<double>(upper) / 50.0;
  q.probe_agg_col = "l_quantity";
  return q;
}

/// orders JOIN customer ON o_custkey = c_custkey WHERE c_nationkey < upper,
/// COUNT(*) + SUM(o_orderkey).
inline ServeQuery OrdersQuery(int64_t upper) {
  ServeQuery q;
  q.probe_table = "orders";
  q.probe_key = "o_custkey";
  q.build_table = "customer";
  q.build_key = "c_custkey";
  q.build_filter_col = "c_nationkey";  // in [0, 25)
  q.build_filter_upper = upper;
  q.build_selectivity = static_cast<double>(upper) / 25.0;
  q.probe_agg_col = "o_orderkey";
  return q;
}

/// partsupp JOIN supplier ON ps_suppkey = s_suppkey
/// WHERE s_nationkey < upper, COUNT(*) + SUM(ps_availqty).
inline ServeQuery PartsuppQuery(int64_t upper) {
  ServeQuery q;
  q.probe_table = "partsupp";
  q.probe_key = "ps_suppkey";
  q.build_table = "supplier";
  q.build_key = "s_suppkey";
  q.build_filter_col = "s_nationkey";  // in [0, 25)
  q.build_filter_upper = upper;
  q.build_selectivity = static_cast<double>(upper) / 25.0;
  q.probe_agg_col = "ps_availqty";
  return q;
}

/// The plain run of a served query: its aggregate row(s) and stats.
struct ReferenceRun {
  std::vector<Tuple> rows;
  QueryStats stats;
};

/// Runs `q` the plain way: full-width scans of both tables (every column
/// read, buffered and joined), filter, join, aggregate.
inline Result<ReferenceRun> RunReference(
    const std::shared_ptr<Catalog>& catalog, const ServeQuery& q) {
  ExecContext ctx;
  PUSHSIP_ASSIGN_OR_RETURN(TablePtr build, catalog->GetTable(q.build_table));
  PUSHSIP_ASSIGN_OR_RETURN(TablePtr probe, catalog->GetTable(q.probe_table));
  PlanBuilder pb(&ctx, catalog);
  const Schema bs = MakeInstanceSchema(*build, "b", 0);
  const Schema ps = MakeInstanceSchema(*probe, "r", 1);
  PUSHSIP_ASSIGN_OR_RETURN(const PlanBuilder::NodeId bn,
                           pb.ScanTable(build, bs));
  PUSHSIP_ASSIGN_OR_RETURN(const PlanBuilder::NodeId rn,
                           pb.ScanTable(probe, ps));
  PUSHSIP_ASSIGN_OR_RETURN(ExprPtr col, pb.ColRef(bn, q.build_filter_col));
  PUSHSIP_ASSIGN_OR_RETURN(
      const PlanBuilder::NodeId bf,
      pb.Filter(bn,
                Cmp(CmpOp::kLt, std::move(col), LitInt(q.build_filter_upper)),
                q.build_selectivity));
  PUSHSIP_ASSIGN_OR_RETURN(
      const PlanBuilder::NodeId jn,
      pb.Join(bf, rn, {{"b." + q.build_key, "r." + q.probe_key}}));
  std::vector<AggDesc> aggs{{AggFunc::kCount, "", "cnt"}};
  if (!q.probe_agg_col.empty()) {
    aggs.push_back({AggFunc::kSum, "r." + q.probe_agg_col, "total"});
  }
  PUSHSIP_ASSIGN_OR_RETURN(const PlanBuilder::NodeId an,
                           pb.Aggregate(jn, {}, aggs));
  PUSHSIP_RETURN_NOT_OK(pb.Finish(an));
  Driver driver(&ctx, pb.sources(), pb.sink());
  ReferenceRun run;
  PUSHSIP_ASSIGN_OR_RETURN(run.stats, driver.Run());
  run.rows = pb.sink()->TakeRows();
  return run;
}

/// RunReference's aggregate row(s).
inline Result<std::vector<Tuple>> ReferenceRows(
    const std::shared_ptr<Catalog>& catalog, const ServeQuery& q) {
  PUSHSIP_ASSIGN_OR_RETURN(ReferenceRun run, RunReference(catalog, q));
  return std::move(run.rows);
}

/// Value-wise equality of two row sets (aggregate rows: order-free not
/// needed, both sides are a single global-aggregate tuple).
inline void ExpectRowsEqual(const std::vector<Tuple>& got,
                            const std::vector<Tuple>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t r = 0; r < got.size(); ++r) {
    ASSERT_EQ(got[r].size(), want[r].size());
    for (size_t c = 0; c < got[r].size(); ++c) {
      EXPECT_TRUE(got[r].at(c) == want[r].at(c))
          << "row " << r << " col " << c << ": got "
          << got[r].at(c).ToString() << " want " << want[r].at(c).ToString();
    }
  }
}

}  // namespace testing
}  // namespace pushsip

#endif  // PUSHSIP_TESTS_SERVE_SERVE_TEST_UTIL_H_
