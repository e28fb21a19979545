#include "workload/plan_builder.h"

#include <gtest/gtest.h>

#include "storage/tpch_generator.h"

namespace pushsip {
namespace {

std::shared_ptr<Catalog> TinyCatalog() {
  TpchConfig cfg;
  cfg.scale_factor = 0.002;
  return MakeTpchCatalog(cfg);
}

TEST(PlanBuilderTest, ScanAssignsInstanceAttrs) {
  ExecContext ctx;
  PlanBuilder b(&ctx, TinyCatalog());
  auto a = *b.Scan("partsupp", "ps1");
  auto c = *b.Scan("partsupp", "ps2");
  // Same base table, distinct attribute ids per instance.
  EXPECT_NE(b.schema(a).field(0).attr, b.schema(c).field(0).attr);
  EXPECT_EQ(b.schema(a).field(0).name, "ps1.ps_partkey");
  EXPECT_EQ(b.schema(c).field(0).name, "ps2.ps_partkey");
}

TEST(PlanBuilderTest, UnknownTableFails) {
  ExecContext ctx;
  PlanBuilder b(&ctx, TinyCatalog());
  EXPECT_FALSE(b.Scan("nope", "n").ok());
}

TEST(PlanBuilderTest, UnknownColumnFails) {
  ExecContext ctx;
  PlanBuilder b(&ctx, TinyCatalog());
  auto p = *b.Scan("part", "p");
  EXPECT_FALSE(b.ColRef(p, "no_such_col").ok());
  auto ps = *b.Scan("partsupp", "ps");
  EXPECT_FALSE(b.Join(p, ps, {{"p.p_partkey", "ps.bogus"}}).ok());
  EXPECT_FALSE(b.Project(p, {"bogus"}).ok());
  EXPECT_FALSE(b.Aggregate(p, {"bogus"}, {}).ok());
}

TEST(PlanBuilderTest, NarrowedInstanceSchemaKeepsTableAttrIds) {
  const auto catalog = TinyCatalog();
  const TablePtr part = *catalog->GetTable("part");
  const Schema full = MakeInstanceSchema(*part, "p", 2);
  const Schema narrow =
      MakeInstanceSchema(*part, "p", 2, {"p_size", "p_partkey"});
  ASSERT_EQ(narrow.num_fields(), 2u);
  EXPECT_EQ(narrow.field(0).name, "p.p_size");
  EXPECT_EQ(narrow.field(1).name, "p.p_partkey");
  for (const Field& f : narrow.fields()) {
    const Field& in_full = full.field(
        static_cast<size_t>(*full.IndexOf(f.name)));
    EXPECT_EQ(f.attr, in_full.attr) << f.name;
    EXPECT_EQ(f.type, in_full.type) << f.name;
  }
  EXPECT_EQ(narrow.field(1).attr, 200);  // instance*100 + table column 0
}

TEST(PlanBuilderTest, ScanTableRejectsBadSchemas) {
  ExecContext ctx;
  const auto catalog = TinyCatalog();
  const TablePtr part = *catalog->GetTable("part");
  PlanBuilder b(&ctx, catalog);
  // A column the table does not have (MakeInstanceSchema keeps the name,
  // so the scan cannot silently read fewer columns).
  const auto unknown =
      b.ScanTable(part, MakeInstanceSchema(*part, "p", 0, {"p_bogus"}));
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
  // A field whose type differs from its column's.
  Schema mistyped = MakeInstanceSchema(*part, "p", 0, {"p_partkey"});
  mistyped = Schema({Field{mistyped.field(0).name, TypeId::kDouble,
                           mistyped.field(0).attr}});
  const auto wrong_type = b.ScanTable(part, mistyped);
  ASSERT_FALSE(wrong_type.ok());
  EXPECT_EQ(wrong_type.status().code(), StatusCode::kInvalidArgument);
  // The same column twice, and no column at all.
  const Schema twice = MakeInstanceSchema(*part, "p", 0, {"p_size"});
  EXPECT_FALSE(
      b.ScanTable(part, Schema::Concat(twice, twice)).ok());
  EXPECT_FALSE(b.ScanTable(part, Schema()).ok());
  // Nothing was registered for the failed scans.
  EXPECT_TRUE(b.source_scans().empty());
  EXPECT_TRUE(
      b.ScanTable(part, MakeInstanceSchema(*part, "p", 0, {"p_size"})).ok());
}

TEST(PlanBuilderTest, NarrowedScanEstimatesFullScanNdv) {
  const auto catalog = TinyCatalog();
  const TablePtr lineitem = *catalog->GetTable("lineitem");
  const auto estimate = [&](const Schema& schema) {
    ExecContext ctx;
    PlanBuilder b(&ctx, catalog);
    const auto scan = b.ScanTable(lineitem, schema);
    EXPECT_TRUE(scan.ok());
    EXPECT_TRUE(b.Finish(*scan).ok());
    return std::make_pair(b.estimated_rows(*scan), b.estimated_ndv(*scan));
  };
  const auto [full_rows, full_ndv] =
      estimate(MakeInstanceSchema(*lineitem, "l", 1));
  // Out of table order, so field i is not table column i.
  const auto [rows, ndv] = estimate(MakeInstanceSchema(
      *lineitem, "l", 1, {"l_receiptdate", "l_quantity", "l_partkey"}));
  EXPECT_EQ(rows, full_rows);
  ASSERT_EQ(ndv.size(), 3u);
  for (const auto& [attr, d] : ndv) {
    ASSERT_EQ(full_ndv.count(attr), 1u) << attr;
    EXPECT_EQ(d, full_ndv.at(attr)) << attr;
  }
  // The estimates differ per column, so a mis-mapped column would show.
  EXPECT_NE(ndv.at(101), ndv.at(103));
}

TEST(PlanBuilderTest, JoinRequiresKeys) {
  ExecContext ctx;
  PlanBuilder b(&ctx, TinyCatalog());
  auto p = *b.Scan("part", "p");
  auto ps = *b.Scan("partsupp", "ps");
  EXPECT_FALSE(b.Join(p, ps, {}).ok());
}

TEST(PlanBuilderTest, BadNodeIdFails) {
  ExecContext ctx;
  PlanBuilder b(&ctx, TinyCatalog());
  EXPECT_FALSE(b.Filter(42, LitInt(1), 1.0).ok());
  EXPECT_FALSE(b.Distinct(-1).ok());
}

TEST(PlanBuilderTest, RunBeforeFinishFails) {
  ExecContext ctx;
  PlanBuilder b(&ctx, TinyCatalog());
  (void)*b.Scan("part", "p");
  EXPECT_FALSE(b.Run().ok());
}

TEST(PlanBuilderTest, DoubleFinishFails) {
  ExecContext ctx;
  PlanBuilder b(&ctx, TinyCatalog());
  auto p = *b.Scan("part", "p");
  ASSERT_TRUE(b.Finish(p).ok());
  EXPECT_FALSE(b.Finish(p).ok());
}

TEST(PlanBuilderTest, EqualitiesRecorded) {
  ExecContext ctx;
  PlanBuilder b(&ctx, TinyCatalog());
  auto p = *b.Scan("part", "p");
  auto ps = *b.Scan("partsupp", "ps");
  auto j = *b.Join(p, ps, {{"p.p_partkey", "ps.ps_partkey"}});
  ASSERT_TRUE(b.Finish(j).ok());
  ASSERT_EQ(b.sip_info().equalities.size(), 1u);
  const auto [a, c] = b.sip_info().equalities[0];
  EXPECT_EQ(b.sip_info().graph.ClassOf(a), b.sip_info().graph.ClassOf(c));
}

TEST(PlanBuilderTest, StatefulPortsTrackDirectScans) {
  ExecContext ctx;
  PlanBuilder b(&ctx, TinyCatalog());
  auto p = *b.Scan("part", "p");
  // A filter between scan and join keeps the scan "direct" (same schema).
  auto pf = *b.Filter(p, Cmp(CmpOp::kLt, *b.ColRef(p, "p_partkey"),
                             LitInt(100)), 0.5);
  auto ps = *b.Scan("partsupp", "ps");
  auto j = *b.Join(pf, ps, {{"p.p_partkey", "ps.ps_partkey"}});
  ASSERT_TRUE(b.Finish(j).ok());
  const auto& ports = b.sip_info().stateful_ports;
  ASSERT_EQ(ports.size(), 2u);
  EXPECT_NE(ports[0].direct_scan, nullptr);
  EXPECT_NE(ports[1].direct_scan, nullptr);
  EXPECT_FALSE(ports[0].scan_is_remote);
}

TEST(PlanBuilderTest, JoinOutputLosesDirectScan) {
  ExecContext ctx;
  PlanBuilder b(&ctx, TinyCatalog());
  auto p = *b.Scan("part", "p");
  auto ps = *b.Scan("partsupp", "ps");
  auto j = *b.Join(p, ps, {{"p.p_partkey", "ps.ps_partkey"}});
  auto s = *b.Scan("supplier", "s");
  auto top = *b.Join(j, s, {{"ps.ps_suppkey", "s.s_suppkey"}});
  ASSERT_TRUE(b.Finish(top).ok());
  // Port fed by the lower join must not claim a direct scan.
  for (const StatefulPort& sp : b.sip_info().stateful_ports) {
    if (sp.schema.num_fields() > 8) {  // the joined (wide) stream
      EXPECT_EQ(sp.direct_scan, nullptr);
    }
  }
}

TEST(PlanBuilderTest, ProjectExprsArityChecked) {
  ExecContext ctx;
  PlanBuilder b(&ctx, TinyCatalog());
  auto p = *b.Scan("part", "p");
  EXPECT_FALSE(
      b.ProjectExprs(p, {Field{"x", TypeId::kInt64, kInvalidAttr}}, {}).ok());
}

TEST(PlanBuilderTest, EndToEndAggregationPlan) {
  ExecContext ctx;
  PlanBuilder b(&ctx, TinyCatalog());
  auto ps = *b.Scan("partsupp", "ps");
  auto agg = *b.Aggregate(
      ps, {"ps.ps_partkey"},
      {{AggFunc::kSum, "ps.ps_availqty", "total"},
       {AggFunc::kCount, "", "n"}});
  ASSERT_TRUE(b.Finish(agg).ok());
  auto stats = b.Run();
  ASSERT_TRUE(stats.ok());
  const auto part = *b.catalog()->GetTable("part");
  EXPECT_EQ(stats->result_rows, static_cast<int64_t>(part->num_rows()));
  // Every part has exactly 4 partsupp rows.
  for (const Tuple& row : b.sink()->rows()) {
    EXPECT_EQ(row.at(2).AsInt64(), 4);
  }
}

}  // namespace
}  // namespace pushsip
