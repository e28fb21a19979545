// PlanFragmenter: cutting a logical plan at site boundaries must not change
// its result, must actually move bytes across the mesh, and must let
// cost-based AIP ship filters into the remote fragment (pruning before the
// link) — the "arbitrary fragment boundary" generalization. A cut plan runs
// unchanged over real sockets, and a join that would mix a single-site
// input with an all-sites input needs an explicit exchange.
#include "dist/plan_fragmenter.h"

#include <gtest/gtest.h>

#include "dist/multi_process.h"
#include "dist/scale_out.h"

#include "tests/testing/catalog_factory.h"
#include "workload/experiment.h"

namespace pushsip {
namespace {

using testing::TinyTpchCatalog;

// Site 0: every table but PARTSUPP. Site 1: PARTSUPP only.
std::vector<std::shared_ptr<Catalog>> SplitCatalogs() {
  auto full = TinyTpchCatalog();
  auto site0 = std::make_shared<Catalog>();
  auto site1 = std::make_shared<Catalog>();
  for (const std::string& name : full->TableNames()) {
    (name == "partsupp" ? site1 : site0)
        ->RegisterTable(*full->GetTable(name))
        .CheckOK();
  }
  return {site0, site1};
}

std::shared_ptr<SiteMesh> TwoSiteMesh() {
  return std::make_shared<SiteMesh>(2, 1e9, 0.1);
}

// part[p_size=1] ⋈ partsupp[ps_availqty < 1000] on partkey. The partsupp
// filter must execute inside the remote fragment.
LogicalPlan::NodeId BuildJoinPlan(LogicalPlan* lp, bool pace_partsupp) {
  const auto p = lp->Scan("part", "p");
  const auto pf = lp->Filter(
      p,
      [](const Schema& s) -> Result<ExprPtr> {
        PUSHSIP_ASSIGN_OR_RETURN(ExprPtr size_col, ColNamed(s, "p.p_size"));
        return Cmp(CmpOp::kEq, std::move(size_col), LitInt(1));
      },
      1.0 / 50);
  ScanOptions ps_opts;
  if (pace_partsupp) {
    ps_opts.delay_every_rows = 128;
    ps_opts.delay_ms = 1.0;
  }
  const auto ps = lp->Scan("partsupp", "ps", ps_opts);
  const auto psf = lp->Filter(
      ps,
      [](const Schema& s) -> Result<ExprPtr> {
        PUSHSIP_ASSIGN_OR_RETURN(ExprPtr qty, ColNamed(s, "ps.ps_availqty"));
        return Cmp(CmpOp::kLt, std::move(qty), LitInt(1000));
      },
      0.1);
  return lp->Join(pf, psf, {{"p.p_partkey", "ps.ps_partkey"}});
}

TEST(PlanFragmenterTest, CutPlanMatchesSingleSitePlan) {
  // Reference: same fragmenter, one site holding everything (no cuts).
  LogicalPlan ref_plan;
  const auto ref_root = BuildJoinPlan(&ref_plan, /*pace_partsupp=*/false);
  PlanFragmenter ref_fragmenter({TinyTpchCatalog()},
                                std::make_shared<SiteMesh>(1, 1e12, 0));
  auto ref = ref_fragmenter.Fragment(ref_plan, ref_root);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  auto ref_stats = (*ref)->Run();
  ASSERT_TRUE(ref_stats.ok()) << ref_stats.status().ToString();
  EXPECT_EQ((*ref)->mesh->TotalUsage().bytes, 0);

  LogicalPlan plan;
  const auto root = BuildJoinPlan(&plan, /*pace_partsupp=*/false);
  PlanFragmenter fragmenter(SplitCatalogs(), TwoSiteMesh());
  auto query = fragmenter.Fragment(plan, root);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  // The PARTSUPP subtree (scan + filter) became a fragment at site 1.
  ASSERT_EQ((*query)->sites.size(), 2u);
  EXPECT_EQ((*query)->sites[1]->fragments().size(), 1u);
  EXPECT_EQ((*query)->sites[1]->fragments()[0]->source_scans().size(), 1u);

  auto stats = (*query)->Run();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->result_rows, ref_stats->result_rows);
  EXPECT_EQ(HashRows((*query)->root_sink->rows()),
            HashRows((*ref)->root_sink->rows()));
  EXPECT_GT(stats->bytes_shipped, 0);
}

TEST(PlanFragmenterTest, AipShipsFilterIntoRemoteFragment) {
  const auto run = [&](bool aip) {
    LogicalPlan plan;
    const auto root = BuildJoinPlan(&plan, /*pace_partsupp=*/true);
    PlanFragmenter fragmenter(SplitCatalogs(), TwoSiteMesh());
    ScaleOutOptions options;
    options.aip = aip;
    // Scale the cost model's fixed set-creation overhead down to the tiny
    // test catalog, or no set ever looks worth building.
    options.cost.set_fixed = 1.0;
    options.cost.set_create = 0.01;
    auto query = fragmenter.Fragment(plan, root, options);
    query.status().CheckOK();
    auto stats = (*query)->Run();
    stats.status().CheckOK();
    return std::make_tuple(*stats, HashRows((*query)->root_sink->rows()),
                           (*query)->sites[1]->remote_filter_pruned());
  };

  const auto [base, base_hash, base_pruned] = run(false);
  const auto [aip, aip_hash, aip_pruned] = run(true);

  EXPECT_EQ(aip_hash, base_hash);  // pruning never changes the answer
  EXPECT_EQ(base_pruned, 0);
  EXPECT_GT(aip.aip_sets, 0);
  // The shipped Bloom filter pruned partsupp tuples at site 1 before the
  // link, so measurably fewer bytes crossed the mesh.
  EXPECT_GT(aip_pruned, 0);
  EXPECT_LT(aip.bytes_shipped, base.bytes_shipped * 7 / 10);
}

// The channels' consumer sites are recorded, so the multi-process wiring
// accepts the cut plan and the answer over loopback TCP is the sim answer.
TEST(PlanFragmenterTest, CutPlanRunsOverLoopbackTcp) {
  const auto run = [&](bool tcp) {
    LogicalPlan plan;
    const auto root = BuildJoinPlan(&plan, /*pace_partsupp=*/false);
    PlanFragmenter fragmenter(SplitCatalogs(), TwoSiteMesh());
    auto query = fragmenter.Fragment(plan, root);
    query.status().CheckOK();
    if (tcp) WireInProcessTcp(**query).status().CheckOK();
    auto stats = (*query)->Run();
    stats.status().CheckOK();
    return std::make_pair(stats->result_rows,
                          HashRows((*query)->root_sink->rows()));
  };
  const auto sim = run(false);
  const auto tcp = run(true);
  EXPECT_GT(sim.first, 0);
  EXPECT_EQ(tcp, sim);
}

TEST(PlanFragmenterTest, SingleSiteJoinedWithAllSitesNeedsAnExchange) {
  const auto full = TinyTpchCatalog();
  // part at site 0 only; partsupp sharded across both sites.
  const auto catalogs = PartitionCatalog(*full, {"partsupp"}, 2);
  const auto build = [](LogicalPlan* lp, bool broadcast) {
    LogicalPlan::NodeId p = lp->Project(lp->Scan("part", "p"),
                                        {"p.p_partkey", "p.p_size"});
    if (broadcast) {
      p = lp->Exchange(p, ExchangeMode::kBroadcast, "p.p_partkey", "part");
    }
    const auto ps = lp->Scan("partsupp", "ps");
    return lp->Join(p, ps, {{"p.p_partkey", "ps.ps_partkey"}});
  };

  LogicalPlan bad;
  const auto bad_root = build(&bad, /*broadcast=*/false);
  auto refused =
      PlanFragmenter(catalogs, TwoSiteMesh()).Fragment(bad, bad_root);
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);

  // Broadcasting part makes it an all-sites input; the per-site joins are
  // then gathered at the coordinator.
  LogicalPlan good;
  const auto joined = build(&good, /*broadcast=*/true);
  const auto partial = good.Exchange(
      good.Aggregate(joined, {}, {{AggFunc::kCount, "", "n"}}),
      ExchangeMode::kForward, "", "partial");
  const auto total =
      good.Aggregate(partial, {}, {{AggFunc::kSum, "n", "total"}});
  auto query = PlanFragmenter(catalogs, TwoSiteMesh()).Fragment(good, total);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto stats = (*query)->Run();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const std::vector<Tuple> rows = (*query)->root_sink->TakeRows();
  ASSERT_EQ(rows.size(), 1u);
  // Every partsupp row has a matching part.
  EXPECT_EQ(rows[0].at(0).AsDouble(),
            static_cast<double>((*full->GetTable("partsupp"))->num_rows()));
}

}  // namespace
}  // namespace pushsip
