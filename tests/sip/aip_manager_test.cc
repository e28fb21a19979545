// Cost-based AIP Manager unit/integration tests.
#include "sip/aip_manager.h"

#include <gtest/gtest.h>

#include <map>

#include "storage/tpch_generator.h"
#include "workload/plan_builder.h"

namespace pushsip {
namespace {

std::shared_ptr<Catalog> TinyCatalog() {
  TpchConfig cfg;
  cfg.scale_factor = 0.002;
  return MakeTpchCatalog(cfg);
}

struct SelectiveJoinPlan {
  /// `ps_remote` puts the partsupp scan behind a (simulated) link.
  SelectiveJoinPlan(std::shared_ptr<Catalog> catalog, int64_t key_cut,
                    double part_delay_ms = 0, double ps_delay_ms = 0,
                    bool ps_remote = false)
      : builder(&ctx, std::move(catalog)) {
    ScanOptions p_opts;
    p_opts.initial_delay_ms = part_delay_ms;
    auto p = *builder.Scan("part", "p", p_opts);
    auto pred = Cmp(CmpOp::kLt, *builder.ColRef(p, "p_partkey"),
                    LitInt(key_cut));
    auto pf = *builder.Filter(p, pred, 0.05);
    ScanOptions ps_opts;
    ps_opts.initial_delay_ms = ps_delay_ms;
    auto ps = *builder.Scan("partsupp", "ps", ps_opts, ps_remote);
    auto j1 = *builder.Join(pf, ps, {{"p.p_partkey", "ps.ps_partkey"}});
    auto s = *builder.Scan("supplier", "s");
    auto top = *builder.Join(j1, s, {{"ps.ps_suppkey", "s.s_suppkey"}});
    builder.Finish(top).CheckOK();
  }
  ExecContext ctx;
  PlanBuilder builder;
};

TEST(AipManagerTest, RequiresPlan) {
  ExecContext ctx;
  AipManager manager(&ctx);
  SipPlanInfo info;  // plan == nullptr
  EXPECT_FALSE(manager.Install(info).ok());
}

TEST(AipManagerTest, BuildsSetWhenProfitable) {
  // Selective part side finishes fast (partsupp delayed): building a
  // partkey set from the join's left state prunes most of partsupp.
  SelectiveJoinPlan plan(TinyCatalog(), 20, 0, 60);
  AipManager manager(&plan.ctx);
  ASSERT_TRUE(manager.Install(plan.builder.sip_info()).ok());
  ASSERT_TRUE(plan.builder.Run().ok());
  EXPECT_GT(manager.sets_built(), 0);
  EXPECT_GT(manager.filters_attached(), 0);
  EXPECT_GT(manager.total_pruned(), 0);
  EXPECT_GT(manager.sets_bytes(), 0);
}

TEST(AipManagerTest, ResultsUnchanged) {
  auto catalog = TinyCatalog();
  SelectiveJoinPlan base(catalog, 20, 0, 20);
  base.builder.Run().status().CheckOK();
  const int64_t expected = base.builder.sink()->num_rows();

  SelectiveJoinPlan plan(catalog, 20, 0, 20);
  AipManager manager(&plan.ctx);
  ASSERT_TRUE(manager.Install(plan.builder.sip_info()).ok());
  ASSERT_TRUE(plan.builder.Run().ok());
  EXPECT_EQ(plan.builder.sink()->num_rows(), expected);
}

TEST(AipManagerTest, RejectsUselessSets) {
  // Unselective source (key_cut covers the whole table): the set passes
  // everything, so ESTIMATEBENEFIT should reject building it — or at least
  // record decisions without harming the result.
  SelectiveJoinPlan plan(TinyCatalog(), 1 << 30, 0, 30);
  CostConstants costs;
  costs.set_fixed = 1e7;  // make creation prohibitively expensive
  AipManager manager(&plan.ctx, AipOptions{}, costs);
  ASSERT_TRUE(manager.Install(plan.builder.sip_info()).ok());
  ASSERT_TRUE(plan.builder.Run().ok());
  EXPECT_EQ(manager.sets_built(), 0);
  EXPECT_GT(manager.sets_rejected(), 0);
}

TEST(AipManagerTest, DecisionsRecorded) {
  SelectiveJoinPlan plan(TinyCatalog(), 20, 0, 40);
  AipManager manager(&plan.ctx);
  ASSERT_TRUE(manager.Install(plan.builder.sip_info()).ok());
  ASSERT_TRUE(plan.builder.Run().ok());
  EXPECT_FALSE(manager.decisions().empty());
  bool any_built = false;
  for (const AipDecision& d : manager.decisions()) {
    if (d.built) {
      any_built = true;
      EXPECT_GT(d.savings, d.create_cost);
    }
  }
  EXPECT_TRUE(any_built);
}

TEST(AipManagerTest, ShortCircuitedSideNotUsedAsSource) {
  // The side that finishes LAST has incomplete (short-circuited) state; the
  // manager must not build a set from it. We verify indirectly: with the
  // part side delayed, partsupp finishes first everywhere; sets built from
  // partsupp-side state are fine, but results must stay correct.
  auto catalog = TinyCatalog();
  SelectiveJoinPlan base(catalog, 40, 30, 0);
  base.builder.Run().status().CheckOK();
  const int64_t expected = base.builder.sink()->num_rows();

  SelectiveJoinPlan plan(catalog, 40, 30, 0);
  AipManager manager(&plan.ctx);
  ASSERT_TRUE(manager.Install(plan.builder.sip_info()).ok());
  ASSERT_TRUE(plan.builder.Run().ok());
  EXPECT_EQ(plan.builder.sink()->num_rows(), expected);
}

/// Predicted savings per considered (source, attribute) when every shipped
/// row is observed to cost `wire_bytes_per_row` on the wire.
std::map<std::string, double> PredictedSavings(
    const std::shared_ptr<Catalog>& catalog, bool ps_remote,
    int64_t wire_bytes_per_row) {
  // partsupp starts long after part finishes, so every decision sees all
  // of it still to come.
  SelectiveJoinPlan plan(catalog, 20, 0, 150, ps_remote);
  plan.ctx.RecordWireSample(1000, 1000 * wire_bytes_per_row);
  AipManager manager(&plan.ctx);
  EXPECT_TRUE(manager.Install(plan.builder.sip_info()).ok());
  EXPECT_TRUE(plan.builder.Run().ok());
  std::map<std::string, double> savings;
  for (const AipDecision& d : manager.decisions()) {
    savings[d.source + "/" + d.attr_name] = d.savings;
  }
  return savings;
}

// Link savings are priced at the observed wire bytes per row, so a more
// compact wire encoding predicts smaller savings for a remote target —
// and changes nothing for a local one.
TEST(AipManagerTest, SmallerWireRowsLowerOnlyRemoteSavings) {
  auto catalog = TinyCatalog();
  const auto remote_full = PredictedSavings(catalog, true, 20);
  const auto remote_half = PredictedSavings(catalog, true, 10);
  ASSERT_FALSE(remote_full.empty());
  int lowered = 0;
  for (const auto& [key, full] : remote_full) {
    ASSERT_TRUE(remote_half.count(key)) << key;
    EXPECT_LE(remote_half.at(key), full) << key;
    lowered += remote_half.at(key) < full;
  }
  EXPECT_GT(lowered, 0);

  const auto local_full = PredictedSavings(catalog, false, 20);
  const auto local_half = PredictedSavings(catalog, false, 10);
  ASSERT_FALSE(local_full.empty());
  EXPECT_EQ(local_half, local_full);
}

}  // namespace
}  // namespace pushsip
