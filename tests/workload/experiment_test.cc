// ExperimentConfig plumbing: pacing, remote bandwidth, keep_rows, errors.
#include "workload/experiment.h"

#include <gtest/gtest.h>

#include "net/remote_node.h"
#include "sip/aip_manager.h"
#include "storage/tpch_generator.h"
#include "workload/queries.h"

namespace pushsip {
namespace {

std::shared_ptr<Catalog> TinyCatalog() {
  static std::shared_ptr<Catalog> catalog = [] {
    TpchConfig cfg;
    cfg.scale_factor = 0.002;
    return MakeTpchCatalog(cfg);
  }();
  return catalog;
}

TEST(ExperimentTest, RequiresCatalog) {
  ExperimentConfig cfg;
  EXPECT_FALSE(RunExperiment(cfg).ok());
}

TEST(ExperimentTest, KeepRowsReturnsResult) {
  ExperimentConfig cfg;
  cfg.query = QueryId::kQ4A;
  cfg.strategy = Strategy::kBaseline;
  cfg.catalog = TinyCatalog();
  cfg.keep_rows = true;
  auto r = RunExperiment(cfg);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(static_cast<int64_t>(r->rows.size()), r->result_rows);
  ExperimentConfig no_rows = cfg;
  no_rows.keep_rows = false;
  auto r2 = RunExperiment(no_rows);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->rows.empty());
  EXPECT_EQ(r->result_hash, r2->result_hash);
}

TEST(ExperimentTest, PacingSlowsButPreservesResults) {
  ExperimentConfig fast;
  fast.query = QueryId::kQ4A;
  fast.catalog = TinyCatalog();
  auto quick = RunExperiment(fast);
  ASSERT_TRUE(quick.ok());

  ExperimentConfig paced = fast;
  paced.pace_every_rows = 200;
  paced.pace_ms = 2.0;
  auto slow = RunExperiment(paced);
  ASSERT_TRUE(slow.ok());
  EXPECT_EQ(quick->result_hash, slow->result_hash);
  EXPECT_GT(slow->stats.elapsed_sec, quick->stats.elapsed_sec);
}

TEST(ExperimentTest, PacingMakesPeakStateReproducible) {
  auto run = [&] {
    ExperimentConfig cfg;
    cfg.query = QueryId::kQ3E;
    cfg.strategy = Strategy::kBaseline;
    cfg.catalog = TinyCatalog();
    cfg.pace_every_rows = 256;
    cfg.pace_ms = 0.5;
    return RunExperiment(cfg);
  };
  auto a = run();
  auto b = run();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Within 25% — completion order is pinned, residual jitter is batch-level.
  const double pa = a->stats.peak_state_mb(), pb = b->stats.peak_state_mb();
  EXPECT_LT(std::abs(pa - pb), 0.25 * std::max(pa, pb) + 0.01);
}

TEST(ExperimentTest, RemoteQueryWithoutRemoteConfiguredStillWorks) {
  // RunExperiment creates the RemoteNode for Q1C/Q3C internally.
  ExperimentConfig cfg;
  cfg.query = QueryId::kQ1C;
  cfg.catalog = TinyCatalog();
  cfg.remote_bandwidth_bps = 1e9;
  auto r = RunExperiment(cfg);
  EXPECT_TRUE(r.ok());
}

/// A run of `query` with PARTSUPP behind a remote link: the query's stats
/// and the link's own byte count.
struct RemoteRun {
  QueryStats stats;
  int64_t link_bytes = 0;
};

RemoteRun RunWithRemotePartsupp(QueryId query, bool cost_based) {
  ExecContext ctx;
  PlanBuilder builder(&ctx, TinyCatalog());
  builder.set_default_pacing(512, 0.5);  // the figure harness's pacing
  // A slow link keeps the remote scan streaming until the filter arrives.
  RemoteNode remote("site2", /*bandwidth_bps=*/10e6, /*latency_ms=*/0.5);
  QueryKnobs knobs;
  knobs.remote = &remote;
  BuildQuery(query, &builder, knobs).CheckOK();
  std::unique_ptr<AipManager> manager;
  if (cost_based) {
    manager = std::make_unique<AipManager>(&ctx, AipOptions{},
                                           CostConstants{});
    manager->Install(builder.sip_info()).CheckOK();
  }
  RemoteRun run;
  run.stats = builder.Run().ValueOrDie();
  run.link_bytes = remote.link()->bytes_transferred();
  return run;
}

// The remote scan bills its link traffic to the query's context: the
// reported bytes are exactly what crossed the link, and AIP's Bloom filter,
// shipped over the same link, prunes PARTSUPP before it crosses.
TEST(ExperimentTest, RemoteScanBillsItsLinkToTheQuery) {
  for (const QueryId query : {QueryId::kQ1C, QueryId::kQ3C}) {
    SCOPED_TRACE(QueryName(query));
    const RemoteRun baseline = RunWithRemotePartsupp(query, false);
    EXPECT_GT(baseline.stats.bytes_shipped, 0);
    EXPECT_EQ(baseline.stats.bytes_shipped, baseline.link_bytes);
    EXPECT_GT(baseline.stats.link_seconds, 0);
    const RemoteRun aip = RunWithRemotePartsupp(query, true);
    EXPECT_EQ(aip.stats.bytes_shipped, aip.link_bytes);
    EXPECT_LT(aip.stats.bytes_shipped, baseline.stats.bytes_shipped);
  }
}

TEST(ExperimentTest, MagicOnJoinQueryRejected) {
  ExperimentConfig cfg;
  cfg.query = QueryId::kQ4A;  // single-block: magic does not apply
  cfg.strategy = Strategy::kMagic;
  cfg.catalog = TinyCatalog();
  EXPECT_FALSE(RunExperiment(cfg).ok());
}

}  // namespace
}  // namespace pushsip
