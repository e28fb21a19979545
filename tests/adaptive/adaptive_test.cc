// Adaptive runtime suite (ctest labels: adaptive, dist): straggler
// detection over progress snapshots, observed-cardinality feedback into
// the optimizer, scan preemption, stream adoption dedup, and the two
// end-to-end migrations — a throttled (straggling) site under Q17 and a
// permanently dead site under a fragmenter-built join — both of which must
// produce the clean-run answer after moving work to a healthy site.
#include "adaptive/reopt_controller.h"

#include <cmath>
#include <thread>

#include <gtest/gtest.h>

#include "adaptive/stats_monitor.h"
#include "dist/plan_fragmenter.h"
#include "dist/scale_out.h"
#include "net/fault_injector.h"
#include "optimizer/cardinality.h"
#include "tests/testing/catalog_factory.h"
#include "tests/testing/sim_plane.h"
#include "tests/testing/test_rng.h"

namespace pushsip {
namespace {

using adaptive::AdaptiveOptions;
using adaptive::DetectStragglers;
using adaptive::FragmentProgress;
using adaptive::InstallAdaptiveRuntime;
using adaptive::ProgressSnapshot;
using testing::TestSeed;
using testing::TinyTpchCatalog;

FragmentProgress Frag(const char* stage, int site, uint64_t done,
                      uint64_t total, bool finished = false) {
  FragmentProgress f;
  f.stage = stage;
  f.site = site;
  f.windows_done = done;
  f.windows_total = total;
  f.finished = finished;
  return f;
}

TEST(StatsMonitorTest, DetectsTheLaggingStageMember) {
  ProgressSnapshot snap;
  snap.fragments = {Frag("map", 0, 8, 10), Frag("map", 1, 9, 10),
                    Frag("map", 2, 1, 10), Frag("map", 3, 10, 10, true)};
  const auto lagging = DetectStragglers(snap, /*straggle_factor=*/4.0,
                                        /*min_median_windows=*/2);
  ASSERT_EQ(lagging.size(), 1u);
  EXPECT_EQ(lagging[0], 2u);  // site 2: 0.1 * 4 < median ~0.9
}

TEST(StatsMonitorTest, WarmupAndSingletonStagesNeverFlag) {
  ProgressSnapshot snap;
  // Median has only 1 window done: below the warm-up threshold.
  snap.fragments = {Frag("map", 0, 1, 10), Frag("map", 1, 1, 10),
                    Frag("map", 2, 0, 10)};
  EXPECT_TRUE(DetectStragglers(snap, 4.0, 2).empty());
  // A stage with a single member has no peer to lag behind.
  snap.fragments = {Frag("solo", 0, 0, 10), Frag("other", 1, 10, 10)};
  EXPECT_TRUE(DetectStragglers(snap, 4.0, 2).empty());
  // Finished fragments are never stragglers.
  snap.fragments = {Frag("map", 0, 10, 10, true),
                    Frag("map", 1, 10, 10, true)};
  EXPECT_TRUE(DetectStragglers(snap, 4.0, 2).empty());
}

// Observed-cardinality feedback: overwriting an exchange leaf's static
// estimate re-propagates through the consumer's plan at the next
// Reestimate — the recalibration the controller performs when a producing
// fragment finishes.
TEST(AdaptiveTest, FeedObservedExchangeRowsRecalibratesThePlan) {
  ExecContext ctx;
  auto catalog = TinyTpchCatalog();
  PlanBuilder pb(&ctx, catalog);
  auto channel = std::make_shared<ExchangeChannel>();
  const Schema schema({Field{"x.k", TypeId::kInt64, 7000}});
  auto recv =
      std::make_unique<ExchangeReceiver>(&ctx, "xrecv", schema, channel);
  const ExchangeReceiver* recv_raw = recv.get();
  const auto src =
      pb.Source(std::move(recv), /*est_rows=*/1000, {{7000, 1000.0}});
  ASSERT_TRUE(src.ok());
  const auto agg = pb.Aggregate(*src, {"x.k"}, {});
  ASSERT_TRUE(agg.ok());
  ASSERT_TRUE(pb.Finish(*agg).ok());

  PlanNode* exchange_node = nullptr;
  for (const auto& node : pb.plan().nodes()) {
    if (node->op == recv_raw) exchange_node = node.get();
  }
  ASSERT_NE(exchange_node, nullptr);
  EXPECT_DOUBLE_EQ(exchange_node->est_rows, 1000.0);

  FeedObservedExchangeRows(exchange_node, 10.0);
  EXPECT_DOUBLE_EQ(exchange_node->est_rows, 1000.0);  // not yet re-estimated
  pb.plan().Reestimate();
  EXPECT_DOUBLE_EQ(exchange_node->est_rows, 10.0);
  // The downstream group-by estimate shrank with its input.
  EXPECT_LE(pb.estimated_rows(*agg), 10.0);
}

// Satellite: the receiver heartbeat is a per-context default now — a short
// timeout set on the ExecContext applies to receivers built with default
// options, without touching any per-receiver configuration.
TEST(AdaptiveTest, ReceiverInheritsHeartbeatFromContext) {
  ExecContext ctx;
  ctx.set_exchange_idle_timeout_sec(0.2);
  auto channel = std::make_shared<ExchangeChannel>();
  channel->set_num_senders(1);  // ...but no sender will ever run
  const Schema schema({Field{"t.k", TypeId::kInt64, 0}});
  ExchangeReceiver receiver(&ctx, "xrecv", schema, channel);
  const Status st = receiver.Run();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st.ToString();
  EXPECT_GT(receiver.stall_seconds(), 0.0);
}

// Preemption is the migration trigger: a window-batched scan asked to stop
// fails with kUnavailable at a window boundary (the replay-exact point)
// and is rearmed by the standard replay reset.
TEST(AdaptiveTest, PreemptedScanFailsReplayablyAndRearms) {
  const Schema schema({Field{"t.k", TypeId::kInt64, 0}});
  auto table = std::make_shared<Table>("t", schema);
  for (int64_t k = 0; k < 64; ++k) {
    table->AppendRow(Tuple({Value::Int64(k)}));
  }
  ExecContext ctx;
  ctx.set_batch_size(16);
  ScanOptions options;
  options.window_batches = true;
  TableScan scan(&ctx, "scan", table, schema, options);
  EXPECT_EQ(scan.total_windows(), 4u);

  scan.Preempt();
  const Status preempted = scan.Run();
  ASSERT_FALSE(preempted.ok());
  EXPECT_EQ(preempted.code(), StatusCode::kUnavailable);

  scan.ResetForReplay();
  EXPECT_TRUE(scan.Run().ok());
  EXPECT_EQ(scan.rows_scanned(), 64);
}

// Stream adoption is what keeps migration exact: a second sender adopting
// the first one's slots at the next epoch replays the whole stream and the
// consumer drops exactly the prefix it already passed downstream.
TEST(AdaptiveTest, AdoptedStreamIsDeduplicatedExactly) {
  const Schema schema({Field{"t.k", TypeId::kInt64, 0}});
  auto table = std::make_shared<Table>("t", schema);
  constexpr int64_t kRows = 100;
  for (int64_t k = 0; k < kRows; ++k) {
    table->AppendRow(Tuple({Value::Int64(k)}));
  }

  ExecContext site_a, site_b, recv_ctx;
  site_a.set_batch_size(16);  // 7 windows
  site_b.set_batch_size(16);  // must match for identical window boundaries
  auto channel = std::make_shared<ExchangeChannel>();
  channel->set_num_senders(1);

  // "Site A" dies after 3 delivered windows.
  auto injector = std::make_shared<FaultInjector>();
  injector->DropAfter(/*from=*/0, /*to=*/1, /*after=*/3, /*failures=*/1);
  // Site A is 0, site B is 2, the consumer is 1.
  testing::SimPlane plane(3);
  plane.mesh()->InstallFaultInjector(injector);

  ScanOptions options;
  options.window_batches = true;
  TableScan scan_a(&site_a, "scan", table, schema, options);
  ExchangeSender sender_a(&site_a, "xsend", schema, ExchangeMode::kForward,
                          {}, {plane.Edge(0, 1, channel)});
  scan_a.SetOutput(&sender_a);
  sender_a.BindSeqSource(&scan_a);

  ExchangeReceiver receiver(&recv_ctx, "xrecv", schema, channel);
  Sink sink(&recv_ctx, "sink", schema);
  receiver.SetOutput(&sink);
  std::thread recv_thread([&] { receiver.Run().CheckOK(); });

  const Status failed = scan_a.Run();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kUnavailable);

  // "Migration": the rebuilt fragment on site B adopts A's stream.
  TableScan scan_b(&site_b, "scan", table, schema, options);
  ExchangeSender sender_b(&site_b, "xsend", schema, ExchangeMode::kForward,
                          {}, {plane.Edge(2, 1, channel)});
  scan_b.SetOutput(&sender_b);
  sender_b.BindSeqSource(&scan_b);
  sender_b.AdoptStream(sender_a);
  EXPECT_EQ(sender_b.epoch(), 1u);

  scan_b.Run().CheckOK();
  recv_thread.join();

  EXPECT_EQ(sink.num_rows(), kRows);  // nothing lost, nothing duplicated
  EXPECT_TRUE(sink.finished());
  EXPECT_EQ(receiver.batches_discarded(), 3);  // A's delivered prefix
}

struct AdaptiveOutcome {
  DistQueryStats stats;
  std::vector<Tuple> rows;
  ProgressSnapshot snapshot;  ///< full post-run StatsMonitor sample
};

ScaleOutOptions StraggleOptions(int sites) {
  ScaleOutOptions options;
  options.num_sites = sites;
  options.aip = false;
  options.weak_part_filter = true;
  // Small windows + pacing: many window-batch boundaries for the detector
  // to observe, and enough runway for the preemption to land mid-stream.
  options.batch_size = 128;
  options.pace_every_rows = 128;
  options.pace_ms = 1.0;
  return options;
}

// Acceptance: a 4-site Q17 with one straggling site (throttled outbound
// links) completes with the clean-run answer, having detected the
// straggler and migrated at least one of its map fragments elsewhere.
TEST(AdaptiveTest, StragglerMigratesOffThrottledSiteQ17) {
  const uint64_t seed = TestSeed();
  PUSHSIP_SEED_TRACE(seed);
  auto catalog = TinyTpchCatalog();

  auto run = [&](bool straggle) -> AdaptiveOutcome {
    auto built = BuildScaleOutQuery(ScaleOutQuery::kQ17, catalog,
                                    StraggleOptions(4));
    built.status().CheckOK();
    auto controller = InstallAdaptiveRuntime(built->get());
    if (straggle) {
      // Sweep the throttled site with the seed (any non-coordinator site).
      const int slow_site = 1 + static_cast<int>(seed % 3);
      // The delay a throttle adds scales with the bytes the site ships
      // (about 4.4 per Q17 row on the wire); this bandwidth keeps the site
      // behind its peers for many detector polls, also when a sanitizer
      // slows every site down.
      (*built)->mesh->ThrottleOutbound(slow_site, /*bandwidth_bps=*/2e5);
    }
    auto stats = (*built)->Run();
    stats.status().CheckOK();
    AdaptiveOutcome out;
    out.stats = *stats;
    out.rows = (*built)->root_sink->TakeRows();
    out.snapshot = controller->monitor().Sample();  // before query teardown
    return out;
  };

  // No migrations asserted for the clean run: under heavy load (or a
  // sanitizer's serialized scheduling) a descheduled scan can legitimately
  // look like a straggler for a few polls, and a spurious migration is
  // benign — the answer assertions below are what correctness rests on.
  const AdaptiveOutcome clean = run(false);
  const AdaptiveOutcome slowed = run(true);

  ASSERT_EQ(clean.rows.size(), 1u);
  ASSERT_EQ(slowed.rows.size(), 1u);
  const Value& want = clean.rows[0].at(0);
  const Value& got = slowed.rows[0].at(0);
  if (want.is_null()) {
    EXPECT_TRUE(got.is_null());
  } else {
    EXPECT_NEAR(got.AsDouble(), want.AsDouble(),
                std::abs(want.AsDouble()) * 1e-9 + 1e-9);
  }
  EXPECT_GE(slowed.stats.stragglers_detected, 1);
  EXPECT_GE(slowed.stats.fragment_migrations, 1);
  // Producing fragments finishing fed observed cardinalities back into
  // their consumers' exchange estimates.
  EXPECT_GT(slowed.stats.recalibrations, 0);
  // The migrated replay re-sent prefixes the consumers already had.
  EXPECT_GT(slowed.stats.batches_discarded, 0);
  // The full monitor snapshot carries per-site health counters too.
  ASSERT_EQ(slowed.snapshot.sites.size(), 4u);
  int64_t rows_out = 0, link_bytes = 0;
  for (const adaptive::SiteProgress& s : slowed.snapshot.sites) {
    rows_out += s.rows_out;
    link_bytes += s.link_bytes_out;
    EXPECT_GE(s.stall_seconds, 0.0);
  }
  EXPECT_GT(rows_out, 0);
  EXPECT_GT(link_bytes, 0);
}

// Permanent site loss, fragmenter path: a producer fragment whose home
// site never comes back (heal-resistant armed faults) is rebuilt on a
// healthy site by the adaptive runtime — "restart elsewhere" where PR 3
// could only restart in place and exhaust its budget.
TEST(AdaptiveTest, PermanentSiteLossMigratesFragmenterBuiltFragment) {
  auto full = TinyTpchCatalog();
  // part lives at site 0, lineitem at site 2, site 1 is empty compute.
  std::vector<std::shared_ptr<Catalog>> catalogs = {
      std::make_shared<Catalog>(), std::make_shared<Catalog>(),
      std::make_shared<Catalog>()};
  catalogs[0]->RegisterTable(*full->GetTable("part")).CheckOK();
  catalogs[2]->RegisterTable(*full->GetTable("lineitem")).CheckOK();

  LogicalPlan lp;
  const auto p = lp.Scan("part", "p");
  const auto l = lp.Scan("lineitem", "l");
  const auto lproj = lp.Project(l, {"l.l_partkey", "l.l_quantity"});
  const auto join = lp.Join(p, lproj, {{"p.p_partkey", "l.l_partkey"}});
  const auto root =
      lp.Aggregate(join, {}, {{AggFunc::kSum, "l.l_quantity", "q"}});

  auto run = [&](bool kill) -> AdaptiveOutcome {
    PlanFragmenter fragmenter(
        catalogs,
        std::make_shared<SiteMesh>(static_cast<int>(catalogs.size()),
                                   /*bandwidth_bps=*/1e9,
                                   /*latency_ms=*/0.1));
    ScaleOutOptions options;
    options.batch_size = 256;  // several windows per attempt
    if (kill) {
      options.fault_injector = std::make_shared<FaultInjector>();
      // Heal-resistant: HealFired disables only fired specs, so every
      // in-place retry would trip a fresh one — the site is gone for good.
      for (int i = 0; i < 32; ++i) {
        options.fault_injector->SiteDown(/*site=*/2, /*after=*/2);
      }
    }
    auto built = fragmenter.Fragment(lp, root, options);
    built.status().CheckOK();
    // The lineitem producer fragment (site 2 -> site 0) must have been
    // registered with a rebuild recipe by the fragmenter.
    EXPECT_FALSE((*built)->migratable_fragments.empty());
    if (kill) {
      AdaptiveOptions adaptive;
      adaptive.migrate_after_failures = 1;  // first failure moves the work
      InstallAdaptiveRuntime(built->get(), adaptive);
    }
    auto stats = (*built)->Run();
    stats.status().CheckOK();
    AdaptiveOutcome out;
    out.stats = *stats;
    out.rows = (*built)->root_sink->TakeRows();
    return out;
  };

  const AdaptiveOutcome clean = run(false);
  const AdaptiveOutcome killed = run(true);

  ASSERT_EQ(clean.rows.size(), 1u);
  ASSERT_EQ(killed.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(killed.rows[0].at(0).AsDouble(),
                   clean.rows[0].at(0).AsDouble());
  EXPECT_GT(killed.stats.faults_injected, 0);
  EXPECT_GE(killed.stats.fragment_migrations, 1);
}

}  // namespace
}  // namespace pushsip
