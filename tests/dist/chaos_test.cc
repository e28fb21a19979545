// Chaos suite (ctest label: chaos): fault-injected multi-site execution.
// A SiteEngine that dies mid-query must not hang its consumers (PR 2's
// known gap): the driver detects the broken channel, heals the mesh,
// replays the dead fragments from their scans, and the epoch/seq dedup
// makes the recovered run produce exactly the no-failure answer.
//
// Timing-dependent by design: the kill point sweeps with PUSHSIP_TEST_SEED
// so CI shakes out schedule-dependent recovery bugs across seeds.
#include <cmath>
#include <thread>

#include <gtest/gtest.h>

#include "dist/scale_out.h"
#include "net/fault_injector.h"
#include "tests/testing/catalog_factory.h"
#include "tests/testing/sim_plane.h"
#include "tests/testing/test_rng.h"

namespace pushsip {
namespace {

using testing::TestSeed;
using testing::TinyTpchCatalog;

struct ChaosOutcome {
  DistQueryStats stats;
  std::vector<Tuple> rows;
};

ScaleOutOptions ChaosOptions(int sites, bool aip) {
  ScaleOutOptions options;
  options.num_sites = sites;
  options.aip = aip;
  options.weak_part_filter = true;
  // Small batches => many seq windows per shard; pacing stretches the
  // shuffle so the kill lands mid-stream.
  options.batch_size = 128;
  options.pace_every_rows = 128;
  options.pace_ms = 1.0;
  return options;
}

ChaosOutcome RunQ17(const std::shared_ptr<Catalog>& catalog,
                    const ScaleOutOptions& options) {
  auto built = BuildScaleOutQuery(ScaleOutQuery::kQ17, catalog, options);
  built.status().CheckOK();
  auto stats = (*built)->Run();
  stats.status().CheckOK();
  ChaosOutcome out;
  out.stats = *stats;
  out.rows = (*built)->root_sink->TakeRows();
  return out;
}

void ExpectSameQ17Answer(const ChaosOutcome& want, const ChaosOutcome& got) {
  ASSERT_EQ(want.rows.size(), 1u);
  ASSERT_EQ(got.rows.size(), 1u);
  const Value& w = want.rows[0].at(0);
  const Value& g = got.rows[0].at(0);
  if (w.is_null()) {
    EXPECT_TRUE(g.is_null());
  } else {
    // The recovered run delivers the identical tuple multiset to every
    // consumer (epoch dedup is exact); only the floating-point summation
    // order of the partial sums may differ.
    EXPECT_NEAR(g.AsDouble(), w.AsDouble(),
                std::abs(w.AsDouble()) * 1e-9 + 1e-9);
  }
}

// Acceptance: kill one of 4 sites mid-Q17; the query completes with the
// no-failure answer, having actually restarted fragments and discarded
// replayed duplicates.
TEST(ChaosTest, KillSiteMidQ17RecoversExactAnswer) {
  const uint64_t seed = TestSeed();
  PUSHSIP_SEED_TRACE(seed);
  auto catalog = TinyTpchCatalog();

  const ChaosOutcome clean = RunQ17(catalog, ChaosOptions(4, /*aip=*/false));
  ASSERT_GT(clean.stats.bytes_shipped, 0);

  ScaleOutOptions options = ChaosOptions(4, /*aip=*/false);
  options.fault_injector = std::make_shared<FaultInjector>();
  // Site 2 goes dark early in the shuffle; the exact transmission sweeps
  // with the seed so different runs kill at different stream positions.
  options.fault_injector->SiteDown(/*site=*/2,
                                   /*after=*/5 + (seed % 83));
  const ChaosOutcome chaos = RunQ17(catalog, options);

  ExpectSameQ17Answer(clean, chaos);
  EXPECT_GT(chaos.stats.faults_injected, 0);
  EXPECT_GT(chaos.stats.fragment_restarts, 0);
  // The replay re-sent stream prefixes the consumers had already passed.
  EXPECT_GT(chaos.stats.batches_discarded, 0);
  // Recovery re-transmits, so the mesh carries at least the clean volume.
  EXPECT_GE(chaos.stats.bytes_shipped, clean.stats.bytes_shipped);
}

// Same recovery with cost-based AIP enabled: Bloom shipments that fail
// while the site is dark are queued and re-shipped on restart, and the
// answer still matches the clean AIP run.
TEST(ChaosTest, KillSiteMidQ17WithAipStillPrunesAndRecovers) {
  const uint64_t seed = TestSeed();
  PUSHSIP_SEED_TRACE(seed);
  auto catalog = TinyTpchCatalog();

  const ChaosOutcome clean = RunQ17(catalog, ChaosOptions(4, /*aip=*/true));

  ScaleOutOptions options = ChaosOptions(4, /*aip=*/true);
  options.fault_injector = std::make_shared<FaultInjector>();
  options.fault_injector->SiteDown(/*site=*/1, /*after=*/5 + (seed % 83));
  const ChaosOutcome chaos = RunQ17(catalog, options);

  ExpectSameQ17Answer(clean, chaos);
  EXPECT_GT(chaos.stats.faults_injected, 0);
  EXPECT_GT(chaos.stats.fragment_restarts, 0);
  EXPECT_GT(chaos.stats.aip_sets, 0);
}

// A transient per-link glitch (drop-after-N that self-heals) must also be
// absorbed by a fragment replay rather than failing the query.
TEST(ChaosTest, TransientLinkDropReplaysExactly) {
  const uint64_t seed = TestSeed();
  PUSHSIP_SEED_TRACE(seed);
  auto catalog = TinyTpchCatalog();

  const ChaosOutcome clean = RunQ17(catalog, ChaosOptions(3, /*aip=*/false));

  ScaleOutOptions options = ChaosOptions(3, /*aip=*/false);
  options.fault_injector = std::make_shared<FaultInjector>();
  options.fault_injector->DropAfter(/*from=*/1, /*to=*/0,
                                    /*after=*/3 + (seed % 29),
                                    /*failures=*/2);
  const ChaosOutcome chaos = RunQ17(catalog, options);

  ExpectSameQ17Answer(clean, chaos);
  EXPECT_GT(chaos.stats.faults_injected, 0);
  EXPECT_GT(chaos.stats.fragment_restarts, 0);
}

// Two consecutive faults on the same link: the per-sender high-water marks
// must survive across epochs, so the second replay still discards exactly
// the already-passed prefix and the answer stays identical to a clean run.
TEST(ChaosTest, ConsecutiveFaultsReplayDedupStillExact) {
  const uint64_t seed = TestSeed();
  PUSHSIP_SEED_TRACE(seed);
  auto catalog = TinyTpchCatalog();

  const ChaosOutcome clean = RunQ17(catalog, ChaosOptions(3, /*aip=*/false));

  ScaleOutOptions options = ChaosOptions(3, /*aip=*/false);
  options.fault_injector = std::make_shared<FaultInjector>();
  // Both faults land early in the shuffle (map frames dominate the link
  // then), two transmissions apart, so the second one fires while the
  // first replay is still streaming — a restart of a restart.
  const int64_t first = 3 + static_cast<int64_t>(seed % 23);
  options.fault_injector->DropAfter(/*from=*/1, /*to=*/0, first,
                                    /*failures=*/1);
  options.fault_injector->DropAfter(/*from=*/1, /*to=*/0, first + 2,
                                    /*failures=*/1);
  const ChaosOutcome chaos = RunQ17(catalog, options);

  ExpectSameQ17Answer(clean, chaos);
  EXPECT_EQ(chaos.stats.faults_injected, 2);
  EXPECT_GE(chaos.stats.fragment_restarts, 2);
  EXPECT_GT(chaos.stats.batches_discarded, 0);
}

// The restart budget is finite: a site that never comes back (faults
// rearmed faster than the driver heals them) must surface kUnavailable to
// the caller instead of looping or hanging.
TEST(ChaosTest, UnrecoverableSiteFailsTheQuery) {
  auto catalog = TinyTpchCatalog();
  ScaleOutOptions options = ChaosOptions(3, /*aip=*/false);
  options.max_fragment_restarts = 2;
  options.fault_injector = std::make_shared<FaultInjector>();
  // Far more armed specs than the query's total restart budget: HealFired
  // disables only specs that fired, so every replay trips a fresh one and
  // some fragment must exhaust its attempts.
  for (int i = 0; i < 64; ++i) {
    options.fault_injector->SiteDown(/*site=*/1, /*after=*/0);
  }
  auto built = BuildScaleOutQuery(ScaleOutQuery::kQ17, catalog, options);
  built.status().CheckOK();
  auto stats = (*built)->Run();
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kUnavailable)
      << stats.status().ToString();
}

// Regression (PR 2 gap): a receiver whose sender never starts — an
// early-error path, or a silently dead upstream with no driver watching —
// must time out with kUnavailable instead of blocking forever.
TEST(ChaosTest, ReceiverTimesOutInsteadOfHangingForever) {
  ExecContext ctx;
  auto channel = std::make_shared<ExchangeChannel>();
  channel->set_num_senders(1);  // ...but no sender will ever run
  ReceiverOptions options;
  options.idle_timeout_sec = 0.2;
  options.poll_ms = 10;
  Schema schema({Field{"t.k", TypeId::kInt64, 0}});
  ExchangeReceiver receiver(&ctx, "xrecv", schema, channel, options);
  const Status st = receiver.Run();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st.ToString();
}

// Regression: DistributedQuery teardown is unconditional. Destroying a
// query whose fragments were never (fully) started must unblock and stop
// any receiver that did get going — previously this deadlocked the
// receiver until process exit.
TEST(ChaosTest, TeardownUnblocksReceiverWhenSenderNeverStarted) {
  auto catalog = TinyTpchCatalog();
  auto built =
      BuildScaleOutQuery(ScaleOutQuery::kQ17, catalog, ChaosOptions(3, false));
  built.status().CheckOK();

  // Simulate the early-error path: exactly one receiver runs, no senders.
  SourceOperator* receiver = nullptr;
  for (const auto& fragment : (*built)->sites[0]->fragments()) {
    for (SourceOperator* s : fragment->sources()) {
      if (dynamic_cast<ExchangeReceiver*>(s) != nullptr) receiver = s;
    }
  }
  ASSERT_NE(receiver, nullptr);
  std::thread orphan([&] {
    const Status st = receiver->Run();
    EXPECT_FALSE(st.ok());  // cancelled (or timed out) — never hangs
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // The abandoning caller (or ~DistributedQuery itself) cancels; the
  // orphan wakes promptly instead of sleeping on the never-fed channel.
  (*built)->Cancel();
  orphan.join();
  built->reset();
}

// The delivery end of AIP shipping is idempotent and fault-aware: a downed
// link fails the shipment with kUnavailable (so the manager queues a
// re-ship), and a healed retry attaches exactly once per label.
TEST(ChaosTest, FilterShipperReportsDownedLinkAndReshipsIdempotently) {
  auto catalog = TinyTpchCatalog();
  SiteEngine site(0, "site0", catalog);       // the producer
  SiteEngine consumer(1, "site1", catalog);   // ships from its endpoint
  const TablePtr lineitem = *catalog->GetTable("lineitem");
  const Schema schema = MakeInstanceSchema(*lineitem, "l", 1);
  PlanBuilder& pb = site.NewFragment();
  ASSERT_TRUE(pb.ScanShard("lineitem", schema).ok());

  auto injector = std::make_shared<FaultInjector>();
  testing::SimPlane plane(2, 1e9, 0.0);
  plane.mesh()->InstallFaultInjector(injector);
  injector->SiteDown(/*site=*/0, /*after=*/0);
  site.SetEndpoint(plane.endpoint(0));
  consumer.SetEndpoint(plane.endpoint(1));

  BloomFilter bloom(1024, 0.05, 1);
  bloom.Insert(42);
  const AttrId attr = schema.field(1).attr;  // l.l_partkey
  RemoteFilterShipFn ship = MakeFilterShipper(&consumer, {0});

  const Result<double> down = ship(attr, bloom, "chaos:test-filter");
  ASSERT_FALSE(down.ok());
  EXPECT_EQ(down.status().code(), StatusCode::kUnavailable);
  TableScan* scan = pb.source_scans()[0];
  EXPECT_FALSE(scan->HasSourceFilter("chaos:test-filter"));

  injector->HealAll();
  ASSERT_TRUE(ship(attr, bloom, "chaos:test-filter").ok());
  EXPECT_TRUE(scan->HasSourceFilter("chaos:test-filter"));
  // Idempotent re-ship after a (hypothetical) restart: still attached,
  // still a success, no duplicate filter.
  ASSERT_TRUE(ship(attr, bloom, "chaos:test-filter").ok());
  EXPECT_TRUE(scan->HasSourceFilter("chaos:test-filter"));
}

}  // namespace
}  // namespace pushsip
