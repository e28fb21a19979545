// Concurrency battery for the serving layer: many sessions over one shared
// engine must each compute exactly the single-query answer — same table or
// disjoint tables, local or distributed, cold or through the cross-query
// AIP cache — and per-session stats (notably bytes_shipped on a shared
// mesh) must be billed to the session that incurred them.
#include "serve/query_session.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "tests/serve/serve_test_util.h"
#include "tests/testing/catalog_factory.h"
#include "tests/testing/test_rng.h"

namespace pushsip {
namespace {

using testing::ExpectRowsEqual;
using testing::OrdersQuery;
using testing::PartQuery;
using testing::PartsuppQuery;
using testing::ReferenceRows;
using testing::TinyTpchCatalog;

TEST(ServeTest, SingleSessionMatchesReference) {
  auto catalog = TinyTpchCatalog();
  const ServeQuery q = PartQuery(25);
  auto want = ReferenceRows(catalog, q);
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  QueryServer server(catalog);
  auto id = server.Submit(q);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  auto res = server.Wait(*id);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ExpectRowsEqual(res->rows, *want);
  EXPECT_EQ(server.state(*id), SessionState::kFinished);

  // Cold run: no hit, the collector did real work, the summary stuck.
  EXPECT_FALSE(res->aip_cache_hit);
  EXPECT_GT(res->summary_entries, 0);
  EXPECT_TRUE(res->summary_cached);
  const AipCacheStats cs = server.cache_stats();
  EXPECT_EQ(cs.hits, 0);
  EXPECT_EQ(cs.misses, 1);
  EXPECT_EQ(cs.inserts, 1);
}

// Served plans scan only the columns they use (join keys, the filter
// column, the SUM input). Narrowing must not move any answer, and it must
// shrink the join state below the full-width plan's: with the AIP cache
// off, the narrower rows are the only difference between the two.
TEST(ServeTest, NarrowedScansMatchFullWidthPlanWithLessState) {
  auto catalog = TinyTpchCatalog();
  ServeOptions local;
  local.worker_threads = 1;
  local.aip_cache_budget_bytes = 0;
  ServeOptions mesh = local;
  mesh.num_sites = 3;
  mesh.sharded_tables = {"lineitem"};
  QueryServer local_server(catalog, local);
  QueryServer mesh_server(catalog, mesh);
  for (const int64_t upper : {8, 16, 24, 32, 40}) {
    SCOPED_TRACE("p_size < " + std::to_string(upper));
    const ServeQuery q = PartQuery(upper);
    auto want = testing::RunReference(catalog, q);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    auto id = local_server.Submit(q);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    auto res = local_server.Wait(*id);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    ExpectRowsEqual(res->rows, want->rows);
    EXPECT_GT(res->stats.peak_state_bytes, 0);
    EXPECT_LT(res->stats.peak_state_bytes, want->stats.peak_state_bytes);

    auto mesh_id = mesh_server.Submit(q);
    ASSERT_TRUE(mesh_id.ok()) << mesh_id.status().ToString();
    auto mesh_res = mesh_server.Wait(*mesh_id);
    ASSERT_TRUE(mesh_res.ok()) << mesh_res.status().ToString();
    ExpectRowsEqual(mesh_res->rows, want->rows);
  }
}

TEST(ServeTest, ManySessionsSameTableMatchSingleQueryRun) {
  auto catalog = TinyTpchCatalog();
  const ServeQuery q = PartQuery(25);
  auto want = ReferenceRows(catalog, q);
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  ServeOptions opts;
  opts.worker_threads = 4;
  QueryServer server(catalog, opts);
  constexpr int kSessions = 8;
  std::vector<QueryServer::SessionId> ids;
  for (int i = 0; i < kSessions; ++i) {
    auto id = server.Submit(q);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }
  for (const auto id : ids) {
    auto res = server.Wait(id);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    ExpectRowsEqual(res->rows, *want);
  }
  // Every session either hit the cache or rebuilt the summary; with 4
  // workers racing, more than one cold build is legitimate, but every
  // lookup is accounted.
  const AipCacheStats cs = server.cache_stats();
  EXPECT_EQ(cs.hits + cs.misses, kSessions);
  EXPECT_GE(cs.inserts, 1);
}

TEST(ServeTest, ManySessionsDisjointTablesMatchSingleQueryRuns) {
  auto catalog = TinyTpchCatalog();
  const std::vector<ServeQuery> specs = {PartQuery(25), OrdersQuery(13),
                                         PartsuppQuery(13)};
  std::vector<std::vector<Tuple>> want;
  for (const ServeQuery& q : specs) {
    auto rows = ReferenceRows(catalog, q);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    want.push_back(std::move(*rows));
  }

  ServeOptions opts;
  opts.worker_threads = 4;
  QueryServer server(catalog, opts);
  std::vector<std::pair<QueryServer::SessionId, size_t>> ids;
  for (int round = 0; round < 3; ++round) {
    for (size_t s = 0; s < specs.size(); ++s) {
      auto id = server.Submit(specs[s]);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      ids.emplace_back(*id, s);
    }
  }
  for (const auto& [id, s] : ids) {
    auto res = server.Wait(id);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    ExpectRowsEqual(res->rows, want[s]);
  }
  const ServerStats st = server.stats();
  EXPECT_EQ(st.submitted, static_cast<int64_t>(ids.size()));
  EXPECT_EQ(st.finished, static_cast<int64_t>(ids.size()));
  EXPECT_EQ(st.failed, 0);
  EXPECT_EQ(st.cancelled, 0);
}

TEST(ServeTest, AipCacheSecondQueryHitsWithIdenticalAnswer) {
  auto catalog = TinyTpchCatalog();
  const ServeQuery q = PartQuery(25);

  ServeOptions opts;
  opts.worker_threads = 1;  // strictly sequential: cold then warm
  QueryServer server(catalog, opts);

  auto cold_id = server.Submit(q);
  ASSERT_TRUE(cold_id.ok());
  auto cold = server.Wait(*cold_id);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_FALSE(cold->aip_cache_hit);
  ASSERT_TRUE(cold->summary_cached);
  ASSERT_GT(cold->summary_entries, 0);

  auto warm_id = server.Submit(q);
  ASSERT_TRUE(warm_id.ok());
  auto warm = server.Wait(*warm_id);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE(warm->aip_cache_hit);
  // The saved work: the warm run never rebuilt the summary...
  EXPECT_EQ(warm->summary_entries, 0);
  // ...the attached filter actually pruned probe rows at the source...
  EXPECT_GT(warm->stats.rows_source_pruned, 0);
  // ...and the answer is bit-identical to the cold run.
  ExpectRowsEqual(warm->rows, cold->rows);

  const AipCacheStats cs = server.cache_stats();
  EXPECT_EQ(cs.hits, 1);
  EXPECT_EQ(cs.misses, 1);
}

TEST(ServeTest, CachedFilterNeverChangesAnswerAcrossPredicates) {
  auto catalog = TinyTpchCatalog();
  ServeOptions opts;
  opts.worker_threads = 1;
  QueryServer server(catalog, opts);
  for (const int64_t upper : {5, 15, 25, 35, 45}) {
    const ServeQuery q = PartQuery(upper);
    auto want = ReferenceRows(catalog, q);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    for (int run = 0; run < 2; ++run) {
      auto id = server.Submit(q);
      ASSERT_TRUE(id.ok());
      auto res = server.Wait(*id);
      ASSERT_TRUE(res.ok()) << res.status().ToString();
      EXPECT_EQ(res->aip_cache_hit, run == 1) << "upper=" << upper;
      ExpectRowsEqual(res->rows, *want);
    }
  }
}

// Randomized interleaving of admission, cancellation, and completion.
// Whatever the schedule, a finished session's answer equals the reference
// and the server's terminal accounting is exact.
TEST(ServeTest, RandomizedInterleavingProperty) {
  const uint64_t seed = testing::TestSeed();
  PUSHSIP_SEED_TRACE(seed);
  Random rng = testing::SeededRandom(17);

  auto catalog = TinyTpchCatalog();
  const std::vector<ServeQuery> specs = {PartQuery(25), OrdersQuery(13),
                                         PartsuppQuery(13)};
  std::vector<std::vector<Tuple>> want;
  for (const ServeQuery& q : specs) {
    auto rows = ReferenceRows(catalog, q);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    want.push_back(std::move(*rows));
  }

  ServeOptions opts;
  opts.worker_threads = 4;
  // A budget two concurrent sessions exceed, so admission queueing (and
  // cancellation of queued sessions) is actually exercised.
  opts.admission_budget_bytes = 3ll << 20;
  QueryServer server(catalog, opts);

  std::vector<std::pair<QueryServer::SessionId, size_t>> live;
  int64_t submitted = 0;
  for (int op = 0; op < 60; ++op) {
    const int64_t dice = rng.UniformInt(0, 9);
    if (dice < 6 || live.empty()) {
      const size_t s = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(specs.size()) - 1));
      ServeQuery q = specs[s];
      q.est_state_bytes = 2ll << 20;
      auto id = server.Submit(q);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      live.emplace_back(*id, s);
      ++submitted;
    } else if (dice < 8) {
      const size_t pick = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      ASSERT_TRUE(server.Cancel(live[pick].first).ok());
    } else {
      const size_t pick = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      const auto [id, s] = live[pick];
      auto res = server.Wait(id);
      if (res.ok()) ExpectRowsEqual(res->rows, want[s]);
    }
  }

  int64_t finished = 0, cancelled = 0;
  for (const auto& [id, s] : live) {
    auto res = server.Wait(id);
    const SessionState state = server.state(id);
    if (res.ok()) {
      EXPECT_EQ(state, SessionState::kFinished);
      ExpectRowsEqual(res->rows, want[s]);
      ++finished;
    } else {
      // The only acceptable non-answer is a cancellation we requested.
      EXPECT_EQ(res.status().code(), StatusCode::kCancelled)
          << res.status().ToString();
      EXPECT_EQ(state, SessionState::kCancelled);
      ++cancelled;
    }
  }
  const ServerStats st = server.stats();
  EXPECT_EQ(st.submitted, submitted);
  EXPECT_EQ(st.finished, finished);
  EXPECT_EQ(st.cancelled, cancelled);
  EXPECT_EQ(st.failed, 0);
  EXPECT_EQ(st.finished + st.cancelled, submitted);
}

TEST(ServeTest, OversizedSessionsSerializeButComplete) {
  auto catalog = TinyTpchCatalog();
  const ServeQuery base = PartQuery(25);
  auto want = ReferenceRows(catalog, base);
  ASSERT_TRUE(want.ok());

  ServeOptions opts;
  opts.worker_threads = 4;
  opts.admission_budget_bytes = 1 << 20;
  QueryServer server(catalog, opts);
  std::vector<QueryServer::SessionId> ids;
  for (int i = 0; i < 6; ++i) {
    ServeQuery q = base;
    q.est_state_bytes = 2 << 20;  // every session exceeds the whole budget
    auto id = server.Submit(q);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  for (const auto id : ids) {
    auto res = server.Wait(id);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    ExpectRowsEqual(res->rows, *want);
  }
  // The force-admit path really over-committed (one oversized session at a
  // time), never two at once: peak equals one session's estimate.
  EXPECT_EQ(server.stats().admission_peak_bytes, 2 << 20);
}

TEST(ServeTest, CancelContracts) {
  auto catalog = TinyTpchCatalog();
  QueryServer server(catalog);
  EXPECT_EQ(server.Cancel(12345).code(), StatusCode::kNotFound);

  auto id = server.Submit(PartQuery(25));
  ASSERT_TRUE(id.ok());
  auto res = server.Wait(*id);
  ASSERT_TRUE(res.ok());
  // Cancelling a finished session is an OK no-op; the result survives.
  EXPECT_TRUE(server.Cancel(*id).ok());
  EXPECT_EQ(server.state(*id), SessionState::kFinished);
  EXPECT_TRUE(server.Wait(*id).ok());
}

TEST(ServeTest, CancelledSessionReportsCancelled) {
  auto catalog = TinyTpchCatalog();
  ServeOptions opts;
  opts.worker_threads = 1;  // queue depth: later submissions wait
  QueryServer server(catalog, opts);
  auto first = server.Submit(PartQuery(45));
  ASSERT_TRUE(first.ok());
  std::vector<QueryServer::SessionId> rest;
  for (int i = 0; i < 4; ++i) {
    auto id = server.Submit(PartQuery(45));
    ASSERT_TRUE(id.ok());
    rest.push_back(*id);
  }
  for (const auto id : rest) ASSERT_TRUE(server.Cancel(id).ok());
  for (const auto id : rest) {
    auto res = server.Wait(id);
    // A cancel can race completion; anything else is a bug.
    if (res.ok()) {
      EXPECT_EQ(server.state(id), SessionState::kFinished);
    } else {
      EXPECT_EQ(res.status().code(), StatusCode::kCancelled);
      EXPECT_EQ(server.state(id), SessionState::kCancelled);
    }
  }
  EXPECT_TRUE(server.Wait(*first).ok());
}

TEST(ServeTest, ShutdownDrainsQueuedSessionsAndRejectsNew) {
  auto catalog = TinyTpchCatalog();
  const ServeQuery q = PartQuery(25);
  auto want = ReferenceRows(catalog, q);
  ASSERT_TRUE(want.ok());

  ServeOptions opts;
  opts.worker_threads = 1;
  QueryServer server(catalog, opts);
  std::vector<QueryServer::SessionId> ids;
  for (int i = 0; i < 5; ++i) {
    auto id = server.Submit(q);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  server.Shutdown();
  EXPECT_FALSE(server.Submit(q).ok());
  for (const auto id : ids) {
    auto res = server.Wait(id);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    ExpectRowsEqual(res->rows, *want);
  }
}

TEST(ServeTest, SubmitValidatesSpec) {
  auto catalog = TinyTpchCatalog();
  QueryServer server(catalog);
  ServeQuery q = PartQuery(25);
  q.probe_table = "nope";
  EXPECT_FALSE(server.Submit(q).ok());
  q = PartQuery(25);
  q.build_filter_col = "p_nope";
  EXPECT_FALSE(server.Submit(q).ok());
}

// ---- distributed serving over one shared mesh ----

ServeOptions MeshOptions(int sites) {
  ServeOptions opts;
  opts.worker_threads = 2;
  opts.num_sites = sites;
  opts.sharded_tables = {"lineitem", "partsupp"};
  return opts;
}

TEST(ServeMeshTest, MeshSessionMatchesLocalReference) {
  auto catalog = TinyTpchCatalog();
  const ServeQuery q = PartQuery(25);
  auto want = ReferenceRows(catalog, q);
  ASSERT_TRUE(want.ok());

  QueryServer server(catalog, MeshOptions(4));
  auto id = server.Submit(q);
  ASSERT_TRUE(id.ok());
  auto res = server.Wait(*id);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ExpectRowsEqual(res->rows, *want);
  EXPECT_GT(res->stats.bytes_shipped, 0);
}

// Replacing a table reshards that table only, and a replaced sharded table
// serves the new rows' answer.
TEST(ServeMeshTest, ReplaceTableReshardsOnlyTheReplacedTable) {
  auto catalog = TinyTpchCatalog();
  const ServeQuery q = PartQuery(25);
  auto old_want = ReferenceRows(catalog, q);
  ASSERT_TRUE(old_want.ok());
  QueryServer server(catalog, MeshOptions(3));
  auto before = catalog->Shards("lineitem", 3);
  ASSERT_TRUE(before.ok());

  // part is not sharded: its new version leaves lineitem's shards alone.
  ASSERT_TRUE(server.ReplaceTable(*catalog->GetTable("part")).ok());
  EXPECT_EQ(*catalog->Shards("lineitem", 3), *before);

  // Every other lineitem row: a lineitem with its own answer.
  const TablePtr half = ShardRoundRobin(**catalog->GetTable("lineitem"), 2)[0];
  ASSERT_TRUE(server.ReplaceTable(half).ok());
  auto after = catalog->Shards("lineitem", 3);
  ASSERT_TRUE(after.ok());
  size_t rows = 0;
  for (size_t s = 0; s < 3; ++s) {
    EXPECT_NE((*after)[s], (*before)[s]);
    rows += (*after)[s]->num_rows();
  }
  EXPECT_EQ(rows, half->num_rows());

  auto want = ReferenceRows(catalog, q);
  ASSERT_TRUE(want.ok());
  ASSERT_NE(want->at(0).ToString(), old_want->at(0).ToString());
  auto id = server.Submit(q);
  ASSERT_TRUE(id.ok());
  auto res = server.Wait(*id);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ExpectRowsEqual(res->rows, *want);
}

TEST(ServeMeshTest, UnshardedProbeFallsBackToLocal) {
  auto catalog = TinyTpchCatalog();
  const ServeQuery q = OrdersQuery(13);  // orders is not sharded
  auto want = ReferenceRows(catalog, q);
  ASSERT_TRUE(want.ok());
  QueryServer server(catalog, MeshOptions(4));
  auto id = server.Submit(q);
  ASSERT_TRUE(id.ok());
  auto res = server.Wait(*id);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ExpectRowsEqual(res->rows, *want);
  EXPECT_EQ(res->stats.bytes_shipped, 0);
}

// Regression for the shared-mesh accounting bug: two distributed queries
// interleaved on ONE mesh must each report exactly the bytes THEY shipped
// — identical to what each reports running alone — not the mesh total.
TEST(ServeMeshTest, InterleavedDistributedQueriesBillBytesSeparately) {
  auto catalog = TinyTpchCatalog();
  const ServeQuery qa = PartQuery(25);      // probes sharded lineitem
  const ServeQuery qb = PartsuppQuery(13);  // probes sharded partsupp

  ServeOptions opts = MeshOptions(4);
  opts.aip_cache_budget_bytes = 0;  // no cross-run pruning interference

  int64_t solo_a = 0, solo_b = 0;
  {
    ServeOptions solo = opts;
    solo.worker_threads = 1;
    QueryServer server(catalog, solo);
    auto ida = server.Submit(qa);
    ASSERT_TRUE(ida.ok());
    auto ra = server.Wait(*ida);
    ASSERT_TRUE(ra.ok()) << ra.status().ToString();
    solo_a = ra->stats.bytes_shipped;
    auto idb = server.Submit(qb);
    ASSERT_TRUE(idb.ok());
    auto rb = server.Wait(*idb);
    ASSERT_TRUE(rb.ok()) << rb.status().ToString();
    solo_b = rb->stats.bytes_shipped;
  }
  ASSERT_GT(solo_a, 0);
  ASSERT_GT(solo_b, 0);

  QueryServer server(catalog, opts);  // 2 workers: A and B truly overlap
  auto ida = server.Submit(qa);
  auto idb = server.Submit(qb);
  ASSERT_TRUE(ida.ok());
  ASSERT_TRUE(idb.ok());
  auto ra = server.Wait(*ida);
  auto rb = server.Wait(*idb);
  ASSERT_TRUE(ra.ok()) << ra.status().ToString();
  ASSERT_TRUE(rb.ok()) << rb.status().ToString();
  EXPECT_EQ(ra->stats.bytes_shipped, solo_a);
  EXPECT_EQ(rb->stats.bytes_shipped, solo_b);
}

TEST(ServeMeshTest, WarmMeshQueryShipsFewerBytes) {
  auto catalog = TinyTpchCatalog();
  const ServeQuery q = PartQuery(15);
  auto want = ReferenceRows(catalog, q);
  ASSERT_TRUE(want.ok());

  ServeOptions opts = MeshOptions(4);
  opts.worker_threads = 1;
  QueryServer server(catalog, opts);
  auto cold_id = server.Submit(q);
  ASSERT_TRUE(cold_id.ok());
  auto cold = server.Wait(*cold_id);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ExpectRowsEqual(cold->rows, *want);

  auto warm_id = server.Submit(q);
  ASSERT_TRUE(warm_id.ok());
  auto warm = server.Wait(*warm_id);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE(warm->aip_cache_hit);
  ExpectRowsEqual(warm->rows, *want);
  // The cached summary attaches at the SHARD scans, so pruned probe rows
  // never cross the mesh: the warm run ships strictly fewer bytes.
  EXPECT_LT(warm->stats.bytes_shipped, cold->stats.bytes_shipped);
  EXPECT_GT(warm->stats.rows_source_pruned, 0);
}

// Cancelling a running distributed session unwinds every fragment of it
// (senders, shard scans, the coordinator's receiver) without wedging the
// shared mesh: the next session on the same server returns the reference
// answer and is billed exactly what it ships alone.
TEST(ServeMeshTest, CancelledMeshSessionLeavesTheMeshServing) {
  auto catalog = TinyTpchCatalog();
  const ServeQuery q = PartQuery(25);
  auto want = ReferenceRows(catalog, q);
  ASSERT_TRUE(want.ok());

  ServeOptions opts = MeshOptions(4);
  opts.aip_cache_budget_bytes = 0;  // every session ships the same stream
  int64_t solo = 0;
  {
    QueryServer server(catalog, opts);
    auto id = server.Submit(q);
    ASSERT_TRUE(id.ok());
    auto res = server.Wait(*id);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    solo = res->stats.bytes_shipped;
  }
  ASSERT_GT(solo, 0);

  // Paced shard scans keep the session running for about half a second.
  opts.scan_delay_every_rows = 64;
  opts.scan_delay_ms = 10;
  QueryServer server(catalog, opts);
  auto id = server.Submit(q);
  ASSERT_TRUE(id.ok());
  while (server.state(*id) == SessionState::kQueued) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_EQ(server.state(*id), SessionState::kRunning);
  const auto cancelled_at = std::chrono::steady_clock::now();
  ASSERT_TRUE(server.Cancel(*id).ok());
  auto res = server.Wait(*id);
  EXPECT_LT(std::chrono::steady_clock::now() - cancelled_at,
            std::chrono::seconds(10));
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(server.state(*id), SessionState::kCancelled);
  EXPECT_EQ(server.stats().cancelled, 1);

  auto next_id = server.Submit(q);
  ASSERT_TRUE(next_id.ok());
  auto next = server.Wait(*next_id);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  ExpectRowsEqual(next->rows, *want);
  EXPECT_EQ(next->stats.bytes_shipped, solo);
}

}  // namespace
}  // namespace pushsip
