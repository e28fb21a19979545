// End-to-end acceptance of the TCP backend: the full Q17 scale-out
// topology runs as four transport endpoints on loopback (threads here —
// the process boundary adds nothing the sockets don't already prove; the
// fork/exec path is covered by multi_process_test) and must
// produce answers bit-identical to the in-process simulated run. The
// chaos variant severs every live connection of one site mid-query and
// requires the reconnect + epoch/seq replay dedup machinery to still
// deliver the identical answer.
#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dist/multi_process.h"
#include "dist/scale_out.h"
#include "net/transport/tcp_transport.h"
#include "net/wire_format.h"
#include "storage/tpch_generator.h"

namespace pushsip {
namespace {

constexpr int kSites = 4;
constexpr double kScaleFactor = 0.005;
constexpr uint64_t kSeed = 42;

SiteProcessOptions SiteOptions(int site) {
  SiteProcessOptions opts;
  opts.query = ScaleOutQuery::kQ17;
  opts.scale_factor = kScaleFactor;
  opts.seed = kSeed;
  opts.num_sites = kSites;
  opts.site = site;
  opts.aip = true;
  opts.weak_part_filter = true;  // sf < 0.01: keep the answer non-empty
  opts.deterministic_merge = true;
  // Small batches → many data frames per stream, so a kill-after-N-frames
  // chaos schedule always lands mid-stream with plenty of sends left.
  opts.batch_size = 256;
  // A stranded receiver must surface as a failure within the test budget,
  // not hang for the production 30 s heartbeat.
  opts.exchange_idle_timeout_sec = 8.0;
  return opts;
}

/// The whole query in one process over the simulated mesh — the reference
/// answer, its sorted rows serialized as a standalone wire batch (the
/// bit-comparable form).
std::string SimReferenceWire() {
  TpchConfig gen;
  gen.scale_factor = kScaleFactor;
  gen.seed = kSeed;
  auto catalog = MakeTpchCatalog(gen);
  ScaleOutOptions so;
  so.num_sites = kSites;
  so.aip = true;
  so.weak_part_filter = true;
  so.deterministic_merge = true;
  auto query = BuildScaleOutQuery(ScaleOutQuery::kQ17, catalog, so);
  if (!query.ok()) {
    ADD_FAILURE() << "sim build failed: " << query.status().ToString();
    return {};
  }
  auto stats = (*query)->Run();
  if (!stats.ok()) {
    ADD_FAILURE() << "sim run failed: " << stats.status().ToString();
    return {};
  }
  std::vector<Tuple> rows = (*query)->root_sink->TakeRows();
  std::sort(rows.begin(), rows.end(),
            [](const Tuple& a, const Tuple& b) { return a.Compare(b) < 0; });
  return SerializeBatch(Batch::FromRows(rows));
}

struct ClusterRun {
  std::string rows_wire;           // root site's serialized sorted answer
  std::vector<Status> site_status;  // per site
  int64_t reconnects = 0;          // summed over all endpoints
};

/// Runs the 4-site topology, one TcpTransport endpoint per thread. When
/// `kill_site` >= 0, that site's transport severs every live connection
/// after it successfully sends its `kill_after_frames`-th data frame — a
/// deterministic mid-stream schedule (an external killer thread polling
/// wire bytes races query completion under parallel test load).
ClusterRun RunTcpCluster(int kill_site, int64_t kill_after_frames) {
  std::vector<std::shared_ptr<TcpTransport>> transports;
  std::vector<TcpPeer> all;
  for (int s = 0; s < kSites; ++s) {
    TcpTransportOptions topts;
    topts.local_site = s;
    topts.num_sites = kSites;
    topts.dial_timeout_sec = 20;
    if (s == kill_site) topts.chaos_kill_after_data_frames = kill_after_frames;
    auto t = std::make_shared<TcpTransport>(topts);
    EXPECT_TRUE(t->Listen().ok());
    all.push_back({s, "127.0.0.1", t->listen_port()});
    transports.push_back(t);
  }
  for (int s = 0; s < kSites; ++s) {
    std::vector<TcpPeer> others;
    for (const TcpPeer& p : all) {
      if (p.site != s) others.push_back(p);
    }
    transports[s]->SetPeers(others);
  }

  ClusterRun run;
  run.site_status.assign(kSites, Status::OK());

  std::vector<std::thread> sites;
  for (int s = 0; s < kSites; ++s) {
    sites.emplace_back([&, s] {
      auto result = RunScaleOutSite(SiteOptions(s), transports[s]);
      if (!result.ok()) {
        run.site_status[s] = result.status();
      } else if (s == 0) {
        run.rows_wire = result->rows_wire;
      }
    });
  }
  for (auto& t : sites) t.join();
  for (const auto& t : transports) run.reconnects += t->reconnects();
  return run;
}

TEST(TcpScaleOutTest, FourSitesMatchSimBitForBit) {
  const std::string sim_wire = SimReferenceWire();
  ASSERT_FALSE(sim_wire.empty());

  const ClusterRun tcp = RunTcpCluster(/*kill_site=*/-1, 0);
  for (int s = 0; s < kSites; ++s) {
    EXPECT_TRUE(tcp.site_status[s].ok())
        << "site " << s << ": " << tcp.site_status[s].ToString();
  }
  ASSERT_FALSE(tcp.rows_wire.empty());
  EXPECT_EQ(tcp.rows_wire, sim_wire)
      << "tcp answer diverged from the in-process simulation ("
      << tcp.rows_wire.size() << " vs " << sim_wire.size()
      << " serialized bytes)";

  // One more input: the same query in one process over loopback TCP. Its
  // cost-based AIP filters leave through the sites' TCP endpoints, so the
  // simulated mesh carries nothing at all.
  TpchConfig gen;
  gen.scale_factor = kScaleFactor;
  gen.seed = kSeed;
  ScaleOutOptions so;
  so.num_sites = kSites;
  so.aip = true;
  so.weak_part_filter = true;
  so.deterministic_merge = true;
  auto query =
      BuildScaleOutQuery(ScaleOutQuery::kQ17, MakeTpchCatalog(gen), so);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ASSERT_TRUE(WireInProcessTcp(**query).ok());
  auto stats = (*query)->Run();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->aip_filters, 0);
  EXPECT_EQ((*query)->mesh->TotalUsage().bytes, 0);
  std::vector<Tuple> rows = (*query)->root_sink->TakeRows();
  std::sort(rows.begin(), rows.end(),
            [](const Tuple& a, const Tuple& b) { return a.Compare(b) < 0; });
  EXPECT_EQ(SerializeBatch(Batch::FromRows(rows)), sim_wire);
}

TEST(TcpScaleOutTest, MidQueryConnectionKillRecoversBitIdentical) {
  const std::string sim_wire = SimReferenceWire();
  ASSERT_FALSE(sim_wire.empty());

  // Sever site 2's sockets after its 20th data frame — early in the scan
  // phase (256-row batches give each stream dozens of frames), while every
  // site is still streaming into every other, so all endpoints observe the
  // failure, heal, and replay.
  const ClusterRun tcp = RunTcpCluster(/*kill_site=*/2, /*kill_after_frames=*/20);
  for (int s = 0; s < kSites; ++s) {
    EXPECT_TRUE(tcp.site_status[s].ok())
        << "site " << s << " failed to recover: "
        << tcp.site_status[s].ToString();
  }
  ASSERT_FALSE(tcp.rows_wire.empty());
  EXPECT_EQ(tcp.rows_wire, sim_wire)
      << "post-recovery answer diverged from the clean run ("
      << tcp.rows_wire.size() << " vs " << sim_wire.size()
      << " serialized bytes)";
  // The kill must actually have severed live connections and the heal
  // path must have redialed them — otherwise this test ran no chaos.
  EXPECT_GT(tcp.reconnects, 0);
}

}  // namespace
}  // namespace pushsip
