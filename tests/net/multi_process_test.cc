// The multi-process coordinator protocol: the framed site report every
// pushsip_site prints (round trip and fail-closed decoding of truncated,
// padded and bit-flipped reports), the `--peers` format, and one whole
// fork/exec run of 4-site Q17 checked against the in-process simulation.
#include "dist/multi_process.h"

#include <algorithm>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "net/wire_format.h"
#include "storage/tpch_generator.h"

namespace pushsip {
namespace {

/// A report in which every counter holds a distinct value.
SiteReport DistinctReport() {
  SiteReport report;
  int k = 0;
  DistQueryStats::ForEachCounter([&](auto member, CounterMerge) {
    auto& counter = report.stats.*member;
    counter = ++k * 1001;
    if constexpr (std::is_floating_point_v<
                      std::remove_reference_t<decltype(counter)>>) {
      counter += 0.25;  // doubles must survive bit-exact
    }
  });
  report.rows_wire = std::string("\x02\x00rows\xff", 7);
  report.trace_events = "{\"name\":\"x\"}";
  return report;
}

void ExpectSameReport(const SiteReport& a, const SiteReport& b) {
  DistQueryStats::ForEachCounter([&](auto member, CounterMerge) {
    EXPECT_EQ(a.stats.*member, b.stats.*member);
  });
  EXPECT_EQ(a.rows_wire, b.rows_wire);
  EXPECT_EQ(a.trace_events, b.trace_events);
}

TEST(SiteReportTest, RoundTripsEveryCounter) {
  const SiteReport report = DistinctReport();
  auto decoded = DecodeSiteReport(EncodeSiteReport(report));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectSameReport(report, *decoded);
  // Through the hex text the site prints, too.
  auto hex = HexDecode(HexEncode(EncodeSiteReport(report)));
  ASSERT_TRUE(hex.ok());
  decoded = DecodeSiteReport(*hex);
  ASSERT_TRUE(decoded.ok());
  ExpectSameReport(report, *decoded);
  for (const char* bad : {"abc", "0g", "-1", "+1", " 1"}) {
    EXPECT_FALSE(HexDecode(bad).ok()) << "accepted hex '" << bad << "'";
  }
  EXPECT_EQ(*HexDecode("00fFa5"), std::string("\x00\xff\xa5", 3));
}

TEST(SiteReportTest, EveryTruncationAndATrailingByteFail) {
  const std::string bytes = EncodeSiteReport(DistinctReport());
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(DecodeSiteReport(bytes.substr(0, len)).ok())
        << "prefix of " << len << " bytes decoded";
  }
  EXPECT_FALSE(DecodeSiteReport(bytes + '\0').ok());
}

// A flipped counter bit decodes to another value; a flipped length bit
// must fail. Neither may crash or throw.
TEST(SiteReportTest, EverySingleBitFlipDecodesOrFails) {
  const std::string bytes = EncodeSiteReport(DistinctReport());
  int failed = 0;
  for (size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    std::string flipped = bytes;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    if (!DecodeSiteReport(flipped).ok()) ++failed;
  }
  EXPECT_GT(failed, 0);
}

TEST(DistQueryStatsTest, MergeSumsCountersAndTakesTheSlowestElapsed) {
  DistQueryStats a = DistinctReport().stats;
  DistQueryStats b = a;
  b.elapsed_sec = a.elapsed_sec + 1;
  DistQueryStats merged = a;
  merged.Merge(b);
  EXPECT_EQ(merged.elapsed_sec, b.elapsed_sec);
  EXPECT_EQ(merged.bytes_shipped, 2 * a.bytes_shipped);
  EXPECT_EQ(merged.aip_reattached, 2 * a.aip_reattached);
  EXPECT_EQ(merged.restore_seconds, 2 * a.restore_seconds);
}

TEST(PeersTest, FormatAndParseRoundTrip) {
  const std::vector<TcpPeer> peers = {{0, "127.0.0.1", 5000},
                                      {1, "localhost", 65535},
                                      {63, "10.0.0.2", 1}};
  const std::string spec = FormatPeers(peers);
  EXPECT_EQ(spec, "0=127.0.0.1:5000,1=localhost:65535,63=10.0.0.2:1");
  auto parsed = ParsePeers(spec);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), peers.size());
  for (size_t i = 0; i < peers.size(); ++i) {
    EXPECT_EQ((*parsed)[i].site, peers[i].site);
    EXPECT_EQ((*parsed)[i].host, peers[i].host);
    EXPECT_EQ((*parsed)[i].port, peers[i].port);
  }
}

TEST(PeersTest, RejectsMalformedEntries) {
  for (const char* spec : {
           "",                       // empty spec
           "0=h:1,",                 // trailing empty entry
           "0=h:1,,1=h:2",           // empty entry in the middle
           "0=h:99999",              // port out of range (not wrapped)
           "0=h:0",                  // port 0 cannot be dialed
           "0=h:-1",                 // negative port
           "0=h:12x",                // trailing junk in the port
           "0=h:",                   // missing port
           "x=h:1",                  // non-numeric site
           "-1=h:1",                 // negative site
           "64=h:1",                 // site out of range
           "=h:1",                   // missing site
           "0=:1",                   // empty host
           "0h:1",                   // missing '='
           "0=h",                    // missing ':'
       }) {
    EXPECT_FALSE(ParsePeers(spec).ok()) << "accepted '" << spec << "'";
  }
}

/// The whole query in one process over the simulated mesh: its sorted
/// rows serialized as a standalone wire batch (the bit-comparable form).
std::string SimReferenceWire(const MultiProcessOptions& mp) {
  TpchConfig gen;
  gen.scale_factor = mp.scale_factor;
  gen.seed = mp.seed;
  ScaleOutOptions so;
  so.num_sites = mp.num_sites;
  so.aip = mp.aip;
  so.weak_part_filter = mp.weak_part_filter;
  so.deterministic_merge = mp.deterministic_merge;
  auto query = BuildScaleOutQuery(mp.query, MakeTpchCatalog(gen), so);
  if (!query.ok() || !(*query)->Run().ok()) {
    ADD_FAILURE() << "sim reference run failed";
    return {};
  }
  std::vector<Tuple> rows = (*query)->root_sink->TakeRows();
  std::sort(rows.begin(), rows.end(),
            [](const Tuple& a, const Tuple& b) { return a.Compare(b) < 0; });
  return SerializeBatch(Batch::FromRows(rows));
}

TEST(MultiProcessTest, ForkedSitesMatchSimAndFoldTheirReports) {
  MultiProcessOptions mp;
  mp.query = ScaleOutQuery::kQ17;
  mp.scale_factor = 0.005;
  mp.num_sites = 4;
  mp.weak_part_filter = true;  // sf < 0.01: keep the answer non-empty
  mp.deterministic_merge = true;
  const std::string sim_wire = SimReferenceWire(mp);
  ASSERT_FALSE(sim_wire.empty());

  auto run = RunMultiProcess(mp);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->rows_wire, sim_wire);
  ASSERT_EQ(run->per_site.size(), 4u);
  int64_t bytes = 0;
  double slowest = 0;
  for (const DistQueryStats& site : run->per_site) {
    bytes += site.bytes_shipped;
    slowest = std::max(slowest, site.elapsed_sec);
  }
  EXPECT_GT(bytes, 0);
  EXPECT_EQ(run->stats.bytes_shipped, bytes);
  EXPECT_EQ(run->stats.elapsed_sec, slowest);
}

}  // namespace
}  // namespace pushsip
