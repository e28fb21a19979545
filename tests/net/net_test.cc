#include <thread>

#include <gtest/gtest.h>

#include "net/remote_node.h"
#include "tests/exec/exec_test_util.h"
#include "util/pacer.h"
#include "util/stopwatch.h"

namespace pushsip {
namespace {

using testutil::MakeIntTable;

TEST(SimLinkTest, TransferTimeMatchesBandwidth) {
  SimLink link(8e6, 0);  // 8 Mbit/s = 1 MB/s
  EXPECT_NEAR(link.TransferSeconds(1 << 20), 1.05, 0.01);  // 1 MiB at 1 MB/s
  Stopwatch timer;
  link.Transmit(50 * 1024);  // ~50 ms at 1 MB/s
  EXPECT_GE(timer.ElapsedMillis(), 40.0);
  EXPECT_EQ(link.bytes_transferred(), 50 * 1024);
}

TEST(SimLinkTest, LatencyPaidOnce) {
  SimLink link(1e12, 50);
  Stopwatch timer;
  link.Transmit(10);
  const double first = timer.ElapsedMillis();
  EXPECT_GE(first, 45.0);
  Stopwatch timer2;
  link.Transmit(10);
  EXPECT_LT(timer2.ElapsedMillis(), 20.0);
}

TEST(SimLinkTest, ConcurrentFirstTransmissionsPayLatencyExactlyOnce) {
  // Eight threads race the first transmission; the exchange-guarded
  // latency path must admit exactly one payer (neither zero nor several).
  SimLink link(1e12, 100);
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&link] { link.Transmit(8); });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(link.bytes_transferred(), 64);
  // busy_seconds sums each transmission's simulated time: 8 negligible
  // transfers plus the one-time 100 ms latency, counted once.
  EXPECT_NEAR(link.busy_seconds(), 0.1, 0.01);
}

TEST(SimLinkTest, BusySecondsTracksTransferTime) {
  SimLink link(8e9, 0);  // 1 GB/s
  link.Transmit(10 << 20);
  link.Transmit(10 << 20);
  EXPECT_NEAR(link.busy_seconds(), 0.02, 0.005);
}

TEST(SimLinkTest, SmallFramesCostTheirModelledTimeNotASleepEach) {
  // 64 B at 1 Gb/s models 0.512 us, but one real sleep per frame takes
  // tens of microseconds: 2,000 such sleeps ran about 116 ms.
  SimLink link(1e9, 0.5);
  ExecContext ctx;
  Stopwatch timer;
  {
    Pacer run;  // what every source's Run installs
    for (int i = 0; i < 2000; ++i) ASSERT_TRUE(link.Transmit(64, &ctx).ok());
  }
  const double modelled = 2000 * 64 * 8 / 1e9 + 0.5e-3;
  EXPECT_LT(timer.ElapsedMillis(), 50.0);
  EXPECT_GE(timer.ElapsedSeconds(), modelled);  // never less than modelled
  // Billed exactly as modelled, to the nanosecond.
  EXPECT_NEAR(link.busy_seconds(), modelled, 1e-9);
  EXPECT_NEAR(ctx.OwnLinkUsage().seconds, modelled, 1e-9);
  EXPECT_EQ(ctx.OwnLinkUsage().bytes, 2000 * 64);
}

TEST(RemoteNodeTest, ScanChargesLink) {
  RemoteNode remote("site2", 8e6, 0);  // 1 MB/s
  ExecContext ctx;
  std::vector<std::pair<int64_t, int64_t>> rows(1000, {1, 1});
  auto table = MakeIntTable("t", rows);
  auto scan = std::make_unique<TableScan>(&ctx, "scan", table,
                                          table->schema(),
                                          remote.WrapScanOptions());
  Sink sink(&ctx, "sink", table->schema());
  scan->SetOutput(&sink);
  Stopwatch timer;
  ASSERT_TRUE(scan->Run().ok());
  // 1000 rows * two INT64 columns = ~16KB of columnar payload.
  EXPECT_GT(remote.link()->bytes_transferred(), 15000);
  EXPECT_GE(timer.ElapsedMillis(),
            remote.link()->TransferSeconds(
                static_cast<size_t>(remote.link()->bytes_transferred())) *
                1000.0 * 0.9);
  EXPECT_EQ(sink.num_rows(), 1000);
}

TEST(RemoteNodeTest, SourceFilterSavesBandwidth) {
  class OddFilter : public TupleFilter {
   public:
    bool Pass(const Batch& batch, size_t row) const override {
      return batch.col(0).I64At(row) % 2 == 1;
    }
    std::string label() const override { return "odd"; }
  };
  std::vector<std::pair<int64_t, int64_t>> rows;
  for (int64_t i = 0; i < 1000; ++i) rows.push_back({i, i});

  auto measure = [&](bool filtered) {
    RemoteNode remote("site2", 1e9, 0);
    ExecContext ctx;
    auto table = MakeIntTable("t", rows);
    auto scan = std::make_unique<TableScan>(&ctx, "scan", table,
                                            table->schema(),
                                            remote.WrapScanOptions());
    if (filtered) scan->AttachSourceFilter(std::make_shared<OddFilter>());
    Sink sink(&ctx, "sink", table->schema());
    scan->SetOutput(&sink);
    scan->Run().CheckOK();
    return remote.link()->bytes_transferred();
  };
  const int64_t full = measure(false);
  const int64_t pruned = measure(true);
  EXPECT_LT(pruned, full * 6 / 10);  // ~half the tuples crossed the link
}

}  // namespace
}  // namespace pushsip
