// ExchangeChannel / ExchangeSender / ExchangeReceiver: routing modes,
// multi-sender completion, link charging, cancellation, and the
// epoch/seq deduplication that makes fragment replay exact.
#include "dist/exchange.h"

#include <algorithm>
#include <thread>

#include <gtest/gtest.h>

#include "exec/sink.h"
#include "net/fault_injector.h"
#include "net/wire_format.h"
#include "storage/table.h"
#include "tests/testing/batch_builder.h"
#include "tests/testing/sim_plane.h"
#include "util/serde.h"
#include "util/stopwatch.h"

namespace pushsip {
namespace {

Schema TwoIntSchema() {
  return Schema({Field{"t.k", TypeId::kInt64, 0},
                 Field{"t.v", TypeId::kInt64, 1}});
}

Batch MakeBatch(int64_t first_key, int64_t count) {
  std::vector<std::pair<int64_t, int64_t>> rows;
  for (int64_t i = 0; i < count; ++i) rows.push_back({first_key + i, i});
  return testing::MakePairBatch(rows);
}

TEST(ExchangeTest, ForwardMovesTheWholeStream) {
  ExecContext send_ctx, recv_ctx;
  auto channel = std::make_shared<ExchangeChannel>();
  channel->set_num_senders(1);
  testing::SimPlane plane(2);

  ExchangeSender sender(&send_ctx, "xsend", TwoIntSchema(),
                        ExchangeMode::kForward, {},
                        {plane.Edge(0, 1, channel)});
  ExchangeReceiver receiver(&recv_ctx, "xrecv", TwoIntSchema(), channel);
  Sink sink(&recv_ctx, "sink", TwoIntSchema());
  receiver.SetOutput(&sink);

  std::thread recv_thread([&] { receiver.Run().CheckOK(); });
  ASSERT_TRUE(sender.Push(0, MakeBatch(0, 100)).ok());
  ASSERT_TRUE(sender.Push(0, MakeBatch(100, 50)).ok());
  ASSERT_TRUE(sender.Finish(0).ok());
  recv_thread.join();

  EXPECT_EQ(sink.num_rows(), 150);
  EXPECT_TRUE(sink.finished());
  EXPECT_EQ(plane.mesh()->link(0, 1)->bytes_transferred(),
            sender.bytes_sent());
  EXPECT_GT(sender.bytes_sent(), 0);
  EXPECT_EQ(receiver.batches_received(), 2);
}

TEST(ExchangeTest, HashPartitionIsADisjointCover) {
  ExecContext send_ctx;
  ExecContext recv_ctx[2];
  testing::SimPlane plane(1);
  std::vector<ExchangeDestination> dests;
  std::vector<std::shared_ptr<ExchangeChannel>> channels;
  for (int i = 0; i < 2; ++i) {
    channels.push_back(std::make_shared<ExchangeChannel>());
    channels.back()->set_num_senders(1);
    dests.push_back(plane.Edge(0, 0, channels.back()));
  }
  ExchangeSender sender(&send_ctx, "xsend", TwoIntSchema(),
                        ExchangeMode::kHashPartition, {0}, dests);

  std::vector<std::unique_ptr<ExchangeReceiver>> receivers;
  std::vector<std::unique_ptr<Sink>> sinks;
  std::vector<std::thread> threads;
  for (int i = 0; i < 2; ++i) {
    receivers.push_back(std::make_unique<ExchangeReceiver>(
        &recv_ctx[i], "xrecv", TwoIntSchema(), channels[i]));
    sinks.push_back(
        std::make_unique<Sink>(&recv_ctx[i], "sink", TwoIntSchema()));
    receivers.back()->SetOutput(sinks.back().get());
  }
  for (int i = 0; i < 2; ++i) {
    threads.emplace_back([&, i] { receivers[i]->Run().CheckOK(); });
  }
  ASSERT_TRUE(sender.Push(0, MakeBatch(0, 1000)).ok());
  ASSERT_TRUE(sender.Finish(0).ok());
  for (auto& t : threads) t.join();

  EXPECT_EQ(sinks[0]->num_rows() + sinks[1]->num_rows(), 1000);
  EXPECT_GT(sinks[0]->num_rows(), 0);  // both partitions non-trivial
  EXPECT_GT(sinks[1]->num_rows(), 0);
  // Every row landed at the partition its key hashes to.
  for (int i = 0; i < 2; ++i) {
    for (const Tuple& row : sinks[i]->rows()) {
      EXPECT_EQ(row.HashColumns(std::vector<int>{0}) % 2,
                static_cast<uint64_t>(i));
    }
  }
}

TEST(ExchangeTest, BroadcastReplicatesToEveryChannel) {
  ExecContext send_ctx;
  ExecContext recv_ctx[3];
  testing::SimPlane plane(1);
  std::vector<ExchangeDestination> dests;
  std::vector<std::shared_ptr<ExchangeChannel>> channels;
  for (int i = 0; i < 3; ++i) {
    channels.push_back(std::make_shared<ExchangeChannel>());
    channels.back()->set_num_senders(1);
    dests.push_back(plane.Edge(0, 0, channels.back()));
  }
  ExchangeSender sender(&send_ctx, "xsend", TwoIntSchema(),
                        ExchangeMode::kBroadcast, {}, dests);

  std::vector<std::unique_ptr<ExchangeReceiver>> receivers;
  std::vector<std::unique_ptr<Sink>> sinks;
  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i) {
    receivers.push_back(std::make_unique<ExchangeReceiver>(
        &recv_ctx[i], "xrecv", TwoIntSchema(), channels[i]));
    sinks.push_back(
        std::make_unique<Sink>(&recv_ctx[i], "sink", TwoIntSchema()));
    receivers.back()->SetOutput(sinks.back().get());
  }
  for (int i = 0; i < 3; ++i) {
    threads.emplace_back([&, i] { receivers[i]->Run().CheckOK(); });
  }
  ASSERT_TRUE(sender.Push(0, MakeBatch(0, 77)).ok());
  ASSERT_TRUE(sender.Finish(0).ok());
  for (auto& t : threads) t.join();
  for (int i = 0; i < 3; ++i) EXPECT_EQ(sinks[i]->num_rows(), 77);
}

TEST(ExchangeTest, ReceiverWaitsForAllSenders) {
  ExecContext ctx1, ctx2, recv_ctx;
  auto channel = std::make_shared<ExchangeChannel>();
  channel->set_num_senders(2);
  testing::SimPlane plane(1);
  ExchangeSender s1(&ctx1, "xsend1", TwoIntSchema(), ExchangeMode::kForward,
                    {}, {plane.Edge(0, 0, channel)});
  ExchangeSender s2(&ctx2, "xsend2", TwoIntSchema(), ExchangeMode::kForward,
                    {}, {plane.Edge(0, 0, channel)});
  ExchangeReceiver receiver(&recv_ctx, "xrecv", TwoIntSchema(), channel);
  Sink sink(&recv_ctx, "sink", TwoIntSchema());
  receiver.SetOutput(&sink);

  std::thread recv_thread([&] { receiver.Run().CheckOK(); });
  ASSERT_TRUE(s1.Push(0, MakeBatch(0, 10)).ok());
  ASSERT_TRUE(s1.Finish(0).ok());
  // One sender finishing must not end the stream.
  ASSERT_TRUE(s2.Push(0, MakeBatch(100, 20)).ok());
  ASSERT_TRUE(s2.Finish(0).ok());
  recv_thread.join();
  EXPECT_EQ(sink.num_rows(), 30);
}

TEST(ExchangeTest, ReplayedSenderFinishesItsStreamOnce) {
  // A stateful recovery replays every producer of the failed fragment,
  // including one that had already finished; its second finish must not
  // end a shared channel's stream while another sender is still going.
  ExecContext ctx1, ctx2;
  auto channel = std::make_shared<ExchangeChannel>();
  channel->set_num_senders(2);
  testing::SimPlane plane(1);
  ExchangeSender done(&ctx1, "xsend_done", TwoIntSchema(),
                      ExchangeMode::kForward, {}, {plane.Edge(0, 0, channel)});
  ExchangeSender busy(&ctx2, "xsend_busy", TwoIntSchema(),
                      ExchangeMode::kForward, {}, {plane.Edge(0, 0, channel)});
  ASSERT_TRUE(done.Finish(0).ok());
  done.ResetForReplay();
  ASSERT_TRUE(done.Finish(0).ok());

  std::string bytes;
  EXPECT_EQ(channel->Receive(&bytes, std::chrono::milliseconds(10)),
            ExchangeChannel::RecvStatus::kTimeout);
  ASSERT_TRUE(busy.Finish(0).ok());
  EXPECT_EQ(channel->Receive(&bytes, std::chrono::milliseconds(10)),
            ExchangeChannel::RecvStatus::kEndOfStream);
}

TEST(ExchangeTest, ReceiverStallIsTheTimeItWaited) {
  ExecContext send_ctx, recv_ctx;
  auto channel = std::make_shared<ExchangeChannel>();
  channel->set_num_senders(1);
  testing::SimPlane plane(1);
  ExchangeSender sender(&send_ctx, "xsend", TwoIntSchema(),
                        ExchangeMode::kForward, {}, {plane.Edge(0, 0, channel)});
  ReceiverOptions options;
  options.poll_ms = 1000;  // the frame arrives before the first poll ends
  ExchangeReceiver receiver(&recv_ctx, "xrecv", TwoIntSchema(), channel,
                            options);
  Sink sink(&recv_ctx, "sink", TwoIntSchema());
  receiver.SetOutput(&sink);

  double run_seconds = 0;
  std::thread recv_thread([&] {
    const Stopwatch run;
    receiver.Run().CheckOK();
    run_seconds = run.ElapsedSeconds();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(sender.Push(0, MakeBatch(0, 10)).ok());
  ASSERT_TRUE(sender.Finish(0).ok());
  recv_thread.join();

  // A wait that ends with a frame is still a stall: counting only timed
  // out polls would report 0 here.
  EXPECT_GE(receiver.stall_seconds(), 0.025);
  EXPECT_LE(receiver.stall_seconds(), run_seconds);
  EXPECT_EQ(sink.num_rows(), 10);
}

TEST(ExchangeTest, CancelUnblocksABlockedSender) {
  ExecContext ctx;
  auto channel = std::make_shared<ExchangeChannel>(/*capacity=*/1);
  channel->set_num_senders(1);
  testing::SimPlane plane(1);
  ExchangeSender sender(&ctx, "xsend", TwoIntSchema(),
                        ExchangeMode::kForward, {}, {plane.Edge(0, 0, channel)});
  ASSERT_TRUE(sender.Push(0, MakeBatch(0, 1)).ok());  // fills the queue

  std::thread blocked([&] {
    const Status st = sender.Push(0, MakeBatch(1, 1));
    EXPECT_EQ(st.code(), StatusCode::kCancelled);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  channel->Cancel();
  blocked.join();

  std::string bytes;
  EXPECT_FALSE(channel->Receive(&bytes));  // cancelled channel yields nothing
}

// End-to-end replay exactness: a window-batched scan streams through a
// seq-bound sender; a mid-stream link fault kills the first attempt; after
// ResetForReplay the rerun re-sends every window and the receiver accepts
// each exactly once.
TEST(ExchangeTest, ReplayAfterResetIsDeduplicatedExactly) {
  const Schema schema({Field{"t.k", TypeId::kInt64, 0}});
  auto table = std::make_shared<Table>("t", schema);
  constexpr int64_t kRows = 100;
  for (int64_t k = 0; k < kRows; ++k) {
    table->AppendRow(Tuple({Value::Int64(k)}));
  }

  ExecContext send_ctx, recv_ctx;
  send_ctx.set_batch_size(16);  // 7 windows
  auto channel = std::make_shared<ExchangeChannel>();
  channel->set_num_senders(1);

  auto injector = std::make_shared<FaultInjector>();
  injector->DropAfter(/*from=*/0, /*to=*/1, /*after=*/3, /*failures=*/1);
  testing::SimPlane plane(2);
  plane.mesh()->InstallFaultInjector(injector);

  ScanOptions options;
  options.window_batches = true;
  TableScan scan(&send_ctx, "scan", table, schema, options);
  ExchangeSender sender(&send_ctx, "xsend", schema, ExchangeMode::kForward,
                        {}, {plane.Edge(0, 1, channel)});
  scan.SetOutput(&sender);
  sender.BindSeqSource(&scan);

  ExchangeReceiver receiver(&recv_ctx, "xrecv", schema, channel);
  Sink sink(&recv_ctx, "sink", schema);
  receiver.SetOutput(&sink);
  std::thread recv_thread([&] { receiver.Run().CheckOK(); });

  // Attempt 1 dies on the 4th transmission (windows 0-2 delivered).
  const Status failed = scan.Run();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kUnavailable);

  // Recovery: reset, bump the epoch, replay from the scan.
  scan.ResetForReplay();
  sender.ResetForReplay();
  EXPECT_EQ(sender.epoch(), 1u);
  scan.Run().CheckOK();
  recv_thread.join();

  EXPECT_EQ(sink.num_rows(), kRows);  // nothing lost, nothing duplicated
  EXPECT_TRUE(sink.finished());
  EXPECT_EQ(receiver.batches_received(), 7);  // one per window
  EXPECT_EQ(receiver.batches_discarded(), 3);  // the replayed prefix
  std::vector<Tuple> rows = sink.TakeRows();
  std::sort(rows.begin(), rows.end(), [](const Tuple& a, const Tuple& b) {
    return a.at(0).AsInt64() < b.at(0).AsInt64();
  });
  for (int64_t k = 0; k < kRows; ++k) {
    EXPECT_EQ(rows[static_cast<size_t>(k)].at(0).AsInt64(), k);
  }
}

// Double restart: two faults, two resets, three epochs of the same sender.
// The receiver's per-sender high-water mark carries across epochs, so each
// replay is deduplicated against everything already passed downstream —
// the invariant that keeps consecutive failures (or a failure during a
// recovery) exact.
TEST(ExchangeTest, DoubleReplayAfterTwoResetsIsDeduplicatedExactly) {
  const Schema schema({Field{"t.k", TypeId::kInt64, 0}});
  auto table = std::make_shared<Table>("t", schema);
  constexpr int64_t kRows = 100;
  for (int64_t k = 0; k < kRows; ++k) {
    table->AppendRow(Tuple({Value::Int64(k)}));
  }

  ExecContext send_ctx, recv_ctx;
  send_ctx.set_batch_size(16);  // 7 windows
  auto channel = std::make_shared<ExchangeChannel>();
  channel->set_num_senders(1);

  auto injector = std::make_shared<FaultInjector>();
  // Attempt 1 dies on its 4th transmission (windows 0-2 delivered).
  // Attempt 2 replays from window 0 and dies on its 6th (the second spec
  // counts 3 consults during attempt 1 — the firing first spec returns
  // before it — plus 5 more during the replay): windows 3-4 are new,
  // 0-2 are dups. Attempt 3 runs clean: 0-4 dups, 5-6 new.
  injector->DropAfter(/*from=*/0, /*to=*/1, /*after=*/3, /*failures=*/1);
  injector->DropAfter(/*from=*/0, /*to=*/1, /*after=*/8, /*failures=*/1);
  testing::SimPlane plane(2);
  plane.mesh()->InstallFaultInjector(injector);

  ScanOptions options;
  options.window_batches = true;
  TableScan scan(&send_ctx, "scan", table, schema, options);
  ExchangeSender sender(&send_ctx, "xsend", schema, ExchangeMode::kForward,
                        {}, {plane.Edge(0, 1, channel)});
  scan.SetOutput(&sender);
  sender.BindSeqSource(&scan);

  ExchangeReceiver receiver(&recv_ctx, "xrecv", schema, channel);
  Sink sink(&recv_ctx, "sink", schema);
  receiver.SetOutput(&sink);
  std::thread recv_thread([&] { receiver.Run().CheckOK(); });

  for (int attempt = 0; attempt < 2; ++attempt) {
    const Status failed = scan.Run();
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.code(), StatusCode::kUnavailable);
    scan.ResetForReplay();
    sender.ResetForReplay();
  }
  EXPECT_EQ(sender.epoch(), 2u);
  scan.Run().CheckOK();
  recv_thread.join();

  EXPECT_EQ(sink.num_rows(), kRows);  // nothing lost, nothing duplicated
  EXPECT_TRUE(sink.finished());
  EXPECT_EQ(receiver.batches_received(), 7);   // one per window, ever
  EXPECT_EQ(receiver.batches_discarded(), 8);  // 3 dups in epoch 1, 5 in 2
  std::vector<Tuple> rows = sink.TakeRows();
  std::sort(rows.begin(), rows.end(), [](const Tuple& a, const Tuple& b) {
    return a.at(0).AsInt64() < b.at(0).AsInt64();
  });
  for (int64_t k = 0; k < kRows; ++k) {
    EXPECT_EQ(rows[static_cast<size_t>(k)].at(0).AsInt64(), k);
  }
}

// Protocol-level dedup: stale epochs are dropped regardless of
// replayability (the columnar stream decoder resets its dictionaries on an
// epoch bump, so a straggler's codes are meaningless), already-passed seqs
// of the current epoch are dropped, later seqs are accepted, and
// non-replayable frames of the current epoch bypass seq deduplication
// entirely (their seqs are informational).
TEST(ExchangeTest, ReceiverDropsStaleEpochsAndDuplicateSeqs) {
  const Schema schema = TwoIntSchema();
  ExecContext recv_ctx;
  auto channel = std::make_shared<ExchangeChannel>();
  channel->set_num_senders(1);

  const auto frame = [&](uint32_t epoch, uint64_t seq, bool replayable,
                         int64_t first_key) {
    return WireStreamEncoder().SerializeFrame(/*sender=*/0, epoch, seq,
                                              replayable,
                                              MakeBatch(first_key, 2));
  };
  // Epoch 0: windows 0 and 2 (gap = fully pruned window, legal).
  ASSERT_TRUE(channel->SendBatch(frame(0, 0, true, 0)));
  ASSERT_TRUE(channel->SendBatch(frame(0, 2, true, 10)));
  // Epoch 1 replay: windows 0 and 2 are duplicates, 3 is new.
  ASSERT_TRUE(channel->SendBatch(frame(1, 0, true, 0)));
  ASSERT_TRUE(channel->SendBatch(frame(1, 2, true, 10)));
  ASSERT_TRUE(channel->SendBatch(frame(1, 3, true, 20)));
  // A straggler from epoch 0, still queued at restart time: stale.
  ASSERT_TRUE(channel->SendBatch(frame(0, 7, true, 99)));
  // Non-replayable current-epoch frames with colliding seqs all pass.
  ASSERT_TRUE(channel->SendBatch(frame(1, 0, false, 30)));
  ASSERT_TRUE(channel->SendBatch(frame(1, 0, false, 40)));
  channel->SendFinish(/*slot=*/0);

  ExchangeReceiver receiver(&recv_ctx, "xrecv", schema, channel);
  Sink sink(&recv_ctx, "sink", schema);
  receiver.SetOutput(&sink);
  receiver.Run().CheckOK();

  EXPECT_EQ(receiver.batches_received(), 5);  // 0, 2, 3 + two arrival frames
  EXPECT_EQ(receiver.batches_discarded(), 3);
  EXPECT_EQ(sink.num_rows(), 10);
}

// A corrupt frame fails the receiver with an error — never a crash.
TEST(ExchangeTest, SlowConsumerNeverGrowsTheQueuePastItsByteCap) {
  // Regression: a producer outrunning a slow consumer must park on the
  // channel's byte cap, never accumulate an unbounded queue (OOM). The
  // frame cap is deliberately huge so the byte cap is what binds.
  constexpr size_t kMaxBytes = 64 << 10;
  constexpr size_t kFrameBytes = 8 << 10;
  constexpr int kFrames = 100;
  auto channel = std::make_shared<ExchangeChannel>(/*capacity=*/1 << 20,
                                                   kMaxBytes);
  channel->set_num_senders(1);

  double stalled = 0;
  std::thread producer([&] {
    for (int i = 0; i < kFrames; ++i) {
      EXPECT_TRUE(channel->SendBatch(std::string(kFrameBytes, 'x'),
                                     &stalled));
    }
    channel->SendFinish(/*slot=*/0);
  });

  size_t peak_bytes = 0;
  int received = 0;
  std::string bytes;
  while (channel->Receive(&bytes)) {
    peak_bytes = std::max(peak_bytes,
                          channel->queued_bytes() + bytes.size());
    ++received;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));  // slow
  }
  producer.join();

  EXPECT_EQ(received, kFrames);
  // The cap plus at most the one frame admitted at the boundary.
  EXPECT_LE(peak_bytes, kMaxBytes + kFrameBytes);
  EXPECT_GT(stalled, 0.0);  // the producer really was held back
}

TEST(ExchangeTest, OversizedFrameIsAdmittedAloneNotDeadlocked) {
  // A single frame larger than the byte cap must pass when the queue is
  // empty (stall, not deadlock) and still count toward backpressure.
  constexpr size_t kMaxBytes = 4 << 10;
  auto channel = std::make_shared<ExchangeChannel>(/*capacity=*/8,
                                                   kMaxBytes);
  channel->set_num_senders(1);

  std::thread producer([&] {
    EXPECT_TRUE(channel->SendBatch(std::string(3 * kMaxBytes, 'y')));
    EXPECT_TRUE(channel->SendBatch("after"));  // blocks until the drain
    channel->SendFinish(/*slot=*/0);
  });

  std::string bytes;
  ASSERT_TRUE(channel->Receive(&bytes));
  EXPECT_EQ(bytes.size(), 3 * kMaxBytes);
  ASSERT_TRUE(channel->Receive(&bytes));
  EXPECT_EQ(bytes, "after");
  EXPECT_FALSE(channel->Receive(&bytes));  // end of stream
  producer.join();
}

TEST(ExchangeTest, ReceiverErrorsOnCorruptFrame) {
  const Schema schema = TwoIntSchema();
  ExecContext recv_ctx;
  auto channel = std::make_shared<ExchangeChannel>();
  channel->set_num_senders(1);
  ASSERT_TRUE(channel->SendBatch("definitely not a frame"));
  channel->SendFinish(/*slot=*/0);
  ExchangeReceiver receiver(&recv_ctx, "xrecv", schema, channel);
  const Status st = receiver.Run();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

// A checkpoint blob whose held frame claims a payload of nearly 2^64 bytes
// must fail the restore, not wrap the length check and abort on allocation.
TEST(ExchangeTest, RestoreReplayStateRejectsHugeHeldFrameLength) {
  std::string blob;
  serde::AppendU32(0, &blob);  // no per-sender progress
  serde::AppendU64(1, &blob);  // one held frame
  serde::AppendU32(0, &blob);  // its sender
  serde::AppendU64(0, &blob);  // its seq
  serde::AppendU64(UINT64_MAX - 7, &blob);  // its payload length
  blob.append(8, 'x');
  ExecContext ctx;
  ExchangeReceiver receiver(&ctx, "xrecv", TwoIntSchema(),
                            std::make_shared<ExchangeChannel>());
  EXPECT_FALSE(receiver.RestoreReplayState(blob).ok());
}

}  // namespace
}  // namespace pushsip
