// Transport conformance: one parameterized battery asserting the contract
// both backends must honor — connect, per-sender ordered delivery,
// concurrent senders, half-close (finish) semantics, AIP filter shipment,
// flow-control boundedness under a slow consumer, replay deduplication
// through a real ExchangeReceiver (on TCP, across an actual connection
// kill + reconnect), and streams refusing to continue on a replacement
// connection until rewound. A query wired for one backend must behave
// identically on the other; this suite is the executable form of that
// promise.
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dist/exchange.h"
#include "exec/sink.h"
#include "net/mesh.h"
#include "net/transport/sim_transport.h"
#include "net/transport/tcp_transport.h"
#include "net/transport/transport.h"
#include "net/wire_format.h"
#include "tests/testing/batch_builder.h"
#include "util/bloom_filter.h"

namespace pushsip {
namespace {

constexpr int kSites = 3;

Schema TwoIntSchema() {
  return Schema({Field{"t.k", TypeId::kInt64, 0},
                 Field{"t.v", TypeId::kInt64, 1}});
}

Batch MakeBatch(int64_t first_key, int64_t count) {
  std::vector<std::pair<int64_t, int64_t>> rows;
  for (int64_t i = 0; i < count; ++i) rows.push_back({first_key + i, i});
  return testing::MakePairBatch(rows);
}

class TransportConformanceTest
    : public ::testing::TestWithParam<const char*> {
 protected:
  bool IsTcp() const { return std::string(GetParam()) == "tcp"; }

  void SetUp() override {
    if (IsTcp()) {
      std::vector<TcpPeer> all;
      for (int s = 0; s < kSites; ++s) {
        TcpTransportOptions opts;
        opts.local_site = s;
        opts.num_sites = kSites;
        opts.credit_window = 8;  // small, so flow control actually engages
        opts.dial_timeout_sec = 10;
        auto t = std::make_shared<TcpTransport>(opts);
        ASSERT_TRUE(t->Listen().ok());
        all.push_back({s, "127.0.0.1", t->listen_port()});
        tcp_.push_back(t);
        transports_.push_back(t);
      }
      for (int s = 0; s < kSites; ++s) {
        std::vector<TcpPeer> others;
        for (const TcpPeer& p : all) {
          if (p.site != s) others.push_back(p);
        }
        tcp_[s]->SetPeers(others);
      }
    } else {
      auto mesh = std::make_shared<SiteMesh>(kSites, 1e12, 0);
      auto cluster = std::make_shared<SimCluster>(mesh);
      for (int s = 0; s < kSites; ++s) {
        transports_.push_back(std::make_shared<SimTransport>(cluster, s));
      }
    }
    for (auto& t : transports_) ASSERT_TRUE(t->Start().ok());
  }

  void TearDown() override {
    for (auto& t : transports_) t->Shutdown();
  }

  std::vector<std::shared_ptr<Transport>> transports_;
  std::vector<std::shared_ptr<TcpTransport>> tcp_;  // tcp runs only
};

TEST_P(TransportConformanceTest, ReportsBackendAndTopology) {
  for (int s = 0; s < kSites; ++s) {
    EXPECT_STREQ(transports_[s]->backend(), GetParam());
    EXPECT_EQ(transports_[s]->local_site(), s);
    EXPECT_EQ(transports_[s]->num_sites(), kSites);
  }
}

TEST_P(TransportConformanceTest, RejectsLocalAndOutOfRangeEdges) {
  EXPECT_FALSE(transports_[1]->OpenChannel(1, 1).ok());    // local edge
  EXPECT_FALSE(transports_[1]->OpenChannel(1, -1).ok());   // no such site
  EXPECT_FALSE(transports_[1]->OpenChannel(1, kSites).ok());
}

TEST_P(TransportConformanceTest, DeliversOneSenderInOrder) {
  auto channel = std::make_shared<ExchangeChannel>();
  channel->set_num_senders(1);
  channel->set_consumer_site(0);
  ASSERT_TRUE(transports_[0]->BindChannel(7, channel).ok());
  auto sender = transports_[1]->OpenChannel(7, 0);
  ASSERT_TRUE(sender.ok()) << sender.status().ToString();

  constexpr int kFrames = 50;
  std::thread producer([&] {
    for (int i = 0; i < kFrames; ++i) {
      const Status st =
          (*sender)->SendFrame("frame-" + std::to_string(i), nullptr,
                               nullptr);
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
    EXPECT_TRUE((*sender)->SendFinish().ok());
  });

  std::vector<std::string> got;
  std::string bytes;
  while (channel->Receive(&bytes)) got.push_back(bytes);
  producer.join();

  ASSERT_EQ(got.size(), static_cast<size_t>(kFrames));
  for (int i = 0; i < kFrames; ++i) {
    EXPECT_EQ(got[i], "frame-" + std::to_string(i));
  }
  EXPECT_GT((*sender)->bytes_sent(), 0);
}

TEST_P(TransportConformanceTest, ConcurrentSendersKeepPerSenderOrder) {
  auto channel = std::make_shared<ExchangeChannel>();
  channel->set_num_senders(kSites - 1);
  channel->set_consumer_site(0);
  ASSERT_TRUE(transports_[0]->BindChannel(3, channel).ok());

  constexpr int kFrames = 30;
  std::vector<std::thread> producers;
  for (int s = 1; s < kSites; ++s) {
    producers.emplace_back([&, s] {
      auto sender = transports_[s]->OpenChannel(3, 0);
      ASSERT_TRUE(sender.ok());
      for (int i = 0; i < kFrames; ++i) {
        const std::string payload =
            std::to_string(s) + ":" + std::to_string(i);
        EXPECT_TRUE((*sender)->SendFrame(payload, nullptr, nullptr).ok());
      }
      EXPECT_TRUE((*sender)->SendFinish().ok());
    });
  }

  std::vector<int> next(kSites, 0);
  std::string bytes;
  int total = 0;
  while (channel->Receive(&bytes)) {
    const size_t colon = bytes.find(':');
    ASSERT_NE(colon, std::string::npos);
    const int site = std::stoi(bytes.substr(0, colon));
    const int seq = std::stoi(bytes.substr(colon + 1));
    // Interleave across senders is free; within a sender, order holds.
    EXPECT_EQ(seq, next[site]) << "sender " << site;
    next[site] = seq + 1;
    ++total;
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(total, (kSites - 1) * kFrames);
  for (int s = 1; s < kSites; ++s) EXPECT_EQ(next[s], kFrames);
}

TEST_P(TransportConformanceTest, FinishWithoutDataClosesTheStream) {
  auto channel = std::make_shared<ExchangeChannel>();
  channel->set_num_senders(2);
  channel->set_consumer_site(0);
  ASSERT_TRUE(transports_[0]->BindChannel(11, channel).ok());

  auto quiet = transports_[1]->OpenChannel(11, 0);
  auto chatty = transports_[2]->OpenChannel(11, 0);
  ASSERT_TRUE(quiet.ok());
  ASSERT_TRUE(chatty.ok());

  // Half-close: site 1 finishes immediately, site 2 sends one frame. The
  // receiver must see exactly that frame, then end-of-stream — not before
  // both finishes arrive.
  ASSERT_TRUE((*quiet)->SendFinish().ok());
  ASSERT_TRUE((*chatty)->SendFrame("only", nullptr, nullptr).ok());

  std::string bytes;
  ASSERT_EQ(channel->Receive(&bytes, std::chrono::milliseconds(5000)),
            ExchangeChannel::RecvStatus::kMessage);
  EXPECT_EQ(bytes, "only");
  // One finish outstanding: the stream must NOT be over yet.
  EXPECT_EQ(channel->Receive(&bytes, std::chrono::milliseconds(50)),
            ExchangeChannel::RecvStatus::kTimeout);
  ASSERT_TRUE((*chatty)->SendFinish().ok());
  EXPECT_EQ(channel->Receive(&bytes, std::chrono::milliseconds(5000)),
            ExchangeChannel::RecvStatus::kEndOfStream);
}

TEST_P(TransportConformanceTest, ShipsFiltersToTheHandler) {
  std::atomic<bool> delivered{false};
  std::string got_label;
  AttrId got_attr = kInvalidAttr;
  BloomFilter got_filter{16};
  transports_[2]->SetFilterHandler(
      [&](const std::string& label, AttrId attr, BloomFilter filter) {
        got_label = label;
        got_attr = attr;
        got_filter = std::move(filter);
        delivered.store(true);
      });

  BloomFilter filter(1024);
  for (uint64_t key : {1u, 22u, 333u}) filter.Insert(key);
  auto seconds = transports_[0]->ShipFilter(2, "aip:part.p_partkey",
                                            AttrId{5}, filter);
  ASSERT_TRUE(seconds.ok()) << seconds.status().ToString();

  // TCP delivery is asynchronous (the peer's loop thread); poll briefly.
  for (int i = 0; i < 500 && !delivered.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(delivered.load());
  EXPECT_EQ(got_label, "aip:part.p_partkey");
  EXPECT_EQ(got_attr, AttrId{5});
  for (uint64_t key : {1u, 22u, 333u}) {
    EXPECT_TRUE(got_filter.MightContain(key));
  }
  // Shipping toward the local site is a caller bug on either backend.
  EXPECT_FALSE(transports_[0]->ShipFilter(0, "x", AttrId{1}, filter).ok());
}

TEST_P(TransportConformanceTest, SlowConsumerStaysBoundedAndStallsSender) {
  // The receiver's queue must stay bounded by the backend's flow-control
  // budget — the sim's channel caps, TCP's credit window (both 8 here) —
  // no matter how fast the producer pushes, and the sender must account
  // the wait as stall time.
  auto channel = std::make_shared<ExchangeChannel>(/*capacity=*/8);
  channel->set_num_senders(1);
  channel->set_consumer_site(0);
  ASSERT_TRUE(transports_[0]->BindChannel(21, channel).ok());
  auto sender = transports_[1]->OpenChannel(21, 0);
  ASSERT_TRUE(sender.ok());

  constexpr int kFrames = 64;
  const std::string payload(4096, 'd');
  std::thread producer([&] {
    for (int i = 0; i < kFrames; ++i) {
      EXPECT_TRUE((*sender)->SendFrame(payload, nullptr, nullptr).ok());
    }
    EXPECT_TRUE((*sender)->SendFinish().ok());
  });

  size_t peak_frames = 0;
  int received = 0;
  std::string bytes;
  while (channel->Receive(&bytes)) {
    peak_frames = std::max(peak_frames, channel->queued_frames() + 1);
    ++received;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));  // slow
  }
  producer.join();

  EXPECT_EQ(received, kFrames);
  // Window 8 plus slack for a frame in flight between dequeue and grant.
  EXPECT_LE(peak_frames, 12u);
  EXPECT_GT((*sender)->stall_seconds(), 0.0);
}

TEST_P(TransportConformanceTest, ReplayAfterReconnectIsDeduplicated) {
  // The PR 3 failure protocol end to end over a real transport edge: a
  // replayable producer streams BatchFrames, the connection dies (TCP: an
  // actual socket kill; sim: nothing to kill — the replay alone), Heal()
  // reconnects, and a full replay from seq 0 reaches a real
  // ExchangeReceiver whose epoch/seq high-water dedup keeps the output
  // exact.
  auto channel = std::make_shared<ExchangeChannel>();
  channel->set_num_senders(1);
  channel->set_consumer_site(0);
  ASSERT_TRUE(transports_[0]->BindChannel(13, channel).ok());
  auto sender = transports_[1]->OpenChannel(13, 0);
  ASSERT_TRUE(sender.ok());

  ExecContext recv_ctx;
  ExchangeReceiver receiver(&recv_ctx, "xrecv", TwoIntSchema(), channel);
  Sink sink(&recv_ctx, "sink", TwoIntSchema());
  receiver.SetOutput(&sink);
  std::thread recv_thread([&] { receiver.Run().CheckOK(); });

  constexpr int kBatches = 10;
  constexpr int kRowsPerBatch = 4;
  // A fresh stream encoder's first frame is self-contained, so each frame
  // decodes on its own, whichever attempt delivers it.
  auto frame = [&](int seq) {
    return WireStreamEncoder().SerializeFrame(
        /*sender=*/0, /*epoch=*/0, static_cast<uint64_t>(seq),
        /*replayable=*/true, MakeBatch(seq * kRowsPerBatch, kRowsPerBatch));
  };

  // First attempt delivers the first half.
  for (int seq = 0; seq < kBatches / 2; ++seq) {
    ASSERT_TRUE((*sender)->SendFrame(frame(seq), nullptr, nullptr).ok());
  }

  if (IsTcp()) {
    // Sever every socket of site 1. The next send must fail with
    // kUnavailable — the restart signal — until both sides heal.
    tcp_[1]->KillConnections();
    Status st = Status::OK();
    for (int i = 0; i < 50 && st.ok(); ++i) {
      st = (*sender)->SendFrame(frame(0), nullptr, nullptr);
    }
    ASSERT_EQ(st.code(), StatusCode::kUnavailable) << st.ToString();
    ASSERT_TRUE(tcp_[1]->Heal().ok());
    EXPECT_GT(tcp_[1]->reconnects(), 0);
  }

  // The replay: the restarted fragment re-produces the whole stream under
  // its original seqs, then runs to completion.
  for (int seq = 0; seq < kBatches; ++seq) {
    ASSERT_TRUE((*sender)->SendFrame(frame(seq), nullptr, nullptr).ok());
  }
  ASSERT_TRUE((*sender)->SendFinish().ok());
  recv_thread.join();

  // Exactly one copy of every row, despite the duplicated prefix (and, on
  // TCP, whatever the kill dropped mid-flight).
  EXPECT_EQ(sink.num_rows(), kBatches * kRowsPerBatch);
  std::vector<int64_t> keys;
  for (const Tuple& t : sink.rows()) keys.push_back(t.at(0).AsInt64());
  std::sort(keys.begin(), keys.end());
  for (int i = 0; i < kBatches * kRowsPerBatch; ++i) {
    ASSERT_EQ(keys[static_cast<size_t>(i)], i);
  }
  EXPECT_GT(receiver.batches_discarded(), 0);
}

// A stream must not continue silently on a replacement connection: the
// frames it left in the dead socket may be lost. Here site 1 kills and
// heals its own sockets between sends, as a fragment restart elsewhere on
// the site would. After a Rewind (the replay) the stream may use the new
// connection; without one, its next send fails with kUnavailable, and the
// failure releases it for the replay that follows.
TEST_P(TransportConformanceTest, ReplacedConnectionFailsTheStreamUntilRewind) {
  auto channel = std::make_shared<ExchangeChannel>();
  channel->set_num_senders(1);
  channel->set_consumer_site(0);
  ASSERT_TRUE(transports_[0]->BindChannel(9, channel).ok());
  auto sender = transports_[1]->OpenChannel(9, 0);
  ASSERT_TRUE(sender.ok()) << sender.status().ToString();
  const auto sever = [&] {
    if (!IsTcp()) return;
    tcp_[1]->KillConnections();
    ASSERT_TRUE(tcp_[1]->Heal().ok());
  };

  ASSERT_TRUE((*sender)->SendFrame("first", nullptr, nullptr).ok());
  sever();
  (*sender)->Rewind();
  ASSERT_TRUE((*sender)->SendFrame("replayed", nullptr, nullptr).ok());
  sever();
  if (IsTcp()) {
    EXPECT_EQ((*sender)->SendFrame("gap", nullptr, nullptr).code(),
              StatusCode::kUnavailable);
  }
  EXPECT_TRUE((*sender)->SendFrame("replayed", nullptr, nullptr).ok());
  EXPECT_TRUE((*sender)->SendFinish().ok());
}

INSTANTIATE_TEST_SUITE_P(Backends, TransportConformanceTest,
                         ::testing::Values("sim", "tcp"),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           return std::string(i.param);
                         });

}  // namespace
}  // namespace pushsip
