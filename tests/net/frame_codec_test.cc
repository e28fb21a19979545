// Hardening property tests for the transport frame codec: arbitrary TCP
// segmentation (split / coalesced feeds) reassembles exactly, truncation
// waits for more bytes, and corrupt input — bad lengths, unknown kinds,
// random bit-flips — poisons the decoder with an error status. It must
// never crash, over-read, or emit a frame it was not fed.
#include "net/transport/frame_codec.h"

#include <random>
#include <vector>

#include <gtest/gtest.h>

namespace pushsip {
namespace {

std::vector<TransportMsg> SampleMessages() {
  std::vector<TransportMsg> msgs;
  TransportHello hello;
  hello.site = 3;
  hello.window = 64;
  msgs.push_back({TransportMsgKind::kHello, 0, EncodeHello(hello)});
  msgs.push_back(
      {TransportMsgKind::kData, 17, std::string("batch\x00\x01\xff-bytes", 14)});
  msgs.push_back({TransportMsgKind::kData, 0xffffffffu, std::string(3000, 'x')});
  msgs.push_back({TransportMsgKind::kFinish, 2, ""});
  msgs.push_back({TransportMsgKind::kCredit, 9, EncodeCredit(16)});
  msgs.push_back({TransportMsgKind::kFilter, 0, std::string(257, '\xab')});
  return msgs;
}

std::string EncodeAll(const std::vector<TransportMsg>& msgs) {
  std::string stream;
  for (const TransportMsg& m : msgs) AppendTransportMsg(m, &stream);
  return stream;
}

void ExpectDecodesTo(TransportFrameDecoder& dec,
                     const std::vector<TransportMsg>& want) {
  for (size_t i = 0; i < want.size(); ++i) {
    TransportMsg got;
    auto r = dec.Next(&got);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(*r) << "message " << i << " missing";
    EXPECT_EQ(got.kind, want[i].kind);
    EXPECT_EQ(got.channel, want[i].channel);
    EXPECT_EQ(got.payload, want[i].payload);
  }
  TransportMsg extra;
  auto r = dec.Next(&extra);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r) << "decoder produced a message it was never fed";
}

TEST(FrameCodecTest, CoalescedFeedRoundTrips) {
  const auto msgs = SampleMessages();
  const std::string stream = EncodeAll(msgs);
  TransportFrameDecoder dec;
  dec.Feed(stream.data(), stream.size());
  ExpectDecodesTo(dec, msgs);
  EXPECT_EQ(dec.buffered_bytes(), 0u);
}

TEST(FrameCodecTest, ByteAtATimeFeedRoundTrips) {
  const auto msgs = SampleMessages();
  const std::string stream = EncodeAll(msgs);
  TransportFrameDecoder dec;
  std::vector<TransportMsg> got;
  for (const char c : stream) {
    dec.Feed(&c, 1);
    TransportMsg m;
    auto r = dec.Next(&m);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    if (*r) got.push_back(std::move(m));
  }
  ASSERT_EQ(got.size(), msgs.size());
  for (size_t i = 0; i < msgs.size(); ++i) {
    EXPECT_EQ(got[i].kind, msgs[i].kind);
    EXPECT_EQ(got[i].channel, msgs[i].channel);
    EXPECT_EQ(got[i].payload, msgs[i].payload);
  }
}

TEST(FrameCodecTest, RandomSplitsRoundTrip) {
  const auto msgs = SampleMessages();
  const std::string stream = EncodeAll(msgs);
  std::mt19937 rng(42);
  for (int trial = 0; trial < 100; ++trial) {
    TransportFrameDecoder dec;
    std::vector<TransportMsg> got;
    size_t pos = 0;
    while (pos < stream.size()) {
      const size_t n = std::min<size_t>(
          stream.size() - pos,
          1 + rng() % 512);  // 1..512-byte segments
      dec.Feed(stream.data() + pos, n);
      pos += n;
      TransportMsg m;
      for (;;) {
        auto r = dec.Next(&m);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        if (!*r) break;
        got.push_back(m);
      }
    }
    ASSERT_EQ(got.size(), msgs.size()) << "trial " << trial;
    for (size_t i = 0; i < msgs.size(); ++i) {
      EXPECT_EQ(got[i].payload, msgs[i].payload) << "trial " << trial;
    }
  }
}

TEST(FrameCodecTest, TruncatedFrameWaitsForTheRest) {
  const TransportMsg msg{TransportMsgKind::kData, 5, std::string(100, 'p')};
  const std::string stream = EncodeTransportMsg(msg);
  // Every proper prefix decodes to "need more bytes", never an error and
  // never a message.
  for (size_t cut = 0; cut < stream.size(); ++cut) {
    TransportFrameDecoder dec;
    dec.Feed(stream.data(), cut);
    TransportMsg out;
    auto r = dec.Next(&out);
    ASSERT_TRUE(r.ok()) << "prefix " << cut << ": " << r.status().ToString();
    EXPECT_FALSE(*r) << "prefix " << cut << " produced a message";
    // The remaining bytes complete the frame.
    dec.Feed(stream.data() + cut, stream.size() - cut);
    auto r2 = dec.Next(&out);
    ASSERT_TRUE(r2.ok());
    ASSERT_TRUE(*r2);
    EXPECT_EQ(out.payload, msg.payload);
  }
}

TEST(FrameCodecTest, UndersizedLengthPoisons) {
  // frame_len < kind + channel can never be a frame.
  const std::string bad("\x03\x00\x00\x00\x02\x00\x00\x00\x00", 9);
  TransportFrameDecoder dec;
  dec.Feed(bad.data(), bad.size());
  TransportMsg out;
  auto r = dec.Next(&out);
  ASSERT_FALSE(r.ok());
  // Poisoned: even a valid follow-up frame fails (the caller must drop the
  // connection — resynchronizing inside a corrupt stream is hopeless).
  const std::string good =
      EncodeTransportMsg({TransportMsgKind::kFinish, 1, ""});
  dec.Feed(good.data(), good.size());
  EXPECT_FALSE(dec.Next(&out).ok());
}

TEST(FrameCodecTest, OversizedLengthPoisonsWithoutBuffering) {
  TransportFrameDecoder dec(/*max_frame_bytes=*/1024);
  // Claims a 256 MiB frame; the decoder must reject it from the 4-byte
  // header alone instead of waiting to buffer it.
  const std::string header("\x00\x00\x00\x10\x02", 5);
  dec.Feed(header.data(), header.size());
  TransportMsg out;
  auto r = dec.Next(&out);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_LT(dec.buffered_bytes(), 1024u);
}

TEST(FrameCodecTest, UnknownKindPoisons) {
  for (const uint8_t kind : {uint8_t{0}, uint8_t{6}, uint8_t{0xff}}) {
    std::string frame("\x05\x00\x00\x00", 4);
    frame.push_back(static_cast<char>(kind));
    frame.append("\x00\x00\x00\x00", 4);
    TransportFrameDecoder dec;
    dec.Feed(frame.data(), frame.size());
    TransportMsg out;
    auto r = dec.Next(&out);
    ASSERT_FALSE(r.ok()) << "kind " << int(kind) << " was accepted";
  }
}

TEST(FrameCodecTest, SingleBitFlipsNeverCrashOrOverRead) {
  const auto msgs = SampleMessages();
  const std::string stream = EncodeAll(msgs);
  size_t total_payload = 0;
  for (const TransportMsg& m : msgs) total_payload += m.payload.size();
  // Flip one bit at every position of the stream. The decoder may emit
  // messages up to the corruption point and may (bit-flips inside a
  // payload are invisible to framing) decode everything; what it must
  // never do is crash, loop, emit more frames than were fed, or keep
  // going after reporting an error.
  for (size_t byte = 0; byte < stream.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = stream;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      TransportFrameDecoder dec(64u << 20);
      dec.Feed(corrupt.data(), corrupt.size());
      size_t produced = 0, payload_bytes = 0;
      bool errored = false;
      TransportMsg out;
      for (;;) {
        auto r = dec.Next(&out);
        if (!r.ok()) {
          errored = true;
          // Stays poisoned.
          EXPECT_FALSE(dec.Next(&out).ok());
          break;
        }
        if (!*r) break;
        ++produced;
        payload_bytes += out.payload.size();
        // The smallest legal frame is 9 bytes (length + kind + channel),
        // so even a maliciously re-segmented stream caps the frame count.
        ASSERT_LE(produced, corrupt.size() / 9 + 1)
            << "byte " << byte << " bit " << bit
            << ": more frames out than the bytes could hold";
      }
      // A length-field flip can re-segment the stream, but a decoded
      // payload can never exceed the bytes that exist.
      EXPECT_LE(payload_bytes, corrupt.size())
          << "byte " << byte << " bit " << bit;
      (void)errored;  // either outcome is legal; the invariants above hold
    }
  }
}

TEST(FrameCodecTest, HelloRoundTripsAndRejectsGarbage) {
  TransportHello hello;
  hello.site = 12;
  hello.window = 1024;
  const std::string wire = EncodeHello(hello);
  ASSERT_EQ(wire.size(), 16u);
  auto back = DecodeHello(wire);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->site, 12);
  EXPECT_EQ(back->window, 1024u);

  EXPECT_FALSE(DecodeHello(wire.substr(0, wire.size() - 1)).ok());
  EXPECT_FALSE(DecodeHello(wire + "x").ok());
  EXPECT_FALSE(DecodeHello("").ok());
  std::string bad_magic = wire;
  bad_magic[0] = 'X';
  EXPECT_FALSE(DecodeHello(bad_magic).ok());
  // A peer speaking another protocol number is refused, whatever it is.
  for (const uint32_t protocol : {0u, 1u, kTransportProtocol + 1, ~0u}) {
    std::string other = wire;
    for (int i = 0; i < 4; ++i) {
      other[4 + i] = static_cast<char>(protocol >> (8 * i));
    }
    EXPECT_FALSE(DecodeHello(other).ok()) << "protocol " << protocol;
  }
  // The old 17-byte layout (protocol 1 plus a trailing wire-version
  // bitmask) is refused.
  std::string old_layout = wire;
  old_layout[4] = 1;
  old_layout.push_back(static_cast<char>(0x6));
  ASSERT_EQ(old_layout.size(), 17u);
  EXPECT_FALSE(DecodeHello(old_layout).ok());
  TransportHello negative;
  negative.site = -2;
  EXPECT_FALSE(DecodeHello(EncodeHello(negative)).ok());
}

TEST(FrameCodecTest, CreditRoundTripsAndRejectsGarbage) {
  auto back = DecodeCredit(EncodeCredit(12345));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, 12345u);
  EXPECT_FALSE(DecodeCredit("").ok());
  EXPECT_FALSE(DecodeCredit("abc").ok());
  EXPECT_FALSE(DecodeCredit("abcde").ok());
}

TEST(FrameCodecTest, BufferCompactionKeepsMemoryBounded) {
  // Stream 10k frames through one decoder; the internal buffer must stay
  // near one frame's size, not accumulate the whole history.
  TransportFrameDecoder dec;
  const std::string frame =
      EncodeTransportMsg({TransportMsgKind::kData, 1, std::string(1000, 'z')});
  TransportMsg out;
  for (int i = 0; i < 10000; ++i) {
    dec.Feed(frame.data(), frame.size());
    auto r = dec.Next(&out);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(*r);
    EXPECT_EQ(dec.buffered_bytes(), 0u);
  }
}

}  // namespace
}  // namespace pushsip
