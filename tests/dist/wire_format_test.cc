// Serialize -> deserialize round-trip property tests for the cross-site
// wire format, seeded via PUSHSIP_TEST_SEED.
#include "net/wire_format.h"

#include <gtest/gtest.h>

#include "dist/multi_process.h"
#include "tests/testing/test_rng.h"

namespace pushsip {
namespace {

using testing::SeededRandom;
using testing::TestSeed;

Value RandomValue(Random* rng, int type_pick) {
  switch (type_pick) {
    case 0: return Value::Null();
    case 1: return Value::Int64(static_cast<int64_t>(rng->NextUint64()));
    case 2: return Value::Double(rng->UniformDouble() * 1e9 - 5e8);
    case 3: return Value::Date(rng->UniformInt(0, 20000));
    default: {
      // Strings with arbitrary bytes, including NULs and empties.
      const int len = static_cast<int>(rng->UniformInt(0, 40));
      std::string s;
      for (int i = 0; i < len; ++i) {
        s.push_back(static_cast<char>(rng->UniformInt(0, 256)));
      }
      return Value::String(std::move(s));
    }
  }
}

/// A random rectangular batch: one type pick per column, occasional NULLs
/// and type flips inside a column (flips degrade that column to the
/// variant fallback, exercising the kColMixed wire path).
Batch RandomBatch(Random* rng, int rows, int arity) {
  Batch batch;
  batch.SetArity(static_cast<size_t>(arity));
  std::vector<int> col_type(static_cast<size_t>(arity));
  for (int& t : col_type) t = static_cast<int>(rng->UniformInt(0, 5));
  for (int r = 0; r < rows; ++r) {
    std::vector<Value> values;
    values.reserve(static_cast<size_t>(arity));
    for (int c = 0; c < arity; ++c) {
      int pick = col_type[static_cast<size_t>(c)];
      if (rng->UniformInt(0, 8) == 0) {
        pick = static_cast<int>(rng->UniformInt(0, 5));
      }
      values.push_back(RandomValue(rng, pick));
    }
    batch.AppendRow(values);
  }
  return batch;
}

void ExpectSameContent(const Batch& got, const Batch& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t r = 0; r < want.size(); ++r) {
    for (size_t c = 0; c < want.num_cols(); ++c) {
      const Value w = want.ValueAt(r, c);
      const Value g = got.ValueAt(r, c);
      EXPECT_EQ(g.type(), w.type()) << "row " << r << " col " << c;
      EXPECT_EQ(g.Compare(w), 0) << "row " << r << " col " << c;
    }
  }
}

TEST(WireFormatTest, BatchRoundTripProperty) {
  PUSHSIP_SEED_TRACE(TestSeed());
  Random rng = SeededRandom(1);
  for (int round = 0; round < 50; ++round) {
    const int arity = static_cast<int>(rng.UniformInt(1, 8));
    const int rows = static_cast<int>(rng.UniformInt(0, 20));
    Batch batch = RandomBatch(&rng, rows, arity);

    const std::string bytes = SerializeBatch(batch);
    auto decoded = DeserializeBatch(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ASSERT_EQ(decoded->size(), batch.size());
    ExpectSameContent(*decoded, batch);
  }
}

TEST(WireFormatTest, EmptyBatch) {
  const std::string bytes = SerializeBatch(Batch{});
  auto decoded = DeserializeBatch(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->empty());
}

TEST(WireFormatTest, NullAndStringColumns) {
  Batch batch;
  batch.SetArity(4);
  batch.AppendRow(std::vector<Value>{Value::Null(), Value::String(""),
                                     Value::String(std::string("a\0b", 3)),
                                     Value::Int64(-1)});
  auto decoded = DeserializeBatch(SerializeBatch(batch));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->ValueAt(0, 0).is_null());
  EXPECT_EQ(decoded->ValueAt(0, 1).AsString(), "");
  EXPECT_EQ(decoded->ValueAt(0, 2).AsString(), std::string("a\0b", 3));
  EXPECT_EQ(decoded->ValueAt(0, 3).AsInt64(), -1);
}

TEST(WireFormatTest, BatchRejectsGarbageAndTruncation) {
  PUSHSIP_SEED_TRACE(TestSeed());
  Random rng = SeededRandom(2);
  Batch batch;
  batch.SetArity(2);
  for (int r = 0; r < 5; ++r) {
    batch.AppendRow(
        std::vector<Value>{Value::Int64(r), Value::String("abcdef")});
  }
  const std::string bytes = SerializeBatch(batch);
  EXPECT_FALSE(DeserializeBatch("").ok());
  EXPECT_FALSE(DeserializeBatch("XY" + bytes.substr(2)).ok());
  for (int i = 0; i < 20; ++i) {
    const size_t cut = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(bytes.size()) - 1));
    EXPECT_FALSE(DeserializeBatch(bytes.substr(0, cut)).ok())
        << "cut at " << cut;
  }
  // Trailing garbage is rejected, too.
  EXPECT_FALSE(DeserializeBatch(bytes + "x").ok());
}

TEST(WireFormatTest, BatchFrameRoundTripProperty) {
  PUSHSIP_SEED_TRACE(TestSeed());
  Random rng = SeededRandom(7);
  for (int round = 0; round < 50; ++round) {
    BatchFrame frame;
    frame.sender = static_cast<uint32_t>(rng.NextUint64());
    frame.epoch = static_cast<uint32_t>(rng.NextUint64());
    frame.seq = rng.NextUint64();
    frame.replayable = rng.UniformInt(0, 2) == 1;
    const int arity = static_cast<int>(rng.UniformInt(1, 6));
    const int rows = static_cast<int>(rng.UniformInt(0, 12));
    frame.batch = RandomBatch(&rng, rows, arity);

    auto decoded = WireStreamDecoder().DecodeFrame(
        WireStreamEncoder().SerializeFrame(frame.sender, frame.epoch,
                                           frame.seq, frame.replayable,
                                           frame.batch));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->sender, frame.sender);
    EXPECT_EQ(decoded->epoch, frame.epoch);
    EXPECT_EQ(decoded->seq, frame.seq);
    EXPECT_EQ(decoded->replayable, frame.replayable);
    ExpectSameContent(decoded->batch, frame.batch);
  }
}

/// Decodes `input` at a fresh stream decoder that first decoded `seen`.
Result<BatchFrame> DecodeAfter(const std::vector<std::string>& seen,
                               const std::string& input) {
  WireStreamDecoder decoder;
  for (const std::string& frame : seen) {
    EXPECT_TRUE(decoder.DecodeFrame(frame).ok());
  }
  return decoder.DecodeFrame(input);
}

/// At a decoder primed with `seen`, every truncation of `bytes` and a
/// trailing byte must fail, and every single-bit flip must either fail or
/// decode into a batch no larger than its input (flips inside fixed-width
/// payload values are indistinguishable from data).
void ExpectFrameFailsClosed(const std::vector<std::string>& seen,
                            const std::string& bytes) {
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(DecodeAfter(seen, bytes.substr(0, cut)).ok())
        << "cut at " << cut;
  }
  EXPECT_FALSE(DecodeAfter(seen, bytes + "x").ok());
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = bytes;
      corrupt[pos] = static_cast<char>(corrupt[pos] ^ (1 << bit));
      auto decoded = DecodeAfter(seen, corrupt);  // must not crash
      if (decoded.ok()) {
        EXPECT_LE(decoded->batch.size(), corrupt.size())
            << "byte " << pos << " bit " << bit;
      }
    }
  }
}

// The receiver decodes whatever a (faulty) link delivered: every
// truncation and every single-bit corruption of a frame must produce an
// error Status or a self-consistent frame — never a crash, hang, or
// over-read. Covers a stream's self-contained first frame and a
// continuation frame (stream dictionary base > 0), the latter both at a
// decoder that saw the first frame and at one that missed it.
TEST(WireFormatTest, BatchFrameRejectsTruncationAndCorruption) {
  const auto make_batch = [](int first, const char* extra) {
    Batch batch;
    batch.SetArity(3);
    for (int r = first; r < first + 6; ++r) {
      batch.AppendRow(std::vector<Value>{
          Value::Int64(r), Value::String(r % 2 ? "payload" : extra),
          Value::Null()});
    }
    return batch;
  };
  WireStreamEncoder encoder;
  const std::string first = encoder.SerializeFrame(
      /*sender=*/3, /*epoch=*/2, /*seq=*/41, /*replayable=*/true,
      make_batch(0, "first"));
  const std::string continuation =
      encoder.SerializeFrame(3, 2, 42, true, make_batch(6, "second"));

  EXPECT_FALSE(DecodeAfter({}, "").ok());
  EXPECT_TRUE(DecodeAfter({}, first).ok());
  ExpectFrameFailsClosed({}, first);
  EXPECT_TRUE(DecodeAfter({first}, continuation).ok());
  ExpectFrameFailsClosed({first}, continuation);
  // A decoder that missed the first frame has no dictionary to extend.
  EXPECT_FALSE(DecodeAfter({}, continuation).ok());
  ExpectFrameFailsClosed({}, continuation);

  // Cross-type confusion is rejected.
  EXPECT_FALSE(DeserializeBatch(first).ok());
  EXPECT_FALSE(
      WireStreamDecoder().DecodeFrame(SerializeBatch(make_batch(0, "x")))
          .ok());
}

// Version 1 (the retired row-major encoding) is refused by every decoder,
// whatever follows the header.
TEST(WireFormatTest, VersionOneHeaderIsRejectedEverywhere) {
  Batch batch;
  batch.SetArity(2);
  batch.AppendRow(std::vector<Value>{Value::Int64(1), Value::String("a")});
  BloomFilter filter = BloomFilter::WithBitCount(128, 1);
  filter.Insert(0x9E3779B97F4A7C15ULL);
  const auto as_v1 = [](std::string bytes) {
    EXPECT_EQ(bytes[1], 2);
    bytes[1] = 1;
    return bytes;
  };
  EXPECT_FALSE(DeserializeBatch(as_v1(SerializeBatch(batch))).ok());
  EXPECT_FALSE(DeserializeBatch(as_v1(SerializeBatch(Batch{}))).ok());
  EXPECT_FALSE(
      WireStreamDecoder()
          .DecodeFrame(as_v1(WireStreamEncoder().SerializeFrame(
              0, 0, 0, true, batch)))
          .ok());
  EXPECT_FALSE(
      DeserializeBloomFilter(as_v1(SerializeBloomFilter(filter))).ok());
  EXPECT_FALSE(
      DeserializeFilterMessage(as_v1(SerializeFilterMessage(7, filter))).ok());

  // A hand-built v1 batch (one row of one NULL) is refused as well.
  std::string v1_batch("B\x01", 2);
  v1_batch.append(std::string("\x01\0\0\0\x01\0\0\0\0", 9));
  auto decoded = DeserializeBatch(v1_batch);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().ToString().find("version"), std::string::npos);
}

TEST(WireFormatTest, BloomFilterRoundTripProperty) {
  PUSHSIP_SEED_TRACE(TestSeed());
  Random rng = SeededRandom(3);
  for (int round = 0; round < 20; ++round) {
    const size_t entries = 16 + static_cast<size_t>(rng.UniformInt(0, 5000));
    const int hashes = static_cast<int>(rng.UniformInt(1, 4));
    BloomFilter filter(entries, 0.05, hashes);
    std::vector<uint64_t> keys(entries);
    for (auto& k : keys) {
      k = rng.NextUint64();
      filter.Insert(k);
    }

    auto decoded = DeserializeBloomFilter(SerializeBloomFilter(filter));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->num_bits(), filter.num_bits());
    EXPECT_EQ(decoded->num_hashes(), filter.num_hashes());
    EXPECT_EQ(decoded->inserted_count(), filter.inserted_count());
    EXPECT_EQ(decoded->words(), filter.words());
    for (const uint64_t k : keys) {
      EXPECT_TRUE(decoded->MightContain(k));  // never a false negative
    }
    for (int probe = 0; probe < 100; ++probe) {
      const uint64_t k = rng.NextUint64();
      EXPECT_EQ(decoded->MightContain(k), filter.MightContain(k));
    }
  }
}

// Replayed frames keep their exact (sender, epoch, seq, replayable)
// provenance on the wire — the dedup protocol depends on it.
TEST(WireFormatTest, BatchFrameEpochSeqSurviveBothVersions) {
  PUSHSIP_SEED_TRACE(TestSeed());
  Random rng = SeededRandom(22);
  for (int round = 0; round < 30; ++round) {
    BatchFrame frame;
    frame.sender = static_cast<uint32_t>(rng.NextUint64());
    frame.epoch = static_cast<uint32_t>(rng.NextUint64());
    frame.seq = rng.NextUint64();
    frame.replayable = rng.UniformInt(0, 2) == 1;
    frame.batch.SetArity(3);
    const int rows = static_cast<int>(rng.UniformInt(0, 8));
    for (int r = 0; r < rows; ++r) {
      frame.batch.AppendRow(std::vector<Value>{
          Value::Int64(rng.UniformInt(-100, 100)), Value::String(""),
          rng.UniformInt(0, 2) ? Value::Null()
                               : Value::Date(rng.UniformInt(0, 30000))});
    }
    auto decoded = WireStreamDecoder().DecodeFrame(
        WireStreamEncoder().SerializeFrame(frame.sender, frame.epoch,
                                           frame.seq, frame.replayable,
                                           frame.batch));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->sender, frame.sender);
    EXPECT_EQ(decoded->epoch, frame.epoch);
    EXPECT_EQ(decoded->seq, frame.seq);
    EXPECT_EQ(decoded->replayable, frame.replayable);
    ExpectSameContent(decoded->batch, frame.batch);
  }
}

// The split broadcast serialization (shared body + per-destination header)
// must produce byte-identical frames to the one-shot serializer.
TEST(WireFormatTest, AssembledFrameMatchesOneShotSerialization) {
  Batch batch;
  batch.SetArity(3);
  for (int r = 0; r < 10; ++r) {
    batch.AppendRow(std::vector<Value>{Value::Int64(r), Value::String("dup"),
                                       Value::Double(1.5)});
  }
  const std::string assembled = AssembleBatchFrame(
      /*sender=*/7, /*epoch=*/3, /*seq=*/99, /*replayable=*/true,
      WireStreamEncoder().SerializeBody(batch));
  const std::string oneshot =
      WireStreamEncoder().SerializeFrame(7, 3, 99, true, batch);
  EXPECT_EQ(assembled, oneshot);
}

// Standalone batch truncation/corruption robustness: the decoder must
// fail cleanly on every cut and never crash on byte flips.
TEST(WireFormatTest, ColumnarBatchRejectsTruncationAndCorruption) {
  PUSHSIP_SEED_TRACE(TestSeed());
  Random rng = SeededRandom(23);
  Batch batch;
  batch.SetArity(4);
  for (int r = 0; r < 8; ++r) {
    batch.AppendRow(std::vector<Value>{
        Value::Int64(r * 1000), Value::String(r % 2 ? "left" : "right"),
        r % 3 ? Value::Null() : Value::Double(2.25), Value::Date(12000 + r)});
  }
  const std::string bytes = SerializeBatch(batch);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(DeserializeBatch(bytes.substr(0, cut)).ok())
        << "cut at " << cut;
  }
  EXPECT_FALSE(DeserializeBatch(bytes + "z").ok());
  for (int round = 0; round < 300; ++round) {
    std::string corrupt = bytes;
    const size_t pos = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(corrupt.size()) - 1));
    corrupt[pos] =
        static_cast<char>(corrupt[pos] ^ (1 << rng.UniformInt(0, 7)));
    auto decoded = DeserializeBatch(corrupt);  // must not crash
    if (decoded.ok()) {
      EXPECT_LE(decoded->size(), corrupt.size());
    }
  }
}

// A tiny frame claiming a gigantic row count must be rejected before the
// decoder materializes anything — the columnar pre-fill reads no payload
// bytes per row, so the row count has to be bounded by the input present.
TEST(WireFormatTest, ColumnarRejectsImplausibleRowCount) {
  std::string bytes;
  bytes.push_back('B');  // batch tag
  bytes.push_back(2);    // v2
  // varint num_rows = 2^50
  uint64_t v = 1ULL << 50;
  while (v >= 0x80) {
    bytes.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  bytes.push_back(static_cast<char>(v));
  bytes.push_back(1);  // columnar layout
  bytes.push_back(1);  // num_cols = 1
  bytes.push_back(6);  // kColNull: consumes no further input
  auto decoded = DeserializeBatch(bytes);
  EXPECT_FALSE(decoded.ok());
}

// A sparse bloom delta that wraps uint64 must be rejected, not decoded
// into a filter with the wrong bits set (false negatives would silently
// over-prune).
TEST(WireFormatTest, SparseBloomRejectsWrappingDelta) {
  BloomFilter filter(4096, 0.05, 1);
  for (uint64_t k = 0; k < 8; ++k) filter.Insert(k * 7919);
  std::string bytes = SerializeBloomFilter(filter);
  ASSERT_EQ(static_cast<uint8_t>(bytes[22]), 1u);  // sparse encoding byte
  // Replace the payload after the count with one maximal varint delta.
  std::string evil = bytes.substr(0, 23);
  evil.push_back(1);  // count = 1
  for (int i = 0; i < 9; ++i) evil.push_back(static_cast<char>(0xff));
  evil.push_back(1);  // 10-byte varint = 2^64 - 1: wraps pos
  EXPECT_FALSE(DeserializeBloomFilter(evil).ok());
}

// Dictionary evidence: a low-cardinality string column ships each string
// once, so the whole batch encodes in under half the bytes its string
// values alone occupy; a unique-string column must still round-trip.
TEST(WireFormatTest, ColumnarCompressesLowCardinalityStrings) {
  Batch repeated, unique;
  repeated.SetArity(2);
  unique.SetArity(2);
  size_t string_bytes = 0;
  for (int r = 0; r < 256; ++r) {
    const std::string brand = r % 2 ? "Brand#34" : "Brand#11";
    string_bytes += brand.size();
    repeated.AppendRow(
        std::vector<Value>{Value::Int64(r), Value::String(brand)});
    unique.AppendRow(std::vector<Value>{
        Value::Int64(r), Value::String("key-" + std::to_string(r))});
  }
  EXPECT_LT(SerializeBatch(repeated).size() * 2, string_bytes);
  auto decoded = DeserializeBatch(SerializeBatch(unique));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->ValueAt(255, 1).AsString(), "key-255");
}

// A lightly filled Bloom filter ships sparse and reconstructs the exact
// bit array; a saturated one falls back to the dense words.
TEST(WireFormatTest, SparseBloomEncodingShrinksAndRoundTrips) {
  BloomFilter filter(4096, 0.05, 1);
  for (uint64_t k = 0; k < 64; ++k) filter.Insert(k * 7919);
  const std::string sparse = SerializeBloomFilter(filter);
  // 64 set bits of ~25k: several-fold below the dense word array.
  EXPECT_LT(sparse.size() * 4, filter.words().size() * 8);
  auto decoded = DeserializeBloomFilter(sparse);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->words(), filter.words());
  EXPECT_EQ(decoded->inserted_count(), filter.inserted_count());
  BloomFilter dense = BloomFilter::WithBitCount(256, 1);
  for (uint64_t k = 0; k < 4096; ++k) dense.Insert(k);
  decoded = DeserializeBloomFilter(SerializeBloomFilter(dense));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->words(), dense.words());
}

// Golden bytes: the encoding of a fixed batch, two consecutive stream
// frames, a broadcast-assembled frame, and sparse and dense Bloom and
// filter messages, pinned as hex. Any change to these bytes changes what
// checkpoint snapshots and canonical answers contain, and what peers of
// another build would read — it must be deliberate.
Batch GoldenBatch(int first_row) {
  Batch batch;
  batch.SetArity(8);
  for (int r = first_row; r < first_row + 6; ++r) {
    batch.AppendRow(std::vector<Value>{
        Value::Int64(r % 2 ? -r * 1000 : r * 1000),  // int64, zigzag
        Value::Date(9000 + r),                       // date
        r % 3 == 0 ? Value::Null() : Value::Double(r + 0.25),  // nulls
        Value::String(r % 2 ? "AIR" : "MAIL"),       // low cardinality
        Value::String("key-" + std::to_string(r)),   // high cardinality
        r % 2 ? Value::Int64(r) : Value::String("v"),  // variant
        Value::Null(),                               // all NULL
        r == first_row ? Value::Null() : Value::String("REG")});
  }
  return batch;
}

TEST(WireFormatTest, GoldenBytesPinTheEncoding) {
  const Batch batch = GoldenBatch(0);
  ASSERT_TRUE(batch.col(5).is_variant());
  EXPECT_EQ(HexEncode(SerializeBatch(batch)),
            "4202060108010000cf0fa01fef2ec03e8f4e0200d08c01d28c01d48c01d68c01"
            "d88c01da8c01030109000000000000f43f000000000000024000000000000011"
            "400000000000001540040002044d41494c034149520001000100010500056b65"
            "792d30056b65792d31056b65792d32056b65792d33056b65792d34056b65792d"
            "3500030100000076010100000000000000030100000076010300000000000000"
            "0301000000760105000000000000000604010101035245470000000000");

  WireStreamEncoder stream;
  EXPECT_EQ(HexEncode(stream.SerializeFrame(/*sender=*/1, /*epoch=*/2,
                                            /*seq=*/3, /*replayable=*/true,
                                            batch)),
            "58020100000002000000030000000000000001060108010000cf0fa01fef2ec0"
            "3e8f4e0200d08c01d28c01d48c01d68c01d88c01da8c01030109000000000000"
            "f43f00000000000002400000000000001140000000000000154007000002044d"
            "41494c0341495200010001000107000006056b65792d30056b65792d31056b65"
            "792d32056b65792d33056b65792d34056b65792d350001020304050003010000"
            "0076010100000000000000030100000076010300000000000000030100000076"
            "010500000000000000060701010001035245470000000000");
  EXPECT_EQ(HexEncode(stream.SerializeFrame(1, 2, 4, true, GoldenBatch(4))),
            "580201000000020000000400000000000000010601080100c03e8f4ee05daf6d"
            "807dcf8c010200d88c01da8c01dc8c01de8c01e08c01e28c0103012400000000"
            "0000114000000000000015400000000000001d40000000000080204007000200"
            "00010001000107000604056b65792d36056b65792d37056b65792d38056b6579"
            "2d39040506070809000301000000760105000000000000000301000000760107"
            "0000000000000003010000007601090000000000000006070101010000000000"
            "00");

  WireStreamEncoder broadcast;
  EXPECT_EQ(HexEncode(AssembleBatchFrame(/*sender=*/5, /*epoch=*/0,
                                         /*seq=*/9, /*replayable=*/false,
                                         broadcast.SerializeBody(batch))),
            "58020500000000000000090000000000000000060108010000cf0fa01fef2ec0"
            "3e8f4e0200d08c01d28c01d48c01d68c01d88c01da8c01030109000000000000"
            "f43f00000000000002400000000000001140000000000000154007000002044d"
            "41494c0341495200010001000107000006056b65792d30056b65792d31056b65"
            "792d32056b65792d33056b65792d34056b65792d350001020304050003010000"
            "0076010100000000000000030100000076010300000000000000030100000076"
            "010500000000000000060701010001035245470000000000");

  // Insert takes hashes, so spread the keys over all 64 bits.
  constexpr uint64_t kSpread = 0x9E3779B97F4A7C15ULL;
  BloomFilter sparse = BloomFilter::WithBitCount(1024, 2);
  for (uint64_t k = 1; k <= 4; ++k) sparse.Insert(k * kSpread);
  BloomFilter dense = BloomFilter::WithBitCount(128, 1);
  for (uint64_t k = 1; k <= 40; ++k) dense.Insert(k * kSpread);
  EXPECT_EQ(HexEncode(SerializeBloomFilter(sparse)),
            "460200040000000000000200000004000000000000000108668b018601660695"
            "01767c");
  EXPECT_EQ(HexEncode(SerializeBloomFilter(dense)),
            "460280000000000000000100000028000000000000000012a990c884422452a1"
            "90899448a44221");
  EXPECT_EQ(HexEncode(SerializeFilterMessage(AttrId{204}, sparse)),
            "4102cc00000000040000000000000200000004000000000000000108668b0186"
            "0166069501767c");
  EXPECT_EQ(HexEncode(SerializeFilterMessage(AttrId{204}, dense)),
            "4102cc00000080000000000000000100000028000000000000000012a990c884"
            "422452a190899448a44221");
}

TEST(WireFormatTest, FilterMessageRoundTrip) {
  BloomFilter filter(128, 0.05, 1);
  for (uint64_t k = 0; k < 100; ++k) filter.Insert(k * 977);
  const std::string bytes = SerializeFilterMessage(AttrId{204}, filter);
  auto msg = DeserializeFilterMessage(bytes);
  ASSERT_TRUE(msg.ok()) << msg.status().ToString();
  EXPECT_EQ(msg->attr, 204);
  EXPECT_EQ(msg->filter.words(), filter.words());
  // A filter message is not a batch and vice versa.
  EXPECT_FALSE(DeserializeBatch(bytes).ok());
  EXPECT_FALSE(DeserializeFilterMessage(SerializeBatch(Batch{})).ok());
}

}  // namespace
}  // namespace pushsip
