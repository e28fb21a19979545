// Serialize -> deserialize round-trip property tests for the cross-site
// wire format, seeded via PUSHSIP_TEST_SEED.
#include "net/wire_format.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <optional>

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

/// A random rectangular batch: one type pick per column (pick 0 is an
/// all-NULL column) and occasional NULLs inside a column.
Batch RandomBatch(Random* rng, int rows, int arity) {
  Batch batch;
  batch.SetArity(static_cast<size_t>(arity));
  std::vector<int> col_type(static_cast<size_t>(arity));
  for (int& t : col_type) t = static_cast<int>(rng->UniformInt(0, 5));
  for (int r = 0; r < rows; ++r) {
    std::vector<Value> values;
    values.reserve(static_cast<size_t>(arity));
    for (int c = 0; c < arity; ++c) {
      const int pick = rng->UniformInt(0, 8) == 0
                           ? 0
                           : col_type[static_cast<size_t>(c)];
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

// Version 1 (the retired row-major encoding), version 2 (varint-only
// columns, fixed-width frame header) and version 3 (a per-value mixed-type
// column and a batch layout byte) are refused by every decoder, whatever
// follows the header. So are version-4 bodies in version 3's layout: a
// column tagged 0 (the mixed-type column) and a layout byte after the row
// count.
TEST(WireFormatTest, VersionOneHeaderIsRejectedEverywhere) {
  Batch batch;
  batch.SetArity(2);
  batch.AppendRow(std::vector<Value>{Value::Int64(1), Value::String("a")});
  BloomFilter filter = BloomFilter::WithBitCount(128, 1);
  filter.Insert(0x9E3779B97F4A7C15ULL);
  for (const char old_version : {1, 2, 3}) {
    const auto as_old = [old_version](std::string bytes) {
      EXPECT_EQ(bytes[1], 4);
      bytes[1] = old_version;
      return bytes;
    };
    EXPECT_FALSE(DeserializeBatch(as_old(SerializeBatch(batch))).ok());
    EXPECT_FALSE(DeserializeBatch(as_old(SerializeBatch(Batch{}))).ok());
    EXPECT_FALSE(
        WireStreamDecoder()
            .DecodeFrame(as_old(WireStreamEncoder().SerializeFrame(
                0, 0, 0, true, batch)))
            .ok());
    EXPECT_FALSE(
        DeserializeBloomFilter(as_old(SerializeBloomFilter(filter))).ok());
    EXPECT_FALSE(
        DeserializeFilterMessage(as_old(SerializeFilterMessage(7, filter)))
            .ok());
  }

  // A hand-built v1 batch (one row of one NULL) is refused as well.
  std::string v1_batch("B\x01", 2);
  v1_batch.append(std::string("\x01\0\0\0\x01\0\0\0\0", 9));
  auto decoded = DeserializeBatch(v1_batch);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().ToString().find("version"), std::string::npos);

  const auto expect_refused = [](const Status& st, const char* what) {
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
        << what << ": " << st.ToString();
  };
  // One row, one column tagged 0, holding version 3's self-describing
  // INT64 value 7 (type tag, then 8 fixed bytes).
  const std::string mixed_body("\x01\x01\x00\x01\x07\0\0\0\0\0\0\0", 12);
  const std::string frame_header("X\x04\x00\x00\x00\x01", 6);
  expect_refused(DeserializeBatch(std::string("B\x04", 2) + mixed_body)
                     .status(),
                 "batch with a column tagged 0");
  expect_refused(
      WireStreamDecoder().DecodeFrame(frame_header + mixed_body).status(),
      "frame with a column tagged 0");

  // Version 3's layout byte (always 1) after the row count.
  const std::string standalone = SerializeBatch(batch);
  const std::string frame =
      WireStreamEncoder().SerializeFrame(0, 0, 0, true, batch);
  ASSERT_TRUE(DeserializeBatch(standalone).ok());
  ASSERT_TRUE(WireStreamDecoder().DecodeFrame(frame).ok());
  ASSERT_EQ(frame.substr(0, 6), frame_header);
  std::string old_standalone = standalone;
  old_standalone.insert(3, 1, '\x01');  // after tag, version, row count
  std::string old_frame = frame;
  old_frame.insert(7, 1, '\x01');  // after the 6-byte header, row count
  expect_refused(DeserializeBatch(old_standalone).status(),
                 "batch with a layout byte");
  expect_refused(WireStreamDecoder().DecodeFrame(old_frame).status(),
                 "frame with a layout byte");
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
  bytes.push_back(4);    // version 4
  // varint num_rows = 2^50
  uint64_t v = 1ULL << 50;
  while (v >= 0x80) {
    bytes.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  bytes.push_back(static_cast<char>(v));
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
        r % 2 ? Value::Int64(r) : Value::Null(),     // some NULLs
        Value::Null(),                               // all NULL
        r == first_row ? Value::Null() : Value::String("REG")});
  }
  return batch;
}

TEST(WireFormatTest, GoldenBytesPinTheEncoding) {
  const Batch batch = GoldenBatch(0);
  EXPECT_EQ(HexEncode(SerializeBatch(batch)),
            "420406080100ff00cf0fa01fef2ec03e8f4e020003d08c0188c6020301090209"
            "fa0100c8b0840c040002044d41494c0341495201002a0500056b65792d30056b"
            "65792d31056b65792d32056b65792d33056b65792d34056b65792d3501011503"
            "0210010604010101035245470000");

  WireStreamEncoder stream;
  EXPECT_EQ(HexEncode(stream.SerializeFrame(/*sender=*/1, /*epoch=*/2,
                                            /*seq=*/3, /*replayable=*/true,
                                            batch)),
            "58040102030106080100ff00cf0fa01fef2ec03e8f4e020003d08c0188c60203"
            "01090209fa0100c8b0840c07000002044d41494c0341495201002a0700000605"
            "6b65792d30056b65792d31056b65792d32056b65792d33056b65792d34056b65"
            "792d35030088c60201011503021001060701010001035245470000");
  EXPECT_EQ(HexEncode(stream.SerializeFrame(1, 2, 4, true, GoldenBatch(4))),
            "58040102040106080100ffc03e8f4ee05daf6d807dcf8c01020003d88c0188c6"
            "020301240209d20600c8b0840c0700020001002a07000604056b65792d36056b"
            "65792d37056b65792d38056b65792d39030888c602010115030a100106070101"
            "01000000");

  WireStreamEncoder broadcast;
  EXPECT_EQ(HexEncode(AssembleBatchFrame(/*sender=*/5, /*epoch=*/0,
                                         /*seq=*/9, /*replayable=*/false,
                                         broadcast.SerializeBody(batch))),
            "58040500090006080100ff00cf0fa01fef2ec03e8f4e020003d08c0188c60203"
            "01090209fa0100c8b0840c07000002044d41494c0341495201002a0700000605"
            "6b65792d30056b65792d31056b65792d32056b65792d33056b65792d34056b65"
            "792d35030088c60201011503021001060701010001035245470000");

  // Insert takes hashes, so spread the keys over all 64 bits.
  constexpr uint64_t kSpread = 0x9E3779B97F4A7C15ULL;
  BloomFilter sparse = BloomFilter::WithBitCount(1024, 2);
  for (uint64_t k = 1; k <= 4; ++k) sparse.Insert(k * kSpread);
  BloomFilter dense = BloomFilter::WithBitCount(128, 1);
  for (uint64_t k = 1; k <= 40; ++k) dense.Insert(k * kSpread);
  EXPECT_EQ(HexEncode(SerializeBloomFilter(sparse)),
            "460400040000000000000200000004000000000000000108668b018601660695"
            "01767c");
  EXPECT_EQ(HexEncode(SerializeBloomFilter(dense)),
            "460480000000000000000100000028000000000000000012a990c884422452a1"
            "90899448a44221");
  EXPECT_EQ(HexEncode(SerializeFilterMessage(AttrId{204}, sparse)),
            "4104cc00000000040000000000000200000004000000000000000108668b0186"
            "0166069501767c");
  EXPECT_EQ(HexEncode(SerializeFilterMessage(AttrId{204}, dense)),
            "4104cc00000080000000000000000100000028000000000000000012a990c884"
            "422452a190899448a44221");
}

/// One column per call: `values` in a fresh batch, NULL where unset.
Batch OneColumn(TypeId type, const std::vector<std::optional<Value>>& values) {
  Column col(type);
  for (const std::optional<Value>& v : values) {
    if (v.has_value()) {
      col.AppendValue(*v);
    } else {
      col.AppendNull();
    }
  }
  Batch batch;
  batch.AddColumn(std::move(col));
  return batch;
}

// The integer kernel's layouts, the decimal rule and the varint frame
// header, pinned one column at a time.
TEST(WireFormatTest, GoldenBytesPinTheCompactColumns) {
  // Packed INT64: 100000..100175 ships the minimum, then 8 bits a value.
  std::vector<std::optional<Value>> packed;
  for (int r = 0; r < 8; ++r) packed.push_back(Value::Int64(100000 + r * 25));
  EXPECT_EQ(HexEncode(SerializeBatch(OneColumn(TypeId::kInt64, packed))),
            "42040801010008c09a0c0019324b647d96af");
  // Width 0: every value equal costs the mode byte and the minimum.
  std::vector<std::optional<Value>> constant(
      64, std::optional<Value>(Value::Date(10957)));
  EXPECT_EQ(HexEncode(SerializeBatch(OneColumn(TypeId::kDate, constant))),
            "420440010200009aab01");
  // DOUBLE at s = 0 (integral prices, one NULL) and at s = 2 (cents).
  std::vector<std::optional<Value>> prices;
  for (int r = 0; r < 16; ++r) {
    prices.push_back(r == 5 ? std::nullopt
                            : std::optional<Value>(Value::Double(
                                  (r + 1) * 1000.0 + r % 3)));
  }
  EXPECT_EQ(HexEncode(SerializeBatch(OneColumn(TypeId::kDouble, prices))),
            "4204100103012000000ed00f0040fa207de02ea10fdc95b5097d2863c4a9af82"
            "bbc9b2ac8da903");
  EXPECT_EQ(HexEncode(SerializeBatch(OneColumn(
                TypeId::kDouble, {Value::Double(1.25), Value::Double(10.5),
                                  Value::Double(99.99), Value::Double(0.01)}))),
            "420404010300020e027c4006e1700200");
  // No scale reproduces these bits: the column stays raw.
  EXPECT_EQ(
      HexEncode(SerializeBatch(OneColumn(
          TypeId::kDouble,
          {Value::Double(0.1 + 0.2), Value::Double(-0.0),
           Value::Double(std::numeric_limits<double>::quiet_NaN()),
           Value::Double(std::numeric_limits<double>::infinity()),
           Value::Double(-std::numeric_limits<double>::infinity())}))),
      "420405010300ff343333333333d33f0000000000000080000000000000f87f00"
      "0000000000f07f000000000000f0ff");
  // Dictionary codes: per-batch indices and stream codes both pack.
  std::vector<std::optional<Value>> brands;
  for (int r = 0; r < 12; ++r) {
    static const char* kModes[] = {"MAIL", "AIR", "SHIP"};
    brands.push_back(Value::String(kModes[r % 3]));
  }
  const Batch brand_batch = OneColumn(TypeId::kString, brands);
  EXPECT_EQ(HexEncode(SerializeBatch(brand_batch)),
            "42040c01040003044d41494c0341495204534849500200244992");
  WireStreamEncoder stream;
  EXPECT_EQ(HexEncode(stream.SerializeFrame(0, 0, 0, true, brand_batch)),
            "5804000000010c0107000003044d41494c0341495204534849500200244992");
  // Continuation: codes only, no dictionary entries.
  EXPECT_EQ(HexEncode(stream.SerializeFrame(0, 0, 1, true, brand_batch)),
            "5804000001010c01070003000200244992");
  // Header varints at their extremes.
  EXPECT_EQ(HexEncode(WireStreamEncoder().SerializeFrame(
                /*sender=*/UINT32_MAX - 1, /*epoch=*/UINT32_MAX,
                /*seq=*/(uint64_t{1} << 63) + 5, /*replayable=*/false,
                Batch{})),
            "5804feffffff0fffffffff0f858080808080808080010000");
}

/// Exact equality, column by column: same type and NULL rows, INT64/DATE
/// values and dictionary strings equal, doubles equal bit for bit (memcmp,
/// so -0.0 and NaN payloads count).
void ExpectBitIdentical(const Batch& got, const Batch& want) {
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(got.num_cols(), want.num_cols());
  for (size_t c = 0; c < want.num_cols(); ++c) {
    const Column& g = got.col(c);
    const Column& w = want.col(c);
    // An all-NULL column ships as kColNull and decodes untyped.
    if (w.NullCount() < w.size()) {
      ASSERT_EQ(g.type(), w.type()) << "col " << c;
    }
    for (size_t r = 0; r < want.size(); ++r) {
      ASSERT_EQ(g.IsNull(r), w.IsNull(r)) << "row " << r << " col " << c;
      if (w.IsNull(r)) continue;
      switch (w.type()) {
        case TypeId::kInt64:
        case TypeId::kDate:
          ASSERT_EQ(g.I64At(r), w.I64At(r)) << "row " << r << " col " << c;
          break;
        case TypeId::kDouble: {
          const double gv = g.F64At(r);
          const double wv = w.F64At(r);
          ASSERT_EQ(std::memcmp(&gv, &wv, sizeof(double)), 0)
              << "row " << r << " col " << c << ": " << gv << " vs " << wv;
          break;
        }
        case TypeId::kString:
          ASSERT_EQ(g.StringAt(r), w.StringAt(r))
              << "row " << r << " col " << c;
          break;
        case TypeId::kNull:
          break;
      }
    }
  }
}

/// One INT64 value of a column drawn in `shape`: a constant, a narrow
/// range above a large base, both int64 extremes (a range the width cap
/// sends to varints), or anything.
int64_t ShapedInt(Random* rng, int shape, int64_t base) {
  switch (shape) {
    case 0: return base;
    case 1: return base + rng->UniformInt(0, 300);
    case 2: {
      const int64_t extremes[] = {std::numeric_limits<int64_t>::min(),
                                  std::numeric_limits<int64_t>::max(), 0, -1};
      return extremes[rng->UniformInt(0, 3)];
    }
    default: return static_cast<int64_t>(rng->NextUint64());
  }
}

/// One DOUBLE value of a column drawn in `shape`: integral prices, cents,
/// four decimals, values around 2^53, denormals, IEEE specials, or
/// arbitrary bits.
double ShapedDouble(Random* rng, int shape) {
  constexpr double kTwo53 = 9007199254740992.0;
  switch (shape) {
    case 0: return static_cast<double>(rng->UniformInt(-100000, 100000));
    case 1: return static_cast<double>(rng->UniformInt(0, 9999999)) / 100;
    case 2: return static_cast<double>(rng->UniformInt(-99999, 99999)) / 10000;
    case 3: {
      const double near[] = {kTwo53, -kTwo53, kTwo53 - 1, kTwo53 + 2,
                             kTwo53 / 10, kTwo53 / 10000 + 0.5};
      return near[rng->UniformInt(0, 5)];
    }
    case 4: {
      const double tiny[] = {std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::min() / 3, 0.0};
      return tiny[rng->UniformInt(0, 3)];
    }
    case 5: {
      const double special[] = {-0.0, std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::quiet_NaN(),
                                0.1 + 0.2, 1.0};
      return special[rng->UniformInt(0, 5)];
    }
    default: {
      const uint64_t bits = rng->NextUint64();
      double v;
      std::memcpy(&v, &bits, sizeof(v));
      return v;
    }
  }
}

/// A typed batch exercising every compact layout: INT64, DATE and DOUBLE
/// columns of a random shape and a low-cardinality string column, each
/// with no, some, or only NULLs.
Batch RandomCompactBatch(Random* rng, size_t rows) {
  Batch batch;
  for (int c = 0; c < 6; ++c) {
    const int null_mode = static_cast<int>(rng->UniformInt(0, 2));
    const auto is_null = [&] {
      return null_mode == 2 || (null_mode == 1 && rng->UniformInt(0, 4) == 0);
    };
    const int int_shape = static_cast<int>(rng->UniformInt(0, 3));
    const int double_shape = static_cast<int>(rng->UniformInt(0, 6));
    const int64_t base = ShapedInt(rng, 3, 0) / 2;
    Column col(c == 0 || c == 4 ? TypeId::kInt64
               : c == 1         ? TypeId::kDate
               : c == 5         ? TypeId::kString
                                : TypeId::kDouble);
    for (size_t r = 0; r < rows; ++r) {
      if (is_null()) {
        col.AppendNull();
      } else if (col.type() == TypeId::kString) {
        col.AppendValue(Value::String(std::to_string(rng->UniformInt(0, 40))));
      } else if (col.type() == TypeId::kDouble) {
        col.AppendF64(ShapedDouble(rng, double_shape));
      } else {
        col.AppendI64(ShapedInt(rng, int_shape, base));
      }
    }
    batch.AddColumn(std::move(col));
  }
  return batch;
}

// Every compact layout round-trips bit for bit, standalone and through a
// stream whose dictionary carries over between frames.
TEST(WireFormatTest, CompactColumnsRoundTripBitIdentical) {
  PUSHSIP_SEED_TRACE(TestSeed());
  Random rng = SeededRandom(31);
  WireStreamEncoder encoder;
  WireStreamDecoder decoder;
  for (int round = 0; round < 80; ++round) {
    const size_t sizes[] = {1, 2, 3, 17, 1024};
    const size_t rows = round % 2 == 0
                            ? sizes[rng.UniformInt(0, 4)]
                            : static_cast<size_t>(rng.UniformInt(1, 300));
    const Batch batch = RandomCompactBatch(&rng, rows);
    SCOPED_TRACE("round " + std::to_string(round));

    auto standalone = DeserializeBatch(SerializeBatch(batch));
    ASSERT_TRUE(standalone.ok()) << standalone.status().ToString();
    {
      SCOPED_TRACE("standalone");
      ExpectBitIdentical(*standalone, batch);
    }

    auto frame = decoder.DecodeFrame(encoder.SerializeFrame(
        /*sender=*/1, /*epoch=*/0, static_cast<uint64_t>(round), true, batch));
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    SCOPED_TRACE("stream frame");
    ExpectBitIdentical(frame->batch, batch);
  }
}

// The int64 extremes in one column overflow the width cap and take
// varints; a column of equal values costs O(1) bytes whatever its length.
TEST(WireFormatTest, CompactColumnsSizeFollowsTheValues) {
  const Batch extremes =
      OneColumn(TypeId::kInt64, {Value::Int64(INT64_MIN), Value::Int64(0),
                                 Value::Int64(INT64_MAX)});
  auto decoded = DeserializeBatch(SerializeBatch(extremes));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectBitIdentical(*decoded, extremes);

  std::vector<std::optional<Value>> few(2, Value::Int64(-77));
  std::vector<std::optional<Value>> many(1024, Value::Int64(-77));
  EXPECT_EQ(SerializeBatch(OneColumn(TypeId::kInt64, many)).size(),
            SerializeBatch(OneColumn(TypeId::kInt64, few)).size() + 1);
}

// Every truncation and bit flip of frames in each compact layout fails
// closed — packed and varint int payloads, width 0, scaled and raw
// doubles, per-batch and stream dictionary codes, and a continuation frame
// of a stream dictionary at a decoder with and without the first frame.
TEST(WireFormatTest, CompactColumnsFailClosed) {
  const auto make_batch = [](int first) {
    Batch batch;
    Column packed(TypeId::kInt64);
    Column extremes(TypeId::kInt64);
    Column constant(TypeId::kDate);
    Column cents(TypeId::kDouble);
    Column raw(TypeId::kDouble);
    Column brands = Column::StringWithDict(nullptr);
    for (int r = first; r < first + 9; ++r) {
      packed.AppendI64(5000 + r * 3);
      extremes.AppendI64(r % 2 ? INT64_MIN : INT64_MAX - r);
      constant.AppendI64(10957);
      if (r % 4 == 1) {
        cents.AppendNull();
      } else {
        cents.AppendF64(r + 0.25);
      }
      raw.AppendF64(r % 3 == 0 ? -0.0 : r + 0.1);
      brands.AppendValue(
          Value::String(r % 3 ? std::string("AIR") : std::to_string(r)));
    }
    for (Column* col : {&packed, &extremes, &constant, &cents, &raw, &brands}) {
      batch.AddColumn(std::move(*col));
    }
    return batch;
  };
  WireStreamEncoder encoder;
  const std::string first =
      encoder.SerializeFrame(/*sender=*/9, /*epoch=*/4, /*seq=*/70000,
                             /*replayable=*/true, make_batch(0));
  const std::string continuation =
      encoder.SerializeFrame(9, 4, 70001, true, make_batch(9));
  EXPECT_TRUE(DecodeAfter({}, first).ok());
  ExpectFrameFailsClosed({}, first);
  EXPECT_TRUE(DecodeAfter({first}, continuation).ok());
  ExpectFrameFailsClosed({first}, continuation);
  ExpectFrameFailsClosed({}, continuation);

  const std::string standalone = SerializeBatch(make_batch(0));
  for (size_t cut = 0; cut < standalone.size(); ++cut) {
    EXPECT_FALSE(DeserializeBatch(standalone.substr(0, cut)).ok())
        << "cut at " << cut;
  }
  for (size_t pos = 0; pos < standalone.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = standalone;
      corrupt[pos] = static_cast<char>(corrupt[pos] ^ (1 << bit));
      auto decoded = DeserializeBatch(corrupt);  // must not crash
      if (decoded.ok()) {
        EXPECT_LE(decoded->size(), corrupt.size());
      }
    }
  }
}

// A 19-byte frame claiming 2^40 rows of a width-0 column (which would
// cost no more bytes at any row count) is refused by the row-count budget
// before any column is decoded.
TEST(WireFormatTest, WidthZeroColumnsCannotClaimHugeRowCounts) {
  std::string frame("X\x04", 2);
  frame.append({0, 0, 0, 0});  // sender, epoch, seq, replayable
  uint64_t rows = uint64_t{1} << 40;
  for (; rows >= 0x80; rows >>= 7) {
    frame.push_back(static_cast<char>((rows & 0x7f) | 0x80));
  }
  frame.push_back(static_cast<char>(rows));
  frame.append({1});           // one column
  frame.append({1, 0, 0});     // INT64, no NULLs, width 0
  frame.append("\xc0\x9a\x0c");  // minimum: zigzag(100000)
  ASSERT_EQ(frame.size(), 19u);
  auto decoded = WireStreamDecoder().DecodeFrame(frame);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().ToString().find("row count implausible"),
            std::string::npos)
      << decoded.status().ToString();
}

// Mode bytes above the width cap (other than the varint mode) and scale
// bytes above 4 (other than raw) are refused, as are frame headers whose
// sender or epoch overflows 32 bits.
TEST(WireFormatTest, UnknownModeWidthAndScaleAreRejected) {
  // Two INT64 values 5 and 6: width 1, minimum zigzag(5) = 10, bits 0b10.
  const std::string ints("B\x04\x02\x01\x01\x00\x01\x0a\x02", 9);
  ASSERT_EQ(SerializeBatch(OneColumn(TypeId::kInt64,
                                     {Value::Int64(5), Value::Int64(6)})),
            ints);
  for (const int mode : {57, 64, 100, 0xfe}) {
    std::string bad = ints;
    bad[6] = static_cast<char>(mode);
    EXPECT_FALSE(DeserializeBatch(bad).ok()) << "mode " << mode;
  }
  // Two DOUBLEs 1.5 and 2.5: scale 1, mantissas 15 and 25 at width 4.
  const std::string doubles("B\x04\x02\x01\x03\x00\x01\x04\x1e\xa0", 10);
  ASSERT_EQ(SerializeBatch(OneColumn(TypeId::kDouble, {Value::Double(1.5),
                                                       Value::Double(2.5)})),
            doubles);
  for (const int scale : {5, 6, 0x80, 0xfe}) {
    std::string bad = doubles;
    bad[6] = static_cast<char>(scale);
    EXPECT_FALSE(DeserializeBatch(bad).ok()) << "scale " << scale;
  }
  // Sender, then epoch, one past UINT32_MAX.
  const std::string too_big("\x80\x80\x80\x80\x10", 5);
  for (const std::string& header :
       {std::string("X\x04", 2) + too_big + std::string(3, '\0'),
        std::string("X\x04\x00", 3) + too_big + std::string(2, '\0')}) {
    auto decoded = WireStreamDecoder().DecodeFrame(header + '\0');
    ASSERT_FALSE(decoded.ok());
    EXPECT_NE(decoded.status().ToString().find("too large"),
              std::string::npos);
  }
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
