// Columnar-Batch edge cases: all-NULL columns, randomized CompactInPlace
// and AppendGather against row-at-a-time references, and the shared
// BatchBuilder fixture.
#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/tuple.h"
#include "tests/testing/batch_builder.h"
#include "tests/testing/test_rng.h"

namespace pushsip {
namespace {

using testing::BatchBuilder;
using testing::SeededRandom;

// One random column of `kind`: 0 int64, 1 double, 2 low-cardinality
// string (each with NULL sprinkles), 3 all-NULL untyped, 4 mixed-type
// (variant).
Column RandomColumn(Random* rng, size_t rows, int64_t kind) {
  Column col;
  switch (kind) {
    case 0: {
      col = Column(TypeId::kInt64);
      for (size_t r = 0; r < rows; ++r) {
        if (rng->Bernoulli(0.1)) {
          col.AppendNull();
        } else {
          col.AppendI64(rng->UniformInt(-1000, 1000));
        }
      }
      break;
    }
    case 1: {
      col = Column(TypeId::kDouble);
      for (size_t r = 0; r < rows; ++r) {
        if (rng->Bernoulli(0.1)) {
          col.AppendNull();
        } else {
          col.AppendF64(rng->UniformDouble());
        }
      }
      break;
    }
    case 2: {
      col = Column(TypeId::kString);
      for (size_t r = 0; r < rows; ++r) {
        if (rng->Bernoulli(0.1)) {
          col.AppendNull();
        } else {
          std::string s("s");
          s += std::to_string(rng->UniformInt(0, 7));
          col.AppendValue(Value::String(std::move(s)));
        }
      }
      break;
    }
    case 3: {
      // All-NULL, never typed.
      for (size_t r = 0; r < rows; ++r) col.AppendNull();
      break;
    }
    default: {
      // Mixed types force the variant fallback.
      for (size_t r = 0; r < rows; ++r) {
        col.AppendValue(rng->Bernoulli(0.5)
                            ? Value::Int64(rng->UniformInt(0, 9))
                            : Value::String("mix"));
      }
      break;
    }
  }
  return col;
}

// One random rectangular batch: typed columns with NULL sprinkles, a
// low-cardinality string column, and occasionally an all-NULL or
// mixed-type (variant) column.
Batch RandomBatch(Random* rng, size_t rows) {
  Batch b;
  const int ncols = static_cast<int>(rng->UniformInt(1, 5));
  for (int c = 0; c < ncols; ++c) {
    b.AddColumn(RandomColumn(rng, rows, rng->UniformInt(0, 4)));
  }
  return b;
}

TEST(ColumnarBatchTest, CompactInPlaceMatchesRowAtATimeReference) {
  Random rng = SeededRandom(101);
  for (int iter = 0; iter < 200; ++iter) {
    PUSHSIP_SEED_TRACE(testing::TestSeed());
    const size_t rows = static_cast<size_t>(rng.UniformInt(0, 40));
    Batch b = RandomBatch(&rng, rows);

    // Random strictly-increasing selection (possibly empty or full).
    std::vector<uint32_t> sel;
    for (size_t r = 0; r < rows; ++r) {
      if (rng.Bernoulli(0.6)) sel.push_back(static_cast<uint32_t>(r));
    }

    // Reference: materialize the selected rows before compacting, and
    // snapshot the key hashes the cached lane must preserve.
    std::vector<Tuple> expect;
    for (const uint32_t r : sel) expect.push_back(b.MaterializeRow(r));
    std::vector<int> hash_cols;
    for (size_t c = 0; c < b.num_cols(); ++c) {
      hash_cols.push_back(static_cast<int>(c));
    }
    std::vector<uint64_t> scratch;
    const std::vector<uint64_t>& pre = b.KeyHashes(hash_cols, &scratch);
    std::vector<uint64_t> expect_hashes;
    for (const uint32_t r : sel) expect_hashes.push_back(pre[r]);

    b.CompactInPlace(sel);

    ASSERT_EQ(b.size(), sel.size());
    for (size_t r = 0; r < b.size(); ++r) {
      EXPECT_EQ(b.MaterializeRow(r).Compare(expect[r]), 0)
          << "iter " << iter << " row " << r << ": " << b.RowToString(r);
    }
    // The cached hash lane compacts alongside the rows.
    const std::vector<uint64_t>* cached = b.CachedKeyHashes(hash_cols);
    ASSERT_NE(cached, nullptr);
    EXPECT_EQ(*cached, expect_hashes);
  }
}

// Every destination shape AppendGather distinguishes, each run against a
// per-row AppendFrom loop from an identical starting state.
TEST(ColumnarBatchTest, AppendGatherMatchesAppendFromLoop) {
  Random rng = SeededRandom(103);
  for (int iter = 0; iter < 500; ++iter) {
    PUSHSIP_SEED_TRACE(testing::TestSeed());
    const size_t rows = static_cast<size_t>(rng.UniformInt(1, 40));
    const Column src = RandomColumn(&rng, rows, rng.UniformInt(0, 4));
    // Any order, repeats allowed, possibly empty.
    std::vector<uint32_t> idx(static_cast<size_t>(rng.UniformInt(0, 60)));
    const int64_t last = static_cast<int64_t>(rows) - 1;
    for (uint32_t& i : idx) i = static_cast<uint32_t>(rng.UniformInt(0, last));

    Column got;
    const int64_t shape = rng.UniformInt(0, 4);
    switch (shape) {
      case 0:  // empty, untyped
        break;
      case 1:  // empty, typed as the source (a string column: no dict yet)
        got = Column(src.type());
        break;
      case 2:  // a prefix of the source already in: the same dictionary
        got.AppendRange(src, 0, rows / 2 + 1);
        break;
      case 3:  // a private dictionary (or a mismatched type for non-strings)
        got.AppendValue(Value::String("foreign"));
        break;
      default:  // same or different rep, different logical type
        got = Column(src.type() == TypeId::kInt64 ? TypeId::kDate
                                                  : TypeId::kInt64);
        break;
    }
    Column want = got;
    got.AppendGather(src, idx.data(), idx.size());
    for (const uint32_t i : idx) want.AppendFrom(src, i);

    ASSERT_EQ(got.size(), want.size()) << "iter " << iter;
    if (want.type() == TypeId::kNull) {
      // An empty untyped destination takes the source type up front (as
      // AppendRange does), even when every gathered row is NULL.
      EXPECT_TRUE(got.type() == TypeId::kNull || got.type() == src.type());
    } else {
      EXPECT_EQ(got.type(), want.type()) << "iter " << iter;
    }
    EXPECT_EQ(got.is_variant(), want.is_variant()) << "iter " << iter;
    EXPECT_EQ(got.NullCount(), want.NullCount()) << "iter " << iter;
    for (size_t r = 0; r < got.size(); ++r) {
      EXPECT_EQ(got.IsNull(r), want.IsNull(r)) << "iter " << iter;
      EXPECT_EQ(got.CompareAt(r, want, r), 0)
          << "iter " << iter << " row " << r << ": "
          << got.GetValue(r).ToString() << " vs "
          << want.GetValue(r).ToString();
      EXPECT_EQ(got.HashAt(r), want.HashAt(r)) << "iter " << iter;
    }
    // An empty destination shares the source dictionary read-only: its own
    // later appends go to a private copy.
    if (shape <= 1 && src.type() == TypeId::kString && !src.is_variant() &&
        !idx.empty()) {
      EXPECT_EQ(got.dict().get(), src.dict().get()) << "iter " << iter;
      if (src.dict() != nullptr) {
        const uint32_t before = src.dict()->size();
        got.AppendValue(Value::String("fresh"));
        EXPECT_EQ(src.dict()->size(), before);
        EXPECT_EQ(got.StringAt(got.size() - 1), "fresh");
      }
    }
  }
}

// The multi-source gather (a join's build side) against a per-row
// AppendFrom loop: sources that share one dictionary (slices of one
// column, the typed path) and sources that bring their own dictionary or
// another type (the per-row fallback).
TEST(ColumnarBatchTest, MultiSourceAppendGatherMatchesAppendFromLoop) {
  Random rng = SeededRandom(105);
  for (int iter = 0; iter < 300; ++iter) {
    PUSHSIP_SEED_TRACE(testing::TestSeed());
    const int64_t kind = rng.UniformInt(0, 4);
    const Column base =
        RandomColumn(&rng, static_cast<size_t>(rng.UniformInt(1, 40)), kind);
    std::vector<Column> owned(static_cast<size_t>(rng.UniformInt(1, 4)));
    for (Column& src : owned) {
      if (rng.Bernoulli(0.2)) {
        src = RandomColumn(&rng, static_cast<size_t>(rng.UniformInt(1, 20)),
                           rng.Bernoulli(0.5) ? kind : rng.UniformInt(0, 4));
      } else {
        const size_t begin =
            static_cast<size_t>(rng.UniformInt(0, base.size() - 1));
        src.AppendRange(base, begin, base.size());
      }
    }
    std::vector<const Column*> srcs;
    for (const Column& src : owned) srcs.push_back(&src);
    std::vector<uint32_t> which(static_cast<size_t>(rng.UniformInt(0, 60)));
    std::vector<uint32_t> rows(which.size());
    for (size_t k = 0; k < which.size(); ++k) {
      which[k] = static_cast<uint32_t>(rng.UniformInt(0, srcs.size() - 1));
      rows[k] = static_cast<uint32_t>(
          rng.UniformInt(0, srcs[which[k]]->size() - 1));
    }

    Column got;
    if (rng.Bernoulli(0.3)) got = Column(base.type());
    Column want = got;
    got.AppendGather(srcs, which.data(), rows.data(), which.size());
    for (size_t k = 0; k < which.size(); ++k) {
      want.AppendFrom(*srcs[which[k]], rows[k]);
    }

    ASSERT_EQ(got.size(), want.size()) << "iter " << iter;
    EXPECT_EQ(got.NullCount(), want.NullCount()) << "iter " << iter;
    for (size_t r = 0; r < got.size(); ++r) {
      EXPECT_EQ(got.IsNull(r), want.IsNull(r)) << "iter " << iter;
      EXPECT_EQ(got.CompareAt(r, want, r), 0)
          << "iter " << iter << " row " << r << ": "
          << got.GetValue(r).ToString() << " vs "
          << want.GetValue(r).ToString();
      EXPECT_EQ(got.HashAt(r), want.HashAt(r)) << "iter " << iter;
    }
  }
}

TEST(ColumnarBatchTest, BatchAppendGatherMatchesAppendRowFromLoop) {
  Random rng = SeededRandom(104);
  for (int iter = 0; iter < 100; ++iter) {
    PUSHSIP_SEED_TRACE(testing::TestSeed());
    const size_t rows = static_cast<size_t>(rng.UniformInt(1, 30));
    const Batch src = RandomBatch(&rng, rows);
    std::vector<uint32_t> idx;
    for (size_t r = 0; r < rows; ++r) {
      if (rng.Bernoulli(0.5)) idx.push_back(static_cast<uint32_t>(r));
    }
    Batch got;
    Batch want;
    got.AppendGather(src, idx.data(), idx.size());
    for (const uint32_t i : idx) want.AppendRowFrom(src, i);
    ASSERT_EQ(got.size(), want.size());
    ASSERT_EQ(got.num_cols(), src.num_cols());
    for (size_t r = 0; r < got.size(); ++r) {
      EXPECT_EQ(got.CompareRows(r, want, r), 0) << got.RowToString(r);
    }
  }
}

TEST(ColumnarBatchTest, AllNullColumnStaysUntypedThroughCompaction) {
  Batch b = BatchBuilder()
                .I64({1, 2, 3, 4})
                .Nulls(4)
                .Build();
  const Column& nulls = b.col(1);
  EXPECT_EQ(nulls.type(), TypeId::kNull);
  EXPECT_EQ(nulls.NullCount(), 4u);
  EXPECT_TRUE(nulls.has_nulls());
  for (size_t r = 0; r < 4; ++r) {
    EXPECT_TRUE(nulls.IsNull(r));
    EXPECT_TRUE(b.ValueAt(r, 1).is_null());
  }

  b.CompactInPlace({1, 3});
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(b.col(0).I64At(0), 2);
  EXPECT_EQ(b.col(0).I64At(1), 4);
  EXPECT_EQ(b.col(1).NullCount(), 2u);
  EXPECT_TRUE(b.col(1).IsNull(0));
  EXPECT_TRUE(b.col(1).IsNull(1));
}

TEST(ColumnarBatchTest, AllNullColumnAdoptsTypeOfFirstNonNull) {
  Column c;
  c.AppendNull();
  c.AppendNull();
  EXPECT_EQ(c.type(), TypeId::kNull);
  c.AppendValue(Value::Int64(7));
  EXPECT_EQ(c.type(), TypeId::kInt64);
  EXPECT_TRUE(c.IsNull(0));
  EXPECT_TRUE(c.IsNull(1));
  EXPECT_FALSE(c.IsNull(2));
  EXPECT_EQ(c.I64At(2), 7);
  EXPECT_EQ(c.NullCount(), 2u);
}

TEST(ColumnarBatchTest, BatchBuilderCoversEveryColumnKind) {
  Batch b = BatchBuilder()
                .I64({1, std::nullopt, 3})
                .F64({0.5, 1.5, std::nullopt})
                .Str({"a", std::nullopt, "a"})
                .Date({10957, 0, std::nullopt})
                .Build();
  ASSERT_EQ(b.num_cols(), 4u);
  ASSERT_EQ(b.size(), 3u);
  EXPECT_EQ(b.col(0).type(), TypeId::kInt64);
  EXPECT_EQ(b.col(1).type(), TypeId::kDouble);
  EXPECT_EQ(b.col(2).type(), TypeId::kString);
  EXPECT_EQ(b.col(3).type(), TypeId::kDate);
  EXPECT_TRUE(b.col(0).IsNull(1));
  EXPECT_TRUE(b.col(1).IsNull(2));
  EXPECT_TRUE(b.col(2).IsNull(1));
  EXPECT_TRUE(b.col(3).IsNull(2));
  EXPECT_EQ(b.col(0).I64At(2), 3);
  EXPECT_EQ(b.col(1).F64At(1), 1.5);
  EXPECT_EQ(b.col(2).StringAt(0), "a");
  // Both "a" rows share one dictionary code.
  EXPECT_EQ(b.col(2).CodeAt(0), b.col(2).CodeAt(2));
  EXPECT_EQ(b.col(3).I64At(0), 10957);
}

TEST(ColumnarBatchTest, PayloadBytesShrinksWithCompactionUnlikeFootprint) {
  std::vector<int64_t> keys(1024);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = static_cast<int64_t>(i);
  Batch b = testing::MakeKeyBatch(keys);
  const size_t payload_before = b.PayloadBytes();
  const size_t footprint_before = b.FootprintBytes();
  EXPECT_GE(payload_before, 1024 * sizeof(int64_t));

  b.CompactInPlace({0, 1, 2, 3});
  // Payload tracks live rows; footprint keeps charging retained capacity.
  EXPECT_LE(b.PayloadBytes(), 4 * sizeof(int64_t) + 8);
  EXPECT_LT(b.PayloadBytes(), payload_before / 64);
  EXPECT_GE(b.FootprintBytes(), footprint_before / 2);
}

}  // namespace
}  // namespace pushsip
