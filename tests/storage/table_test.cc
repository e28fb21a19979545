#include "storage/table.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "storage/catalog.h"
#include "tests/testing/stats_reference.h"
#include "tests/testing/test_rng.h"

namespace pushsip {
namespace {

TablePtr MakeSmallTable() {
  auto t = std::make_shared<Table>(
      "t", Schema({Field{"t.id", TypeId::kInt64, kInvalidAttr},
                   Field{"t.grp", TypeId::kInt64, kInvalidAttr},
                   Field{"t.name", TypeId::kString, kInvalidAttr}}));
  for (int64_t i = 0; i < 10; ++i) {
    std::string name("n");
    name += std::to_string(i % 2);
    t->AppendRow(Tuple({Value::Int64(i), Value::Int64(i % 3),
                        Value::String(std::move(name))}));
  }
  return t;
}

TEST(TableTest, RowsAndSchema) {
  auto t = MakeSmallTable();
  EXPECT_EQ(t->num_rows(), 10u);
  EXPECT_EQ(t->schema().num_fields(), 3u);
}

TEST(TableTest, ComputeStatsDistinctCounts) {
  auto t = MakeSmallTable();
  t->ComputeStats();
  EXPECT_EQ(t->column_stats(0).distinct_count, 10);
  EXPECT_EQ(t->column_stats(1).distinct_count, 3);
  EXPECT_EQ(t->column_stats(2).distinct_count, 2);
}

TEST(TableTest, ComputeStatsMinMax) {
  auto t = MakeSmallTable();
  t->ComputeStats();
  EXPECT_EQ(t->column_stats(0).min_value.AsInt64(), 0);
  EXPECT_EQ(t->column_stats(0).max_value.AsInt64(), 9);
  EXPECT_EQ(t->column_stats(2).min_value.AsString(), "n0");
  EXPECT_EQ(t->column_stats(2).max_value.AsString(), "n1");
}

TEST(TableTest, StatsIgnoreNulls) {
  auto t = std::make_shared<Table>(
      "n", Schema({Field{"n.x", TypeId::kInt64, kInvalidAttr}}));
  t->AppendRow(Tuple({Value::Null()}));
  t->AppendRow(Tuple({Value::Int64(5)}));
  t->ComputeStats();
  EXPECT_EQ(t->column_stats(0).distinct_count, 1);
  EXPECT_EQ(t->column_stats(0).min_value.AsInt64(), 5);
}

TEST(TableTest, ComputeStatsMatchesRowByRowReference) {
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double kDoubles[] = {kNaN, -0.0, 0.0, 1.5, -2.25, 3.0, 1e300,
                             -std::numeric_limits<double>::infinity()};
  // Integral doubles: a narrow range (first five) and two far-out values
  // that push the distinct count off the range bitmap.
  const double kWhole[] = {-0.0, 0.0, 3.0, -7.0, 42.0, 1e12, -0x1p63};
  const int64_t kWideInts[] = {std::numeric_limits<int64_t>::min(),
                               std::numeric_limits<int64_t>::max(),
                               int64_t{1} << 40};
  Random rng = testing::SeededRandom(211);
  for (int iter = 0; iter < 60; ++iter) {
    PUSHSIP_SEED_TRACE(testing::TestSeed());
    const size_t rows = static_cast<size_t>(rng.UniformInt(0, 300));
    const double null_p = rng.Bernoulli(0.3) ? 0.0 : 0.2;
    const auto is_null = [&] { return rng.Bernoulli(null_p); };

    // Narrow integer ranges take the range bitmap, wide ones the hash
    // counter.
    const bool wide = rng.Bernoulli(0.5);
    Column ints(TypeId::kInt64);
    Column whole(TypeId::kDouble);
    Column dates(TypeId::kDate);
    Column doubles(TypeId::kDouble);
    Column strings(TypeId::kString);
    // A decoder-style dictionary: "b" sits under codes 0 and 2, code 3 is
    // a hole no row references.
    auto dict = std::make_shared<StringDict>();
    dict->SetEntry(0, "b");
    dict->SetEntry(1, "a");
    dict->SetEntry(2, "b");
    dict->SetEntry(4, "c");
    const uint32_t kCodes[] = {0, 1, 2, 4};
    Column coded = Column::StringWithDict(dict);
    Column mixed;  // int/double/string Values: the variant fallback
    Column untyped;
    for (size_t r = 0; r < rows; ++r) {
      if (is_null()) {
        ints.AppendNull();
      } else {
        ints.AppendI64(wide && rng.Bernoulli(0.1)
                           ? kWideInts[rng.UniformInt(0, 2)]
                           : rng.UniformInt(-50, 50));
      }
      if (is_null()) {
        whole.AppendNull();
      } else {
        whole.AppendF64(kWhole[rng.UniformInt(0, wide ? 6 : 4)]);
      }
      if (is_null()) {
        dates.AppendNull();
      } else {
        dates.AppendI64(rng.UniformInt(9000, 9100));
      }
      if (is_null()) {
        doubles.AppendNull();
      } else {
        doubles.AppendF64(kDoubles[rng.UniformInt(0, 7)]);
      }
      if (is_null()) {
        strings.AppendNull();
      } else {
        std::string s("s");
        s += std::to_string(rng.UniformInt(0, 20));
        strings.AppendValue(Value::String(std::move(s)));
      }
      if (is_null()) {
        coded.AppendNull();
      } else {
        coded.AppendCode(kCodes[rng.UniformInt(0, 3)]);
      }
      switch (rng.UniformInt(0, 3)) {
        case 0:
          mixed.AppendNull();
          break;
        case 1:
          mixed.AppendValue(Value::Int64(rng.UniformInt(0, 4)));
          break;
        case 2:
          mixed.AppendValue(Value::Double(kDoubles[rng.UniformInt(1, 5)]));
          break;
        default:
          mixed.AppendValue(Value::String("m"));
          break;
      }
      untyped.AppendNull();
    }
    Batch batch;
    for (Column* c : {&ints, &dates, &doubles, &strings, &coded, &mixed,
                      &untyped, &whole}) {
      batch.AddColumn(std::move(*c));
    }
    auto t = std::make_shared<Table>(
        "s", Schema({Field{"s.i", TypeId::kInt64, kInvalidAttr},
                     Field{"s.d", TypeId::kDate, kInvalidAttr},
                     Field{"s.f", TypeId::kDouble, kInvalidAttr},
                     Field{"s.s", TypeId::kString, kInvalidAttr},
                     Field{"s.c", TypeId::kString, kInvalidAttr},
                     Field{"s.m", TypeId::kInt64, kInvalidAttr},
                     Field{"s.n", TypeId::kNull, kInvalidAttr},
                     Field{"s.w", TypeId::kDouble, kInvalidAttr}}));
    t->AppendBatch(batch);
    ASSERT_EQ(t->num_rows(), rows);
    // The table column shares the code-addressed dictionary as is.
    if (rows > 0) {
      EXPECT_EQ(t->col(4).dict().get(), dict.get());
    }
    if (rows >= 50) {
      EXPECT_TRUE(t->col(5).is_variant());
    }
    t->ComputeStats();
    SCOPED_TRACE("iter " + std::to_string(iter));
    testing::ExpectStatsMatchReference(*t);
  }
}

TEST(TableTest, ComputeStatsKeepsFirstOfEqualDoubles) {
  auto t = std::make_shared<Table>(
      "z", Schema({Field{"z.f", TypeId::kDouble, kInvalidAttr}}));
  for (const double v : {-0.0, 0.0, std::nan("")}) {
    t->AppendRow(Tuple({Value::Double(v)}));
  }
  t->ComputeStats();
  // -0.0 and 0.0 compare equal, the NaN compares equal to everything: the
  // first row wins both ends, and HashOfDouble folds the zeros.
  EXPECT_TRUE(std::signbit(t->column_stats(0).min_value.AsDouble()));
  EXPECT_TRUE(std::signbit(t->column_stats(0).max_value.AsDouble()));
  EXPECT_EQ(t->column_stats(0).distinct_count, 2);
}

TEST(TableTest, KeysAndForeignKeys) {
  auto t = MakeSmallTable();
  t->SetPrimaryKey({0});
  t->AddForeignKey(1, "other", 0);
  EXPECT_EQ(t->primary_key(), std::vector<int>{0});
  ASSERT_EQ(t->foreign_keys().size(), 1u);
  EXPECT_EQ(t->foreign_keys()[0].ref_table, "other");
}

TEST(CatalogTest, RegisterAndLookup) {
  Catalog c;
  ASSERT_TRUE(c.RegisterTable(MakeSmallTable()).ok());
  EXPECT_TRUE(c.HasTable("t"));
  auto r = c.GetTable("t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->num_rows(), 10u);
}

TEST(CatalogTest, DuplicateRegistrationFails) {
  Catalog c;
  ASSERT_TRUE(c.RegisterTable(MakeSmallTable()).ok());
  EXPECT_EQ(c.RegisterTable(MakeSmallTable()).code(),
            StatusCode::kAlreadyExists);
}

TEST(CatalogTest, MissingTableFails) {
  Catalog c;
  EXPECT_EQ(c.GetTable("ghost").status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(c.RegisterTable(nullptr).ok());
}

TEST(CatalogTest, TableNamesSorted) {
  Catalog c;
  auto t1 = std::make_shared<Table>("zeta", Schema{});
  auto t2 = std::make_shared<Table>("alpha", Schema{});
  ASSERT_TRUE(c.RegisterTable(t1).ok());
  ASSERT_TRUE(c.RegisterTable(t2).ok());
  EXPECT_EQ(c.TableNames(), (std::vector<std::string>{"alpha", "zeta"}));
}

}  // namespace
}  // namespace pushsip
