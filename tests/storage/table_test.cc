#include "storage/table.h"

#include <cmath>
#include <limits>
#include <thread>

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
    // Untyped until its first non-NULL value (half way), which types it
    // INT64 and backfills the NULL bitmap.
    Column late;
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
      if (r < rows / 2 || is_null()) {
        late.AppendNull();
      } else {
        late.AppendValue(Value::Int64(rng.UniformInt(0, 4)));
      }
      untyped.AppendNull();
    }
    Batch batch;
    for (Column* c : {&ints, &dates, &doubles, &strings, &coded, &late,
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

TEST(TableTest, ShardRoundRobinDealsRowsAndKeepsMetadata) {
  auto t = MakeSmallTable();
  t->SetPrimaryKey({0});
  t->AddForeignKey(1, "other", 0);
  const std::vector<TablePtr> shards = ShardRoundRobin(*t, 3);
  ASSERT_EQ(shards.size(), 3u);
  for (size_t s = 0; s < 3; ++s) {
    const Table& shard = *shards[s];
    EXPECT_EQ(shard.name(), "t");
    EXPECT_EQ(shard.primary_key(), std::vector<int>{0});
    ASSERT_EQ(shard.foreign_keys().size(), 1u);
    ASSERT_TRUE(shard.has_stats());
    // Shard s holds rows s, s+3, ... of the table, in order.
    ASSERT_EQ(shard.num_rows(), (10 - s + 2) / 3);
    for (size_t r = 0; r < shard.num_rows(); ++r) {
      EXPECT_EQ(shard.row(r).ToString(), t->row(s + 3 * r).ToString());
    }
  }
  // Statistics are the shard's own: shard 0 holds ids 0, 3, 6, 9.
  EXPECT_EQ(shards[0]->column_stats(0).distinct_count, 4);
  EXPECT_EQ(shards[0]->column_stats(0).max_value.AsInt64(), 9);
  EXPECT_EQ(shards[0]->column_stats(1).distinct_count, 1);  // grp 0 only
}

/// A table of `rows` distinct ids, statistics computed.
TablePtr MakeIdTable(const std::string& name, int64_t first, int64_t rows) {
  auto t = std::make_shared<Table>(
      name, Schema({Field{name + ".id", TypeId::kInt64, kInvalidAttr}}));
  for (int64_t i = 0; i < rows; ++i) {
    t->AppendRow(Tuple({Value::Int64(first + i)}));
  }
  t->ComputeStats();
  return t;
}

TEST(CatalogTest, ShardsAreComputedOncePerVersionAndSiteCount) {
  Catalog c;
  ASSERT_TRUE(c.RegisterTable(MakeIdTable("t", 0, 100)).ok());
  auto first = c.Shards("t", 4);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->size(), 4u);
  auto again = c.Shards("t", 4);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *first);  // the same tables, not recomputed copies
  // Another site count is another set, memoized on its own.
  auto two = c.Shards("t", 2);
  ASSERT_TRUE(two.ok());
  ASSERT_EQ(two->size(), 2u);
  EXPECT_NE((*two)[0], (*first)[0]);
  EXPECT_EQ(*c.Shards("t", 2), *two);
  EXPECT_EQ(*c.Shards("t", 4), *first);

  EXPECT_EQ(c.Shards("ghost", 4).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(c.Shards("t", 0).status().code(), StatusCode::kInvalidArgument);
}

TEST(CatalogTest, ReplaceTableYieldsNewShardsAndOldHoldersKeepTheirs) {
  Catalog c;
  ASSERT_TRUE(c.RegisterTable(MakeIdTable("t", 0, 10)).ok());
  const std::vector<TablePtr> old_shards = *c.Shards("t", 2);
  ASSERT_TRUE(c.ReplaceTable(MakeIdTable("t", 100, 6)).ok());
  const std::vector<TablePtr> new_shards = *c.Shards("t", 2);
  ASSERT_EQ(new_shards.size(), 2u);
  for (size_t s = 0; s < 2; ++s) {
    EXPECT_NE(new_shards[s], old_shards[s]);
    ASSERT_EQ(new_shards[s]->num_rows(), 3u);
    EXPECT_EQ(new_shards[s]->row(0).at(0).AsInt64(),
              100 + static_cast<int64_t>(s));
    // The old version's shards still read the old rows.
    ASSERT_EQ(old_shards[s]->num_rows(), 5u);
    EXPECT_EQ(old_shards[s]->row(4).at(0).AsInt64(),
              8 + static_cast<int64_t>(s));
  }
}

TEST(CatalogTest, ConcurrentFirstCallsAdoptOneShardSet) {
  Catalog c;
  ASSERT_TRUE(c.RegisterTable(MakeIdTable("t", 0, 20000)).ok());
  constexpr int kThreads = 4;
  std::vector<std::vector<TablePtr>> got(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&c, &got, i] {
      auto shards = c.Shards("t", 3);
      if (shards.ok()) got[static_cast<size_t>(i)] = *shards;
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(got[0].size(), 3u);
  for (size_t i = 1; i < got.size(); ++i) EXPECT_EQ(got[i], got[0]);
  EXPECT_EQ(*c.Shards("t", 3), got[0]);
}

// The shards belong to their table version in their catalog: nothing else
// may keep them alive once both are gone, or every catalog a process ever
// built would stay resident.
TEST(CatalogTest, ShardsDieWithTheirVersionAndCatalog) {
  auto c = std::make_shared<Catalog>();
  ASSERT_TRUE(c->RegisterTable(MakeIdTable("t", 0, 10)).ok());
  std::weak_ptr<Table> replaced = (*c->Shards("t", 2))[0];
  ASSERT_TRUE(c->ReplaceTable(MakeIdTable("t", 0, 10)).ok());
  EXPECT_TRUE(replaced.expired());

  std::weak_ptr<Table> current = (*c->Shards("t", 2))[1];
  EXPECT_FALSE(current.expired());
  c.reset();
  EXPECT_TRUE(current.expired());
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
