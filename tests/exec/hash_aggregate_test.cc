#include "exec/hash_aggregate.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "exec/sink.h"
#include "net/wire_format.h"
#include "tests/exec/exec_test_util.h"
#include "tests/testing/test_rng.h"
#include "util/random.h"

namespace pushsip {
namespace {

using testutil::MakeIntTable;
using testutil::MakeScan;

TEST(HashAggregateTest, GroupBySumCountAvg) {
  ExecContext ctx;
  auto table = MakeIntTable("t", {{1, 10}, {1, 20}, {2, 5}, {2, 5}, {3, 9}});
  auto scan = MakeScan(&ctx, table);
  std::vector<AggSpec> aggs;
  aggs.push_back({AggFunc::kSum, Col(1, TypeId::kInt64), "s", kInvalidAttr});
  aggs.push_back({AggFunc::kCount, nullptr, "c", kInvalidAttr});
  aggs.push_back({AggFunc::kAvg, Col(1, TypeId::kInt64), "a", kInvalidAttr});
  HashAggregate agg(&ctx, "agg", table->schema(), {0}, aggs);
  Sink sink(&ctx, "sink", agg.output_schema());
  scan->SetOutput(&agg);
  agg.SetOutput(&sink);
  ASSERT_TRUE(scan->Run().ok());
  ASSERT_TRUE(sink.finished());
  ASSERT_EQ(sink.num_rows(), 3);

  std::map<int64_t, std::tuple<int64_t, int64_t, double>> got;
  for (const Tuple& row : sink.rows()) {
    got[row.at(0).AsInt64()] = {row.at(1).AsInt64(), row.at(2).AsInt64(),
                                row.at(3).AsDouble()};
  }
  EXPECT_TRUE((got[1] == std::tuple<int64_t, int64_t, double>{30, 2, 15.0}));
  EXPECT_TRUE((got[2] == std::tuple<int64_t, int64_t, double>{10, 2, 5.0}));
  EXPECT_TRUE((got[3] == std::tuple<int64_t, int64_t, double>{9, 1, 9.0}));
}

TEST(HashAggregateTest, MinMaxPerGroup) {
  ExecContext ctx;
  auto table = MakeIntTable("t", {{1, 3}, {1, 7}, {2, 4}});
  auto scan = MakeScan(&ctx, table);
  std::vector<AggSpec> aggs;
  aggs.push_back({AggFunc::kMin, Col(1, TypeId::kInt64), "mn", kInvalidAttr});
  aggs.push_back({AggFunc::kMax, Col(1, TypeId::kInt64), "mx", kInvalidAttr});
  HashAggregate agg(&ctx, "agg", table->schema(), {0}, aggs);
  Sink sink(&ctx, "sink", agg.output_schema());
  scan->SetOutput(&agg);
  agg.SetOutput(&sink);
  ASSERT_TRUE(scan->Run().ok());
  std::map<int64_t, std::pair<int64_t, int64_t>> got;
  for (const Tuple& row : sink.rows()) {
    got[row.at(0).AsInt64()] = {row.at(1).AsInt64(), row.at(2).AsInt64()};
  }
  EXPECT_TRUE((got[1] == std::pair<int64_t, int64_t>{3, 7}));
  EXPECT_TRUE((got[2] == std::pair<int64_t, int64_t>{4, 4}));
}

TEST(HashAggregateTest, ScalarAggregateOverEmptyInput) {
  ExecContext ctx;
  auto table = MakeIntTable("t", {});
  auto scan = MakeScan(&ctx, table);
  std::vector<AggSpec> aggs;
  aggs.push_back({AggFunc::kSum, Col(1, TypeId::kInt64), "s", kInvalidAttr});
  aggs.push_back({AggFunc::kCount, nullptr, "c", kInvalidAttr});
  HashAggregate agg(&ctx, "agg", table->schema(), {}, aggs);
  Sink sink(&ctx, "sink", agg.output_schema());
  scan->SetOutput(&agg);
  agg.SetOutput(&sink);
  ASSERT_TRUE(scan->Run().ok());
  ASSERT_EQ(sink.num_rows(), 1);  // SQL: one row, SUM NULL / COUNT 0
  EXPECT_TRUE(sink.rows()[0].at(0).is_null());
  EXPECT_EQ(sink.rows()[0].at(1).AsInt64(), 0);
}

TEST(HashAggregateTest, GroupByEmptyInputEmitsNothing) {
  ExecContext ctx;
  auto table = MakeIntTable("t", {});
  auto scan = MakeScan(&ctx, table);
  std::vector<AggSpec> aggs;
  aggs.push_back({AggFunc::kSum, Col(1, TypeId::kInt64), "s", kInvalidAttr});
  HashAggregate agg(&ctx, "agg", table->schema(), {0}, aggs);
  Sink sink(&ctx, "sink", agg.output_schema());
  scan->SetOutput(&agg);
  agg.SetOutput(&sink);
  ASSERT_TRUE(scan->Run().ok());
  EXPECT_EQ(sink.num_rows(), 0);
  EXPECT_TRUE(sink.finished());
}

TEST(HashAggregateTest, OutputSchemaKeepsKeyAttrIds) {
  Schema in({Field{"t.k", TypeId::kInt64, 42},
             Field{"t.v", TypeId::kInt64, 43}});
  std::vector<AggSpec> aggs;
  aggs.push_back({AggFunc::kSum, Col(1, TypeId::kInt64), "s", kInvalidAttr});
  const Schema out = HashAggregate::MakeOutputSchema(in, {0}, aggs);
  ASSERT_EQ(out.num_fields(), 2u);
  // Group key keeps its AttrId — the property AIP uses to correlate across
  // blocking aggregation (paper §III).
  EXPECT_EQ(out.field(0).attr, 42);
  EXPECT_EQ(out.field(1).attr, kInvalidAttr);
  EXPECT_EQ(out.field(1).name, "s");
}

TEST(HashAggregateTest, StateAccountingAndHashes) {
  ExecContext ctx;
  auto table = MakeIntTable("t", {{1, 1}, {2, 1}, {2, 2}});
  auto scan = MakeScan(&ctx, table);
  std::vector<AggSpec> aggs;
  aggs.push_back({AggFunc::kCount, nullptr, "c", kInvalidAttr});
  HashAggregate agg(&ctx, "agg", table->schema(), {0}, aggs);
  Sink sink(&ctx, "sink", agg.output_schema());
  scan->SetOutput(&agg);
  agg.SetOutput(&sink);
  ASSERT_TRUE(scan->Run().ok());
  EXPECT_EQ(agg.NumGroups(), 2);
  EXPECT_GT(agg.StateBytes(), 0);
  EXPECT_GE(agg.PeakStateBytes(), agg.StateBytes());
  auto hashes = agg.StateColumnHashes(0);
  ASSERT_EQ(hashes.size(), 2u);
  std::sort(hashes.begin(), hashes.end());
  std::vector<uint64_t> expected = {Value::Int64(1).Hash(),
                                    Value::Int64(2).Hash()};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(hashes, expected);
}

TEST(HashAggregateTest, ManyGroupsRandomizedAgainstReference) {
  Random rng(99);
  std::vector<std::pair<int64_t, int64_t>> rows;
  std::map<int64_t, int64_t> ref_sum;
  for (int i = 0; i < 5000; ++i) {
    const int64_t k = rng.UniformInt(0, 200);
    const int64_t v = rng.UniformInt(-100, 100);
    rows.push_back({k, v});
    ref_sum[k] += v;
  }
  ExecContext ctx;
  ctx.set_batch_size(128);
  auto table = MakeIntTable("t", rows);
  auto scan = MakeScan(&ctx, table);
  std::vector<AggSpec> aggs;
  aggs.push_back({AggFunc::kSum, Col(1, TypeId::kInt64), "s", kInvalidAttr});
  HashAggregate agg(&ctx, "agg", table->schema(), {0}, aggs);
  Sink sink(&ctx, "sink", agg.output_schema());
  scan->SetOutput(&agg);
  agg.SetOutput(&sink);
  ASSERT_TRUE(scan->Run().ok());
  ASSERT_EQ(sink.num_rows(), static_cast<int64_t>(ref_sum.size()));
  for (const Tuple& row : sink.rows()) {
    EXPECT_EQ(row.at(1).AsInt64(), ref_sum[row.at(0).AsInt64()]);
  }
}

TEST(HashAggregateTest, CountOfColumnSkipsNulls) {
  ExecContext ctx;
  Schema schema({Field{"t.k", TypeId::kInt64, kInvalidAttr},
                 Field{"t.v", TypeId::kInt64, kInvalidAttr}});
  auto table = std::make_shared<Table>("t", schema);
  table->AppendRow(Tuple({Value::Int64(1), Value::Int64(5)}));
  table->AppendRow(Tuple({Value::Int64(1), Value::Null()}));
  table->AppendRow(Tuple({Value::Int64(2), Value::Null()}));
  table->AppendRow(Tuple({Value::Int64(1), Value::Int64(6)}));
  auto scan = MakeScan(&ctx, table);
  std::vector<AggSpec> aggs;
  aggs.push_back({AggFunc::kCount, Col(1, TypeId::kInt64), "cv",
                  kInvalidAttr});
  aggs.push_back({AggFunc::kCount, nullptr, "c", kInvalidAttr});
  // A computed input takes the per-row Eval path, which must agree.
  aggs.push_back({AggFunc::kCount,
                  Arith(ArithOp::kAdd, Col(1, TypeId::kInt64), LitInt(0)),
                  "cv_eval", kInvalidAttr});
  HashAggregate agg(&ctx, "agg", schema, {0}, aggs);
  Sink sink(&ctx, "sink", agg.output_schema());
  scan->SetOutput(&agg);
  agg.SetOutput(&sink);
  ASSERT_TRUE(scan->Run().ok());
  std::map<int64_t, std::tuple<int64_t, int64_t, int64_t>> got;
  for (const Tuple& row : sink.rows()) {
    got[row.at(0).AsInt64()] = {row.at(1).AsInt64(), row.at(2).AsInt64(),
                                row.at(3).AsInt64()};
  }
  // COUNT(v) counts the non-NULL v; COUNT(*) counts every row.
  using Counts = std::tuple<int64_t, int64_t, int64_t>;
  EXPECT_TRUE((got[1] == Counts{2, 3, 2}));
  EXPECT_TRUE((got[2] == Counts{0, 1, 0}));
}

// A bare column reference that hides its column index, so HashAggregate
// folds it through the per-row Eval path: the reference for the typed
// fold.
class EvalOnlyCol : public Expression {
 public:
  EvalOnlyCol(int index, TypeId type) : col_(Col(index, type)) {}
  Value Eval(const Batch& batch, size_t row) const override {
    return col_->Eval(batch, row);
  }
  TypeId type() const override { return col_->type(); }
  std::string ToString() const override { return col_->ToString(); }

 private:
  ExprPtr col_;
};

// Rows (k, i, d, v): a group key in [0, 6) with some NULL keys, an INT64
// and a DOUBLE column with NULLs, and a column mixing INT64 and DOUBLE
// values, which Column stores as a variant.
std::vector<Batch> FoldInput(Random* rng, size_t batches, size_t rows) {
  std::vector<Batch> out;
  for (size_t b = 0; b < batches; ++b) {
    Batch batch;
    batch.SetArity(4);
    for (size_t r = 0; r < rows; ++r) {
      const auto maybe_null = [&](Value v) {
        return rng->UniformInt(0, 5) == 0 ? Value::Null() : std::move(v);
      };
      batch.AppendRow(std::vector<Value>{
          maybe_null(Value::Int64(rng->UniformInt(0, 5))),
          maybe_null(Value::Int64(rng->UniformInt(-1000, 1000))),
          maybe_null(Value::Double(
              static_cast<double>(rng->UniformInt(-100000, 100000)) / 7.0)),
          rng->UniformInt(0, 1) == 0
              ? Value::Int64(rng->UniformInt(-50, 50))
              : Value::Double(static_cast<double>(rng->UniformInt(0, 999)) /
                              3.0)});
    }
    out.push_back(std::move(batch));
  }
  return out;
}

std::vector<AggSpec> FoldSpecs(bool eval_only) {
  const auto input = [eval_only](int c, TypeId t) -> ExprPtr {
    if (eval_only) return std::make_shared<EvalOnlyCol>(c, t);
    return Col(c, t);
  };
  std::vector<AggSpec> aggs;
  const AggFunc funcs[] = {AggFunc::kSum, AggFunc::kAvg, AggFunc::kCount,
                           AggFunc::kMin, AggFunc::kMax};
  const std::pair<int, TypeId> inputs[] = {{1, TypeId::kInt64},
                                           {2, TypeId::kDouble},
                                           {3, TypeId::kDouble}};
  for (const auto& [c, t] : inputs) {
    for (const AggFunc f : funcs) {
      aggs.push_back({f, input(c, t),
                      std::string(AggFuncName(f)) + std::to_string(c),
                      kInvalidAttr});
    }
  }
  aggs.push_back({AggFunc::kCount, nullptr, "count_star", kInvalidAttr});
  return aggs;
}

Schema FoldSchema() {
  return Schema({Field{"t.k", TypeId::kInt64, kInvalidAttr},
                 Field{"t.i", TypeId::kInt64, kInvalidAttr},
                 Field{"t.d", TypeId::kDouble, kInvalidAttr},
                 Field{"t.v", TypeId::kDouble, kInvalidAttr}});
}

// Pushes `input` through an aggregate and returns its result rows, in
// emission order. With `snapshot_after` >= 0 the first aggregate stops
// after that many batches; its state goes through SnapshotState, the wire
// encoding and RestoreState into a second aggregate, which takes the rest.
std::vector<Tuple> RunFold(const std::vector<Batch>& input, bool eval_only,
                           bool grouped, int snapshot_after = -1) {
  ExecContext ctx;
  ctx.set_batch_size(64);
  const std::vector<int> group_cols =
      grouped ? std::vector<int>{0} : std::vector<int>{};
  auto agg = std::make_unique<HashAggregate>(&ctx, "agg", FoldSchema(),
                                             group_cols, FoldSpecs(eval_only));
  Sink sink(&ctx, "sink", agg->output_schema());
  agg->SetOutput(&sink);
  for (size_t b = 0; b < input.size(); ++b) {
    if (static_cast<int>(b) == snapshot_after) {
      std::string meta;
      std::vector<Batch> state;
      agg->SnapshotState(&meta, &state).CheckOK();
      std::vector<Batch> restored;
      for (const Batch& s : state) {
        restored.push_back(DeserializeBatch(SerializeBatch(s)).ValueOrDie());
      }
      agg = std::make_unique<HashAggregate>(
          &ctx, "agg", FoldSchema(), group_cols, FoldSpecs(eval_only));
      agg->SetOutput(&sink);
      agg->RestoreState(meta, std::move(restored)).CheckOK();
    }
    Batch copy = input[b];
    agg->Push(0, std::move(copy)).CheckOK();
  }
  agg->Finish(0).CheckOK();
  return sink.rows();
}

// Same rows, same order, and every value bit for bit (doubles by bits, so
// a differently rounded or differently promoted sum fails).
void ExpectBitIdentical(const std::vector<Tuple>& got,
                        const std::vector<Tuple>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t r = 0; r < got.size(); ++r) {
    ASSERT_EQ(got[r].size(), want[r].size());
    for (size_t c = 0; c < got[r].size(); ++c) {
      const Value& g = got[r].at(c);
      const Value& w = want[r].at(c);
      ASSERT_EQ(g.type(), w.type()) << "row " << r << " col " << c;
      if (g.type() == TypeId::kDouble) {
        const double gd = g.AsDouble();
        const double wd = w.AsDouble();
        EXPECT_EQ(std::memcmp(&gd, &wd, sizeof(double)), 0)
            << "row " << r << " col " << c << ": " << gd << " vs " << wd;
      } else {
        EXPECT_TRUE(g == w) << "row " << r << " col " << c << ": "
                            << g.ToString() << " vs " << w.ToString();
      }
    }
  }
}

TEST(HashAggregateTest, TypedFoldBitIdenticalToEvalReference) {
  PUSHSIP_SEED_TRACE(testing::TestSeed());
  Random rng = testing::SeededRandom(21);
  const std::vector<Batch> input = FoldInput(&rng, 12, 97);
  ASSERT_FALSE(input[0].col(1).is_variant());
  ASSERT_FALSE(input[0].col(2).is_variant());
  ASSERT_TRUE(input[0].col(3).is_variant());
  for (const bool grouped : {true, false}) {
    SCOPED_TRACE(grouped ? "grouped" : "ungrouped");
    const std::vector<Tuple> want =
        RunFold(input, /*eval_only=*/true, grouped);
    if (grouped) {
      ASSERT_GT(want.size(), 6u);  // six keys plus one group per NULL key
    } else {
      ASSERT_EQ(want.size(), 1u);
    }
    ExpectBitIdentical(RunFold(input, /*eval_only=*/false, grouped), want);
    // A checkpoint cut mid-stream continues the same accumulation.
    ExpectBitIdentical(
        RunFold(input, /*eval_only=*/false, grouped, /*snapshot_after=*/5),
        want);
  }
}

}  // namespace
}  // namespace pushsip
