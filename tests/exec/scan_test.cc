#include "exec/scan.h"

#include <gtest/gtest.h>

#include "exec/sink.h"
#include "tests/exec/exec_test_util.h"
#include "util/stopwatch.h"
#include "workload/plan_builder.h"

namespace pushsip {
namespace {

using testutil::MakeIntTable;
using testutil::MakeScan;

TEST(ScanTest, StreamsAllRowsInOrder) {
  ExecContext ctx;
  auto table = MakeIntTable("t", {{1, 10}, {2, 20}, {3, 30}});
  auto scan = MakeScan(&ctx, table);
  Sink sink(&ctx, "sink", table->schema());
  scan->SetOutput(&sink);
  ASSERT_TRUE(scan->Run().ok());
  ASSERT_TRUE(sink.finished());
  ASSERT_EQ(sink.num_rows(), 3);
  EXPECT_EQ(sink.rows()[0].at(0).AsInt64(), 1);
  EXPECT_EQ(sink.rows()[2].at(1).AsInt64(), 30);
  EXPECT_EQ(scan->rows_scanned(), 3);
}

TEST(ScanTest, BatchesRespectBatchSize) {
  ExecContext ctx;
  ctx.set_batch_size(2);
  std::vector<std::pair<int64_t, int64_t>> rows;
  for (int64_t i = 0; i < 7; ++i) rows.push_back({i, i});
  auto table = MakeIntTable("t", rows);
  auto scan = MakeScan(&ctx, table);
  Sink sink(&ctx, "sink", table->schema());
  scan->SetOutput(&sink);
  ASSERT_TRUE(scan->Run().ok());
  EXPECT_EQ(sink.num_rows(), 7);
  EXPECT_EQ(sink.rows_in(0), 7);
}

TEST(ScanTest, InitialDelayObserved) {
  ExecContext ctx;
  auto table = MakeIntTable("t", {{1, 1}});
  ScanOptions opts;
  opts.initial_delay_ms = 50;
  auto scan = MakeScan(&ctx, table, opts);
  Sink sink(&ctx, "sink", table->schema());
  scan->SetOutput(&sink);
  Stopwatch timer;
  ASSERT_TRUE(scan->Run().ok());
  EXPECT_GE(timer.ElapsedMillis(), 45.0);
}

TEST(ScanTest, RateLimitDelayObserved) {
  ExecContext ctx;
  std::vector<std::pair<int64_t, int64_t>> rows(100, {1, 1});
  auto table = MakeIntTable("t", rows);
  ScanOptions opts;
  opts.delay_every_rows = 10;
  opts.delay_ms = 5;
  auto scan = MakeScan(&ctx, table, opts);
  Sink sink(&ctx, "sink", table->schema());
  scan->SetOutput(&sink);
  Stopwatch timer;
  ASSERT_TRUE(scan->Run().ok());
  // 100 rows / 10 per delay => 10 sleeps of 5 ms.
  EXPECT_GE(timer.ElapsedMillis(), 40.0);
}

namespace {
class EvenFilter : public TupleFilter {
 public:
  bool Pass(const Batch& batch, size_t row) const override {
    return batch.col(0).I64At(row) % 2 == 0;
  }
  std::string label() const override { return "even(a)"; }
};
}  // namespace

TEST(ScanTest, SourceFilterPrunesBeforeEmit) {
  ExecContext ctx;
  auto table = MakeIntTable("t", {{1, 1}, {2, 2}, {3, 3}, {4, 4}});
  auto scan = MakeScan(&ctx, table);
  scan->AttachSourceFilter(std::make_shared<EvenFilter>());
  Sink sink(&ctx, "sink", table->schema());
  scan->SetOutput(&sink);
  ASSERT_TRUE(scan->Run().ok());
  EXPECT_EQ(sink.num_rows(), 2);
  EXPECT_EQ(scan->rows_source_pruned(), 2);
  EXPECT_EQ(scan->rows_scanned(), 4);
}

TEST(ScanTest, CancellationStopsScan) {
  ExecContext ctx;
  std::vector<std::pair<int64_t, int64_t>> rows(10000, {1, 1});
  auto table = MakeIntTable("t", rows);
  auto scan = MakeScan(&ctx, table);
  Sink sink(&ctx, "sink", table->schema());
  scan->SetOutput(&sink);
  ctx.Cancel();
  const Status st = scan->Run();
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  EXPECT_LT(scan->rows_scanned(), 10000);
}

TEST(ScanTest, FinishPropagatesWithoutRows) {
  ExecContext ctx;
  auto table = MakeIntTable("t", {});
  auto scan = MakeScan(&ctx, table);
  Sink sink(&ctx, "sink", table->schema());
  scan->SetOutput(&sink);
  ASSERT_TRUE(scan->Run().ok());
  EXPECT_TRUE(sink.finished());
  EXPECT_EQ(sink.num_rows(), 0);
}

// Keeps every batch a scan emits, with the window it was emitted in.
class BatchCollector : public Operator {
 public:
  BatchCollector(ExecContext* ctx, Schema schema, const TableScan* scan)
      : Operator(ctx, "collect", 1, std::move(schema)), scan_(scan) {}
  std::vector<std::pair<uint64_t, Batch>> batches;

 protected:
  Status DoPush(int, Batch&& batch) override {
    batches.emplace_back(scan_->current_window(), std::move(batch));
    return Status::OK();
  }
  Status DoFinish(int) override { return Status::OK(); }

 private:
  const TableScan* scan_;
};

// (id INT64, name STRING, price DOUBLE, tag STRING); id runs 0..n-1.
TablePtr MixedTable(size_t n) {
  Schema schema({Field{"m.id", TypeId::kInt64, kInvalidAttr},
                 Field{"m.name", TypeId::kString, kInvalidAttr},
                 Field{"m.price", TypeId::kDouble, kInvalidAttr},
                 Field{"m.tag", TypeId::kString, kInvalidAttr}});
  auto t = std::make_shared<Table>("m", schema);
  for (size_t i = 0; i < n; ++i) {
    const int64_t id = static_cast<int64_t>(i);
    t->AppendRow(Tuple({Value::Int64(id),
                        Value::String("name" + std::to_string(i % 7)),
                        Value::Double(static_cast<double>(id) * 0.5),
                        Value::String(i % 2 == 0 ? "even" : "odd")}));
  }
  t->ComputeStats();
  return t;
}

TEST(ScanTest, NarrowedScanEmitsOnlyNamedColumns) {
  ExecContext ctx;
  ctx.set_batch_size(4);
  const TablePtr table = MixedTable(10);
  const Schema full = MakeInstanceSchema(*table, "x", 3);
  const Schema narrow = MakeInstanceSchema(*table, "x", 3, {"tag", "id"});
  TableScan scan(&ctx, "scan", table, narrow);
  ASSERT_TRUE(scan.bind_status().ok());
  EXPECT_EQ(scan.table_columns(), (std::vector<int>{3, 0}));
  // Kept fields carry the full schema's AttrIds.
  ASSERT_EQ(narrow.num_fields(), 2u);
  EXPECT_EQ(narrow.field(0).attr, full.field(3).attr);
  EXPECT_EQ(narrow.field(1).attr, full.field(0).attr);
  BatchCollector out(&ctx, narrow, &scan);
  scan.SetOutput(&out);
  ASSERT_TRUE(scan.Run().ok());
  size_t row = 0;
  for (const auto& [window, batch] : out.batches) {
    ASSERT_EQ(batch.num_cols(), 2u);  // exactly the named columns
    // String columns share the table's dictionary: no string is copied.
    EXPECT_EQ(batch.col(0).dict().get(), table->col(3).dict().get());
    for (size_t r = 0; r < batch.size(); ++r, ++row) {
      EXPECT_TRUE(batch.ValueAt(r, 0) == table->row(row).at(3));
      EXPECT_TRUE(batch.ValueAt(r, 1) == table->row(row).at(0));
    }
  }
  EXPECT_EQ(row, table->num_rows());
}

TEST(ScanTest, UnboundSchemaFailsRun) {
  ExecContext ctx;
  const TablePtr table = MixedTable(3);
  Schema wrong({Field{"x.price", TypeId::kInt64, kInvalidAttr}});
  TableScan scan(&ctx, "scan", table, wrong);
  EXPECT_EQ(scan.bind_status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(scan.table_columns().empty());
  Sink sink(&ctx, "sink", wrong);
  scan.SetOutput(&sink);
  EXPECT_EQ(scan.Run().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(scan.rows_scanned(), 0);
}

namespace {
// Keeps the ids (column `col`) in [0, 6) and [12, 24) except 13: over 24
// rows in 4-row windows, window 2 is pruned whole, windows 1 and 3 in part.
class IdRangeFilter : public TupleFilter {
 public:
  explicit IdRangeFilter(size_t col) : col_(col) {}
  bool Pass(const Batch& batch, size_t row) const override {
    const int64_t id = batch.col(col_).I64At(row);
    return id < 6 || (id >= 12 && id != 13);
  }
  std::string label() const override { return "id_range"; }

 private:
  size_t col_;
};
}  // namespace

// Under window_batches a narrowed scan emits the same windows, with the
// same surviving rows, as the full-width scan, and emits them again the
// same way after ResetForReplay.
TEST(ScanTest, NarrowedWindowBatchesReplayTheSameWindows) {
  ExecContext ctx;
  ctx.set_batch_size(4);
  const TablePtr table = MixedTable(24);
  ScanOptions opts;
  opts.window_batches = true;
  const auto windows = [&](const Schema& schema, size_t id_col,
                           bool replay) {
    TableScan scan(&ctx, "scan", table, schema, opts);
    scan.AttachSourceFilter(std::make_shared<IdRangeFilter>(id_col));
    BatchCollector out(&ctx, schema, &scan);
    scan.SetOutput(&out);
    EXPECT_TRUE(scan.Run().ok());
    if (replay) {
      out.batches.clear();
      scan.ResetForReplay();
      out.ResetForReplay();
      EXPECT_TRUE(scan.Run().ok());
    }
    std::vector<std::pair<uint64_t, std::vector<int64_t>>> ids;
    for (const auto& [window, batch] : out.batches) {
      std::vector<int64_t> rows;
      for (size_t r = 0; r < batch.size(); ++r) {
        rows.push_back(batch.col(id_col).I64At(r));
      }
      ids.emplace_back(window, std::move(rows));
    }
    return ids;
  };
  const auto full = windows(MakeInstanceSchema(*table, "x", 0), 0, false);
  const Schema narrow = MakeInstanceSchema(*table, "x", 0, {"price", "id"});
  EXPECT_EQ(windows(narrow, 1, false), full);
  EXPECT_EQ(windows(narrow, 1, true), full);
  ASSERT_EQ(full.size(), 5u);  // every window but the pruned window 2
}

}  // namespace
}  // namespace pushsip
