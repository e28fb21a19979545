#include "exec/distinct.h"

#include <gtest/gtest.h>

#include "exec/sink.h"
#include "tests/exec/exec_test_util.h"

namespace pushsip {
namespace {

using testutil::MakeIntTable;
using testutil::MakeScan;
using testutil::SameBag;

TEST(DistinctOpTest, RemovesDuplicates) {
  ExecContext ctx;
  auto table = MakeIntTable("t", {{1, 1}, {1, 1}, {2, 2}, {1, 1}, {2, 3}});
  auto scan = MakeScan(&ctx, table);
  DistinctOp distinct(&ctx, "distinct", table->schema());
  Sink sink(&ctx, "sink", table->schema());
  scan->SetOutput(&distinct);
  distinct.SetOutput(&sink);
  ASSERT_TRUE(scan->Run().ok());
  EXPECT_EQ(sink.num_rows(), 3);
  EXPECT_EQ(distinct.NumDistinct(), 3);
}

TEST(DistinctOpTest, EmitsFirstOccurrenceImmediately) {
  // Pipelined distinct: each new tuple is forwarded as soon as it is seen,
  // not at Finish (important for push-style execution).
  ExecContext ctx;
  ctx.set_batch_size(1);
  auto table = MakeIntTable("t", {{5, 5}});
  auto scan = MakeScan(&ctx, table);
  DistinctOp distinct(&ctx, "distinct", table->schema());
  Sink sink(&ctx, "sink", table->schema());
  scan->SetOutput(&distinct);
  distinct.SetOutput(&sink);
  // Push one batch manually without Finish.
  Batch b = table->SliceRows(0, 1, {0, 1});
  ASSERT_TRUE(distinct.Push(0, std::move(b)).ok());
  EXPECT_EQ(sink.num_rows(), 1);
  EXPECT_FALSE(sink.finished());
}

TEST(DistinctOpTest, DistinguishesByAllColumns) {
  ExecContext ctx;
  auto table = MakeIntTable("t", {{1, 1}, {1, 2}});
  auto scan = MakeScan(&ctx, table);
  DistinctOp distinct(&ctx, "distinct", table->schema());
  Sink sink(&ctx, "sink", table->schema());
  scan->SetOutput(&distinct);
  distinct.SetOutput(&sink);
  ASSERT_TRUE(scan->Run().ok());
  EXPECT_EQ(sink.num_rows(), 2);
}

TEST(DistinctOpTest, StateAccounting) {
  ExecContext ctx;
  auto table = MakeIntTable("t", {{1, 1}, {2, 2}, {1, 1}});
  auto scan = MakeScan(&ctx, table);
  DistinctOp distinct(&ctx, "distinct", table->schema());
  Sink sink(&ctx, "sink", table->schema());
  scan->SetOutput(&distinct);
  distinct.SetOutput(&sink);
  ASSERT_TRUE(scan->Run().ok());
  EXPECT_GT(distinct.StateBytes(), 0);
  EXPECT_GE(distinct.PeakStateBytes(), distinct.StateBytes());
  // State sized for 2 distinct tuples, not 3 inputs.
  auto hashes = distinct.StateColumnHashes(0);
  EXPECT_EQ(hashes.size(), 2u);
}

TEST(DistinctOpTest, IsStatefulForAip) {
  ExecContext ctx;
  DistinctOp distinct(&ctx, "d",
                      Schema({Field{"x", TypeId::kInt64, kInvalidAttr}}));
  EXPECT_TRUE(distinct.IsStateful());
}

}  // namespace
}  // namespace pushsip
