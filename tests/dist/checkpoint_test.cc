// Unit coverage of the stateful-recovery building blocks (ctest labels:
// dist, chaos): operator state snapshot/restore round-trips (hash join,
// hash aggregate, distinct), the ExchangeChannel recovery surface
// (CloseConsumed, DrainAndReopen), and the per-site delivered-filter
// ledger PublishFragment replays onto migration targets. End-to-end
// checkpointed recovery lives in stateful_chaos_test.cc.
#include "dist/checkpoint.h"

#include <atomic>
#include <thread>

#include <gtest/gtest.h>

#include "dist/site_engine.h"
#include "exec/distinct.h"
#include "exec/hash_aggregate.h"
#include "exec/hash_join.h"
#include "exec/sink.h"
#include "tests/exec/exec_test_util.h"
#include "tests/testing/catalog_factory.h"

namespace pushsip {
namespace {

using testing::TinyTpchCatalog;
using testutil::MakeIntTable;

Schema TwoIntSchema(const std::string& name) {
  return Schema({Field{name + ".a", TypeId::kInt64, kInvalidAttr},
                 Field{name + ".b", TypeId::kInt64, kInvalidAttr}});
}

Batch IntBatch(const std::vector<std::pair<int64_t, int64_t>>& rows) {
  std::vector<Tuple> tuples;
  for (const auto& [a, b] : rows) {
    tuples.emplace_back(Tuple({Value::Int64(a), Value::Int64(b)}));
  }
  return Batch::FromRows(tuples);
}

void ExpectSameRowsInOrder(const std::vector<Tuple>& want,
                           const std::vector<Tuple>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t r = 0; r < want.size(); ++r) {
    ASSERT_EQ(want[r].size(), got[r].size()) << "row " << r;
    for (size_t c = 0; c < want[r].size(); ++c) {
      const Value& w = want[r].at(c);
      const Value& g = got[r].at(c);
      ASSERT_EQ(w.is_null(), g.is_null()) << "row " << r << " col " << c;
      if (!w.is_null()) {
        EXPECT_EQ(w.ToString(), g.ToString())
            << "row " << r << " col " << c;
      }
    }
  }
}

// A join restored from a snapshot must probe exactly like the original —
// same matches, same emission order (RestoreState re-inserts rows in the
// serialized order, reproducing bucket-chain order).
TEST(OperatorSnapshotTest, HashJoinRoundTripReproducesEmissionOrder) {
  const Schema left = TwoIntSchema("l");
  const Schema right = TwoIntSchema("r");
  auto make_join = [&](ExecContext* ctx, Sink* sink) {
    auto join = std::make_unique<SymmetricHashJoin>(
        ctx, "join", left, right, std::vector<int>{0}, std::vector<int>{0});
    join->SetOutput(sink);
    return join;
  };

  ExecContext ctx_a, ctx_b;
  Sink sink_a(&ctx_a, "sink", Schema::Concat(left, right));
  Sink sink_b(&ctx_b, "sink", Schema::Concat(left, right));
  auto join_a = make_join(&ctx_a, &sink_a);
  auto join_b = make_join(&ctx_b, &sink_b);

  // Build state arrives in two pushes; the snapshot is taken mid-build
  // (before the probe side has sent anything) — the crash point the
  // checkpointer protects.
  ASSERT_TRUE(join_a->Push(0, IntBatch({{1, 10}, {2, 20}, {2, 21}})).ok());
  ASSERT_TRUE(join_a->Push(0, IntBatch({{3, 30}, {2, 22}})).ok());

  std::string meta;
  std::vector<Batch> state;
  ASSERT_TRUE(join_a->SupportsStateSnapshot());
  ASSERT_TRUE(join_a->SnapshotState(&meta, &state).ok());
  ASSERT_FALSE(state.empty());
  ASSERT_TRUE(join_b->RestoreState(meta, std::move(state)).ok());

  // Identical continuation on both: the rest of the build, then the probe.
  for (Operator* join : {join_a.get(), join_b.get()}) {
    ASSERT_TRUE(join->Push(0, IntBatch({{4, 40}})).ok());
    ASSERT_TRUE(join->Finish(0).ok());
    ASSERT_TRUE(
        join->Push(1, IntBatch({{2, 200}, {3, 300}, {5, 500}, {2, 201}}))
            .ok());
    ASSERT_TRUE(join->Finish(1).ok());
  }
  ASSERT_TRUE(sink_a.finished());
  ASSERT_TRUE(sink_b.finished());
  EXPECT_EQ(sink_a.num_rows(), 7);  // key 2: 3x2, key 3: 1x1, key 4/5: none
  ExpectSameRowsInOrder(sink_a.rows(), sink_b.rows());
}

// An aggregate restored mid-stream continues accumulating into the
// snapshotted groups and finalizes to the uninterrupted run's output.
TEST(OperatorSnapshotTest, HashAggregateRoundTripContinuesExactly) {
  const Schema in = TwoIntSchema("t");
  std::vector<AggSpec> aggs;
  aggs.push_back(AggSpec{AggFunc::kSum, Col(1, TypeId::kInt64), "s"});
  aggs.push_back(AggSpec{AggFunc::kCount, nullptr, "c"});
  const Schema out = HashAggregate::MakeOutputSchema(in, {0}, aggs);

  ExecContext ctx_a, ctx_b;
  Sink sink_a(&ctx_a, "sink", out);
  Sink sink_b(&ctx_b, "sink", out);
  HashAggregate agg_a(&ctx_a, "agg", in, {0}, aggs);
  HashAggregate agg_b(&ctx_b, "agg", in, {0}, aggs);
  agg_a.SetOutput(&sink_a);
  agg_b.SetOutput(&sink_b);

  ASSERT_TRUE(agg_a.Push(0, IntBatch({{1, 5}, {2, 7}, {1, 9}})).ok());
  std::string meta;
  std::vector<Batch> state;
  ASSERT_TRUE(agg_a.SnapshotState(&meta, &state).ok());
  ASSERT_TRUE(agg_b.RestoreState(meta, std::move(state)).ok());
  EXPECT_EQ(agg_b.NumGroups(), agg_a.NumGroups());

  for (HashAggregate* agg : {&agg_a, &agg_b}) {
    ASSERT_TRUE(agg->Push(0, IntBatch({{2, 1}, {3, 4}})).ok());
    ASSERT_TRUE(agg->Finish(0).ok());
  }
  ASSERT_TRUE(sink_a.finished());
  ASSERT_TRUE(sink_b.finished());
  EXPECT_EQ(sink_a.num_rows(), 3);
  ExpectSameRowsInOrder(sink_a.rows(), sink_b.rows());
}

// The results_emitted flag travels in the snapshot meta: an aggregate that
// had already emitted before the cut re-signals finish after a restore
// without double-emitting rows the downstream state already incorporated.
TEST(OperatorSnapshotTest, HashAggregateRestoreHonorsResultsEmitted) {
  const Schema in = TwoIntSchema("t");
  std::vector<AggSpec> aggs;
  aggs.push_back(AggSpec{AggFunc::kSum, Col(1, TypeId::kInt64), "s"});
  const Schema out = HashAggregate::MakeOutputSchema(in, {0}, aggs);

  ExecContext ctx_a, ctx_b;
  Sink sink_a(&ctx_a, "sink", out);
  Sink sink_b(&ctx_b, "sink", out);
  HashAggregate agg_a(&ctx_a, "agg", in, {0}, aggs);
  HashAggregate agg_b(&ctx_b, "agg", in, {0}, aggs);
  agg_a.SetOutput(&sink_a);
  agg_b.SetOutput(&sink_b);

  ASSERT_TRUE(agg_a.Push(0, IntBatch({{1, 5}, {2, 7}})).ok());
  ASSERT_TRUE(agg_a.Finish(0).ok());
  EXPECT_EQ(sink_a.num_rows(), 2);

  std::string meta;
  std::vector<Batch> state;
  ASSERT_TRUE(agg_a.SnapshotState(&meta, &state).ok());
  ASSERT_TRUE(agg_b.RestoreState(meta, std::move(state)).ok());
  ASSERT_TRUE(agg_b.Finish(0).ok());
  EXPECT_TRUE(sink_b.finished());
  EXPECT_EQ(sink_b.num_rows(), 0);  // already delivered before the cut
}

// Distinct restored from a snapshot still suppresses every tuple the
// snapshotted run had already emitted.
TEST(OperatorSnapshotTest, DistinctRoundTripSuppressesSeenTuples) {
  const Schema schema = TwoIntSchema("t");
  ExecContext ctx_a, ctx_b;
  Sink sink_a(&ctx_a, "sink", schema);
  Sink sink_b(&ctx_b, "sink", schema);
  DistinctOp dist_a(&ctx_a, "distinct", schema);
  DistinctOp dist_b(&ctx_b, "distinct", schema);
  dist_a.SetOutput(&sink_a);
  dist_b.SetOutput(&sink_b);

  ASSERT_TRUE(dist_a.Push(0, IntBatch({{1, 1}, {2, 2}, {3, 3}})).ok());
  EXPECT_EQ(sink_a.num_rows(), 3);

  std::string meta;
  std::vector<Batch> state;
  ASSERT_TRUE(dist_a.SnapshotState(&meta, &state).ok());
  ASSERT_TRUE(dist_b.RestoreState(meta, std::move(state)).ok());
  EXPECT_EQ(dist_b.NumDistinct(), 3);

  // {2,2} and {3,3} were seen before the cut: only {4,4} is new.
  ASSERT_TRUE(dist_b.Push(0, IntBatch({{2, 2}, {4, 4}, {3, 3}})).ok());
  ASSERT_TRUE(dist_b.Finish(0).ok());
  ASSERT_TRUE(sink_b.finished());
  ASSERT_EQ(sink_b.num_rows(), 1);
  EXPECT_EQ(sink_b.rows()[0].at(0).AsInt64(), 4);
}

// CloseConsumed unblocks producers parked on a full queue and silently
// discards later sends — the guarantee that lets a stateful recovery
// replay every producer without deadlocking on channels whose consumers
// already finished.
TEST(ExchangeChannelRecoveryTest, CloseConsumedUnblocksAndDiscards) {
  ExchangeChannel channel(/*capacity=*/2);
  channel.set_num_senders(1);
  ASSERT_TRUE(channel.SendBatch("a"));
  ASSERT_TRUE(channel.SendBatch("b"));

  std::atomic<bool> third_sent{false};
  std::thread blocked([&] {
    channel.SendBatch("c");  // parks on the frame cap
    third_sent.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_sent.load());

  channel.CloseConsumed();
  blocked.join();
  EXPECT_TRUE(third_sent.load());

  // A replaying producer can now stream far past the caps without ever
  // blocking; nothing accumulates.
  const size_t queued_before = channel.queued_frames();
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(channel.SendBatch("replay"));
  }
  EXPECT_EQ(channel.queued_frames(), queued_before);
}

// DrainAndReopen discards everything queued (reporting transport credit
// tokens to the drain hook, exactly as a consume would) and rearms the
// channel for the restored receiver.
TEST(ExchangeChannelRecoveryTest, DrainAndReopenDiscardsAndRearms) {
  ExchangeChannel channel(/*capacity=*/8);
  channel.set_num_senders(1);
  int64_t credited = 0;
  channel.SetDrainHook(
      [&](uint64_t /*token*/, size_t /*bytes*/) { ++credited; });
  ASSERT_TRUE(channel.SendBatch("stale1"));
  ASSERT_TRUE(channel.ForcePush("stale2", /*token=*/7));
  channel.SendFinish(/*slot=*/0);
  EXPECT_EQ(channel.queued_frames(), 2u);

  channel.DrainAndReopen();
  EXPECT_EQ(channel.queued_frames(), 0u);
  EXPECT_EQ(credited, 1);  // only the transport-delivered frame held credit

  // The finish count was cleared with the queue: the channel now carries a
  // fresh stream ending in a fresh finish.
  ASSERT_TRUE(channel.SendBatch("fresh"));
  channel.SendFinish(/*slot=*/0);
  std::string bytes;
  ASSERT_EQ(channel.Receive(&bytes, std::chrono::milliseconds(100)),
            ExchangeChannel::RecvStatus::kMessage);
  EXPECT_EQ(bytes, "fresh");
  EXPECT_EQ(channel.Receive(&bytes, std::chrono::milliseconds(100)),
            ExchangeChannel::RecvStatus::kEndOfStream);
}

// The delivered-filter ledger: a fragment published after an AIP delivery
// (a migration target) starts with every filter its site already received,
// and re-deliveries of the same label are not double-applied.
TEST(DeliveredFilterLedgerTest, PublishFragmentReattachesDeliveredFilters) {
  auto catalog = TinyTpchCatalog();
  SiteEngine site(0, "site0", catalog);
  const TablePtr lineitem = *catalog->GetTable("lineitem");
  const Schema schema = MakeInstanceSchema(*lineitem, "l", 1);
  const AttrId partkey = schema.field(1).attr;  // l.l_partkey

  PlanBuilder& before = site.NewFragment();
  ASSERT_TRUE(before.ScanShard("lineitem", schema).ok());

  auto set = std::make_shared<AipSet>(AipSetKind::kBloom, 64);
  set->Insert(42);
  set->Seal();
  EXPECT_EQ(site.AttachRemoteFilter(partkey, set, "aip:q17-part"), 1);
  TableScan* before_scan = before.source_scans()[0];
  EXPECT_TRUE(before_scan->HasSourceFilter("aip:q17-part"));
  // Idempotent per label: the re-delivery counts the covered scan but does
  // not stack a second filter.
  EXPECT_EQ(site.AttachRemoteFilter(partkey, set, "aip:q17-part"), 1);

  // The migration path: a fragment built detached mid-query receives the
  // ledger's deliveries the moment it is published. Rebuild recipes reuse
  // the original instance schema, so the AttrIds line up with the ledger.
  auto rebuilt = site.NewDetachedFragment();
  ASSERT_TRUE(rebuilt->ScanShard("lineitem", schema).ok());
  PlanBuilder& published = site.PublishFragment(std::move(rebuilt));
  ASSERT_EQ(published.source_scans().size(), 1u);
  EXPECT_TRUE(published.source_scans()[0]->HasSourceFilter("aip:q17-part"));
  EXPECT_EQ(site.filters_reattached(), 1);

  // A fragment without the attribute is left alone.
  auto unrelated = site.NewDetachedFragment();
  const TablePtr part = *catalog->GetTable("part");
  ASSERT_TRUE(
      unrelated->ScanShard("part", MakeInstanceSchema(*part, "p", 3)).ok());
  PlanBuilder& published2 = site.PublishFragment(std::move(unrelated));
  EXPECT_FALSE(
      published2.source_scans()[0]->HasSourceFilter("aip:q17-part"));
  EXPECT_EQ(site.filters_reattached(), 1);
}

}  // namespace
}  // namespace pushsip
