#include "exec/hash_join.h"

#include <gtest/gtest.h>

#include <map>
#include <thread>

#include "exec/sink.h"
#include "net/wire_format.h"
#include "tests/exec/exec_test_util.h"
#include "tests/testing/test_rng.h"
#include "util/random.h"

namespace pushsip {
namespace {

using testutil::MakeIntTable;
using testutil::MakeScan;
using testutil::NestedLoopJoin;
using testutil::SameBag;

struct JoinHarness {
  explicit JoinHarness(const TablePtr& left, const TablePtr& right,
                       ExprPtr residual = nullptr)
      : left_scan(MakeScan(&ctx, left)),
        right_scan(MakeScan(&ctx, right)),
        join(&ctx, "join", left->schema(), right->schema(), {0}, {0},
             std::move(residual)),
        sink(&ctx, "sink",
             Schema::Concat(left->schema(), right->schema())) {
    left_scan->SetOutput(&join, 0);
    right_scan->SetOutput(&join, 1);
    join.SetOutput(&sink);
  }

  // Runs both inputs, optionally sequentially in a given order.
  Status RunParallel() {
    Status s1, s2;
    std::thread t1([&] { s1 = left_scan->Run(); });
    std::thread t2([&] { s2 = right_scan->Run(); });
    t1.join();
    t2.join();
    PUSHSIP_RETURN_NOT_OK(s1);
    return s2;
  }

  ExecContext ctx;
  std::unique_ptr<TableScan> left_scan, right_scan;
  SymmetricHashJoin join;
  Sink sink;
};

TEST(SymmetricHashJoinTest, MatchesNestedLoopReference) {
  auto left = MakeIntTable("l", {{1, 10}, {2, 20}, {2, 21}, {3, 30}});
  auto right = MakeIntTable("r", {{2, 200}, {2, 201}, {3, 300}, {4, 400}});
  JoinHarness h(left, right);
  ASSERT_TRUE(h.RunParallel().ok());
  ASSERT_TRUE(h.sink.finished());
  const auto expected = NestedLoopJoin(testing::TableRows(left), testing::TableRows(right), 0, 0);
  EXPECT_TRUE(SameBag(h.sink.rows(), expected));
  EXPECT_EQ(h.sink.num_rows(), 5);  // 2x2 for key 2 + 1 for key 3
}

TEST(SymmetricHashJoinTest, LeftThenRightSequential) {
  auto left = MakeIntTable("l", {{1, 10}, {2, 20}});
  auto right = MakeIntTable("r", {{1, 100}, {2, 200}});
  JoinHarness h(left, right);
  ASSERT_TRUE(h.left_scan->Run().ok());
  ASSERT_TRUE(h.right_scan->Run().ok());
  EXPECT_EQ(h.sink.num_rows(), 2);
  // Output column order is always left ++ right.
  EXPECT_EQ(h.sink.rows()[0].at(1).AsInt64() % 10, 0);
  EXPECT_GE(h.sink.rows()[0].at(3).AsInt64(), 100);
}

TEST(SymmetricHashJoinTest, RightThenLeftSameResult) {
  auto left = MakeIntTable("l", {{1, 10}, {2, 20}});
  auto right = MakeIntTable("r", {{1, 100}, {2, 200}});
  JoinHarness fwd(left, right), rev(left, right);
  ASSERT_TRUE(fwd.left_scan->Run().ok());
  ASSERT_TRUE(fwd.right_scan->Run().ok());
  ASSERT_TRUE(rev.right_scan->Run().ok());
  ASSERT_TRUE(rev.left_scan->Run().ok());
  EXPECT_TRUE(SameBag(fwd.sink.rows(), rev.sink.rows()));
}

TEST(SymmetricHashJoinTest, ResidualPredicateApplied) {
  auto left = MakeIntTable("l", {{1, 10}, {2, 20}});
  auto right = MakeIntTable("r", {{1, 5}, {2, 50}});
  // Residual over concatenated row: l.b < r.b  (cols 1 and 3).
  JoinHarness h(left, right,
                Cmp(CmpOp::kLt, Col(1, TypeId::kInt64),
                    Col(3, TypeId::kInt64)));
  ASSERT_TRUE(h.RunParallel().ok());
  ASSERT_EQ(h.sink.num_rows(), 1);
  EXPECT_EQ(h.sink.rows()[0].at(0).AsInt64(), 2);
}

TEST(SymmetricHashJoinTest, NullKeysNeverJoin) {
  Schema schema({Field{"t.a", TypeId::kInt64, kInvalidAttr},
                 Field{"t.b", TypeId::kInt64, kInvalidAttr}});
  auto left = std::make_shared<Table>("l", schema);
  left->AppendRow(Tuple({Value::Null(), Value::Int64(1)}));
  left->AppendRow(Tuple({Value::Int64(1), Value::Int64(2)}));
  auto right = std::make_shared<Table>("r", schema);
  right->AppendRow(Tuple({Value::Null(), Value::Int64(3)}));
  right->AppendRow(Tuple({Value::Int64(1), Value::Int64(4)}));
  JoinHarness h(left, right);
  ASSERT_TRUE(h.RunParallel().ok());
  EXPECT_EQ(h.sink.num_rows(), 1);
}

TEST(SymmetricHashJoinTest, ShortCircuitFreesOtherSideState) {
  auto left = MakeIntTable("l", {{1, 10}, {2, 20}, {3, 30}});
  auto right = MakeIntTable("r", {{1, 100}, {2, 200}, {3, 300}});
  JoinHarness h(left, right);
  // Run left fully: its 3 tuples are buffered on side 0.
  ASSERT_TRUE(h.left_scan->Run().ok());
  EXPECT_EQ(h.join.StateTupleCount(0), 3);
  // Left finished; side-1 state freed/stopped. Right tuples only probe.
  ASSERT_TRUE(h.right_scan->Run().ok());
  EXPECT_EQ(h.join.StateTupleCount(1), 0);
  EXPECT_EQ(h.sink.num_rows(), 3);
  // First-finisher state was complete; last-finisher's was not buffered.
  EXPECT_TRUE(h.join.StateCompleteAtFinish(0));
  EXPECT_FALSE(h.join.StateCompleteAtFinish(1));
}

TEST(SymmetricHashJoinTest, StateReleasedAfterBothFinish) {
  auto left = MakeIntTable("l", {{1, 10}});
  auto right = MakeIntTable("r", {{1, 100}});
  JoinHarness h(left, right);
  ASSERT_TRUE(h.RunParallel().ok());
  EXPECT_EQ(h.join.StateBytes(), 0);
  EXPECT_GT(h.join.PeakStateBytes(), 0);
  EXPECT_EQ(h.ctx.state_tracker().current_bytes(), 0);
  EXPECT_GT(h.ctx.state_tracker().peak_bytes(), 0);
}

TEST(SymmetricHashJoinTest, StateColumnHashesMatchBufferedTuples) {
  auto left = MakeIntTable("l", {{7, 70}, {8, 80}});
  auto right = MakeIntTable("r", {});
  JoinHarness h(left, right);
  ASSERT_TRUE(h.left_scan->Run().ok());
  auto hashes = h.join.StateColumnHashes(0, 0);
  ASSERT_EQ(hashes.size(), 2u);
  std::vector<uint64_t> expected = {Value::Int64(7).Hash(),
                                    Value::Int64(8).Hash()};
  std::sort(hashes.begin(), hashes.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(hashes, expected);
}

TEST(SymmetricHashJoinTest, MultiColumnKeys) {
  ExecContext ctx;
  auto left = MakeIntTable("l", {{1, 10}, {1, 20}, {2, 10}});
  auto right = MakeIntTable("r", {{1, 10}, {2, 10}, {2, 20}});
  auto lscan = MakeScan(&ctx, left);
  auto rscan = MakeScan(&ctx, right);
  SymmetricHashJoin join(&ctx, "join", left->schema(), right->schema(),
                         {0, 1}, {0, 1});
  Sink sink(&ctx, "sink", Schema::Concat(left->schema(), right->schema()));
  lscan->SetOutput(&join, 0);
  rscan->SetOutput(&join, 1);
  join.SetOutput(&sink);
  ASSERT_TRUE(lscan->Run().ok());
  ASSERT_TRUE(rscan->Run().ok());
  EXPECT_EQ(sink.num_rows(), 2);  // (1,10) and (2,10)
}

// Property-style randomized sweep: symmetric hash join under concurrent
// inputs must equal the nested-loop reference for any data and key skew.
class JoinRandomizedTest : public ::testing::TestWithParam<int> {};

TEST_P(JoinRandomizedTest, EquivalentToReference) {
  Random rng(static_cast<uint64_t>(GetParam()));
  std::vector<std::pair<int64_t, int64_t>> lrows, rrows;
  const int64_t key_space = 1 + static_cast<int64_t>(rng.UniformInt(1, 40));
  const int ln = static_cast<int>(rng.UniformInt(0, 300));
  const int rn = static_cast<int>(rng.UniformInt(0, 300));
  for (int i = 0; i < ln; ++i) {
    lrows.push_back({rng.UniformInt(0, key_space), rng.UniformInt(0, 5)});
  }
  for (int i = 0; i < rn; ++i) {
    rrows.push_back({rng.UniformInt(0, key_space), rng.UniformInt(0, 5)});
  }
  auto left = MakeIntTable("l", lrows);
  auto right = MakeIntTable("r", rrows);
  JoinHarness h(left, right);
  h.ctx.set_batch_size(static_cast<size_t>(rng.UniformInt(1, 64)));
  ASSERT_TRUE(h.RunParallel().ok());
  const auto expected = NestedLoopJoin(testing::TableRows(left), testing::TableRows(right), 0, 0);
  EXPECT_TRUE(SameBag(h.sink.rows(), expected))
      << "seed=" << GetParam() << " got=" << h.sink.num_rows()
      << " want=" << expected.size();
}

INSTANTIATE_TEST_SUITE_P(Sweep, JoinRandomizedTest, ::testing::Range(0, 12));

// --- emission order and checkpoint round trip -------------------------------

// Each side's rows are (key, id, w, tag): a small, partly-NULL key space so
// keys repeat across many batches, a unique id that pins each row's
// identity, a small weight the residual compares, and a partly-NULL string
// tag whose batches alternate between two shared dictionaries.
Schema KeyIdWeightTagSchema(const std::string& t) {
  return Schema({Field{t + ".key", TypeId::kInt64, kInvalidAttr},
                 Field{t + ".id", TypeId::kInt64, kInvalidAttr},
                 Field{t + ".w", TypeId::kInt64, kInvalidAttr},
                 Field{t + ".tag", TypeId::kString, kInvalidAttr}});
}

struct PortBatch {
  int port;
  Batch batch;
};

/// `rows` rows per side in random-sized batches, pushed in a random
/// interleaving of the two ports that keeps each port's own order.
std::vector<PortBatch> MakeInterleavedStream(Random* rng, size_t rows) {
  static const char* kTags[] = {"a", "bb", "ccc", "dddd", "eeeee"};
  const std::shared_ptr<StringDict> dicts[2] = {
      std::make_shared<StringDict>(), std::make_shared<StringDict>()};
  for (const char* tag : kTags) {
    dicts[0]->Intern(tag);
    dicts[1]->Intern(std::string(tag) + "!");
  }
  std::vector<Batch> per_port[2];
  int64_t next_id = 0;
  for (int port = 0; port < 2; ++port) {
    for (size_t done = 0; done < rows;) {
      const size_t n = std::min<size_t>(
          rows - done, static_cast<size_t>(rng->UniformInt(1, 200)));
      Column key(TypeId::kInt64), id(TypeId::kInt64), w(TypeId::kInt64);
      Column tag = Column::StringWithDict(dicts[per_port[port].size() % 2]);
      for (size_t r = 0; r < n; ++r) {
        if (rng->UniformInt(0, 19) == 0) {
          key.AppendNull();
        } else {
          key.AppendI64(rng->UniformInt(0, 150));
        }
        id.AppendI64(next_id++);
        w.AppendI64(rng->UniformInt(0, 9));
        if (rng->UniformInt(0, 9) == 0) {
          tag.AppendNull();
        } else {
          tag.AppendCode(static_cast<uint32_t>(rng->UniformInt(0, 4)));
        }
      }
      Batch b;
      b.AddColumn(std::move(key));
      b.AddColumn(std::move(id));
      b.AddColumn(std::move(w));
      b.AddColumn(std::move(tag));
      per_port[port].push_back(std::move(b));
      done += n;
    }
  }
  std::vector<PortBatch> stream;
  size_t taken[2] = {0, 0};
  while (taken[0] < per_port[0].size() || taken[1] < per_port[1].size()) {
    int port = static_cast<int>(rng->UniformInt(0, 1));
    if (taken[port] == per_port[port].size()) port = 1 - port;
    stream.push_back({port, std::move(per_port[port][taken[port]++])});
  }
  return stream;
}

/// Residual over the output row (l.key, l.id, l.w, l.tag, r.key, r.id,
/// r.w, r.tag): l.w <= r.w, which rejects about 45% of the matches.
bool ResidualKeeps(const Tuple& joined) {
  return joined.at(2).AsInt64() <= joined.at(6).AsInt64();
}

/// The documented emission order, row at a time: each probe row in order
/// meets the other side's buffered rows newest-first; a port stops
/// buffering, and the other port's rows are dropped, once the other port
/// has finished.
std::vector<Tuple> ReferenceJoin(const std::vector<PortBatch>& stream) {
  std::vector<Tuple> buffered[2];
  // Non-NULL key -> positions in buffered[port], oldest first.
  std::map<int64_t, std::vector<size_t>> by_key[2];
  size_t batches_left[2] = {0, 0};
  for (const PortBatch& pb : stream) ++batches_left[pb.port];
  bool finished[2] = {false, false};
  std::vector<Tuple> out;
  for (const PortBatch& pb : stream) {
    const int port = pb.port;
    const std::vector<Tuple> rows = pb.batch.MaterializeRows();
    for (const Tuple& row : rows) {
      if (row.at(0).is_null()) continue;
      const auto hit = by_key[1 - port].find(row.at(0).AsInt64());
      if (hit == by_key[1 - port].end()) continue;
      for (auto it = hit->second.rbegin(); it != hit->second.rend(); ++it) {
        const Tuple& other = buffered[1 - port][*it];
        Tuple joined =
            port == 0 ? Tuple::Concat(row, other) : Tuple::Concat(other, row);
        if (ResidualKeeps(joined)) out.push_back(std::move(joined));
      }
    }
    if (!finished[1 - port]) {
      for (const Tuple& row : rows) {
        if (!row.at(0).is_null()) {
          by_key[port][row.at(0).AsInt64()].push_back(buffered[port].size());
        }
        buffered[port].push_back(row);
      }
    }
    if (--batches_left[port] == 0) {
      finished[port] = true;
      buffered[1 - port].clear();
      by_key[1 - port].clear();
    }
  }
  return out;
}

/// A join driven by direct Push/Finish calls on one thread, so the push
/// interleaving — and with it the output sequence — is deterministic.
struct DirectJoin {
  DirectJoin()
      : join(&ctx, "join", KeyIdWeightTagSchema("l"),
             KeyIdWeightTagSchema("r"), {0}, {0},
             Cmp(CmpOp::kLe, Col(2, TypeId::kInt64), Col(6, TypeId::kInt64))),
        sink(&ctx, "sink", Schema::Concat(KeyIdWeightTagSchema("l"),
                                          KeyIdWeightTagSchema("r"))) {
    join.SetOutput(&sink);
  }

  /// Pushes (copies of) stream[begin, end), finishing each port after its
  /// last batch in the whole stream, and tracks the peak buffered rows.
  void Run(const std::vector<PortBatch>& stream, size_t begin, size_t end) {
    size_t last[2] = {0, 0};
    for (size_t i = 0; i < stream.size(); ++i) last[stream[i].port] = i;
    for (size_t i = begin; i < end; ++i) {
      const int port = stream[i].port;
      ASSERT_TRUE(join.Push(port, Batch(stream[i].batch)).ok());
      for (int p = 0; p < 2; ++p) {
        peak_tuples[p] = std::max(peak_tuples[p], join.StateTupleCount(p));
      }
      if (i == last[port]) {
        ASSERT_TRUE(join.Finish(port).ok());
      }
    }
  }

  ExecContext ctx;
  SymmetricHashJoin join;
  Sink sink;
  int64_t peak_tuples[2] = {0, 0};
};

void ExpectSameSequence(const std::vector<Tuple>& got,
                        const std::vector<Tuple>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].Compare(want[i]), 0)
        << "row " << i << ": " << got[i].ToString() << " vs "
        << want[i].ToString();
  }
}

// Pins the emission order the engine's bit-identical answers rest on:
// probe rows in order, each row's matches newest-first by build insertion.
// Covers bucket-array growth (> 1,024 buffered rows per side), duplicate
// keys spread over many build batches, NULL keys, a residual that rejects
// some matches, string columns from two dictionaries (the build-side
// gather's per-row fallback), and the short-circuit once a port finishes.
TEST(SymmetricHashJoinTest, EmissionOrderIsProbeOrderThenNewestBuildFirst) {
  PUSHSIP_SEED_TRACE(testing::TestSeed());
  Random rng = testing::SeededRandom(16);
  const std::vector<PortBatch> stream = MakeInterleavedStream(&rng, 3000);
  DirectJoin d;
  d.Run(stream, 0, stream.size());
  EXPECT_GT(d.peak_tuples[0], 1024);
  EXPECT_GT(d.peak_tuples[1], 1024);
  const std::vector<Tuple> want = ReferenceJoin(stream);
  ASSERT_GT(want.size(), 10000u);
  ExpectSameSequence(d.sink.rows(), want);
  EXPECT_TRUE(d.sink.finished());
  EXPECT_EQ(d.ctx.state_tracker().current_bytes(), 0);
}

// A checkpoint taken mid-stream and restored into the reset operator (the
// snapshot batches crossing the wire encoding, as a checkpoint does) must
// continue exactly where the uninterrupted run would: same buffered state,
// same output sequence.
TEST(SymmetricHashJoinTest, SnapshotRestoreMidStreamContinuesIdentically) {
  PUSHSIP_SEED_TRACE(testing::TestSeed());
  Random rng = testing::SeededRandom(17);
  const std::vector<PortBatch> stream = MakeInterleavedStream(&rng, 3000);
  // Cut once both ports have pushed more than 1,100 rows (so the restore
  // rebuilds a grown bucket array) and before either has finished.
  size_t cut = 0;
  size_t pushed[2] = {0, 0};
  while (pushed[0] <= 1100 || pushed[1] <= 1100) {
    pushed[stream[cut].port] += stream[cut].batch.size();
    ++cut;
  }
  ASSERT_LT(pushed[0], 3000u);
  ASSERT_LT(pushed[1], 3000u);

  DirectJoin whole;
  whole.Run(stream, 0, stream.size());

  DirectJoin resumed;
  resumed.Run(stream, 0, cut);
  const int64_t tuples[2] = {resumed.join.StateTupleCount(0),
                             resumed.join.StateTupleCount(1)};
  const int64_t state_bytes = resumed.join.StateBytes();
  std::string meta;
  std::vector<Batch> snapshot;
  ASSERT_TRUE(resumed.join.SnapshotState(&meta, &snapshot).ok());
  resumed.join.ResetForReplay();
  EXPECT_EQ(resumed.join.StateTupleCount(0), 0);
  EXPECT_EQ(resumed.ctx.state_tracker().current_bytes(), 0);
  std::vector<Batch> restored;
  for (const Batch& b : snapshot) {
    auto decoded = DeserializeBatch(SerializeBatch(b));
    ASSERT_TRUE(decoded.ok());
    restored.push_back(std::move(*decoded));
  }
  ASSERT_TRUE(resumed.join.RestoreState(meta, std::move(restored)).ok());
  EXPECT_EQ(resumed.join.StateTupleCount(0), tuples[0]);
  EXPECT_EQ(resumed.join.StateTupleCount(1), tuples[1]);
  EXPECT_GT(resumed.join.StateBytes(), 0);
  EXPECT_GT(state_bytes, 0);
  resumed.Run(stream, cut, stream.size());

  ExpectSameSequence(resumed.sink.rows(), whole.sink.rows());
  ExpectSameSequence(whole.sink.rows(), ReferenceJoin(stream));
  EXPECT_TRUE(resumed.sink.finished());
}

}  // namespace
}  // namespace pushsip
