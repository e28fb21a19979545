// Micro benchmarks for the vectorized hot paths: batch filter throughput
// (selection vectors over typed columns vs the row-at-a-time reference),
// one-pass key hashing (the Batch key-hash lane vs recomputing per
// consumer), and the wire codec (columnar encode/decode time and bytes,
// with the compression ratio against the retired v1 row-major size computed
// in closed form — plus the cross-batch
// dictionary stream encoding vs per-batch dictionaries), the scale-out
// reshard (ShardRoundRobin's typed gathers + typed statistics vs the
// per-cell row-at-a-time copy and per-cell statistics it replaced), the
// join probe (SymmetricHashJoin's flat table and per-column gathers vs the
// multimap and per-row concatenation it replaced, on a wide lineitem-part
// join that emits every column of both tables), the aggregate fold
// (HashAggregate's typed per-column loops vs the per-row lookup and Eval
// it replaced, on the served query's ungrouped COUNT/SUM shape), and the
// Q17 wire stream (the l1 shuffle's lineitem columns through a stream
// encoder/decoder pair: rows/s and bytes per row).
//
// Every cell with a reference strategy checks that both strategies compute
// the same answer (filter survivors, reshard NDV sum, join output rows,
// fold totals); a mismatch exits non-zero, with or without --check. So
// does a wire_q17 stream above kMaxQ17WireBytesPerRow bytes per row or
// one that decodes to other values: its bytes are deterministic, so the
// gate is not noise.
//
// Flags: the shared harness flags (--reps=, --seed=, --json <path>) plus
//   --sf=X      TPC-H scale factor of the partition_catalog, join_probe,
//               agg_fold and wire_q17 cells' tables (default 0.02)
//   --rows=N    rows per batch            (default 1024)
//   --batches=N batches per measurement   (default 256)
//   --check     exit non-zero unless the vectorized filter pipeline is
//               >= 2x the row-at-a-time reference, the encoding is
//               >= 30% smaller than v1 would be, and the dictionary
//               stream encoder re-ships nothing (used to validate
//               committed numbers; off by default so noisy CI smoke runs
//               stay advisory).
#include <cstring>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "bench/figure_harness.h"
#include "dist/scale_out.h"
#include "exec/hash_aggregate.h"
#include "exec/hash_join.h"
#include "exec/operator.h"
#include "exec/sink.h"
#include "net/wire_format.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sip/aip_set.h"
#include "storage/catalog.h"
#include "storage/tpch_generator.h"
#include "util/random.h"
#include "util/stopwatch.h"

using namespace pushsip;
using namespace pushsip::bench;

namespace {

/// Terminal operator that counts and drops its input: the measurement
/// isolates the filter stage in Operator::Push, not result accumulation.
class NullOp : public Operator {
 public:
  NullOp(ExecContext* ctx, Schema schema)
      : Operator(ctx, "null", 1, std::move(schema)) {}
  int64_t rows() const { return rows_; }

 protected:
  Status DoPush(int, Batch&& batch) override {
    rows_ += static_cast<int64_t>(batch.size());
    return Status::OK();
  }
  Status DoFinish(int) override { return Status::OK(); }

 private:
  int64_t rows_ = 0;
};

Schema TwoIntSchema() {
  return Schema({Field{"t.a", TypeId::kInt64, kInvalidAttr},
                 Field{"t.b", TypeId::kInt64, kInvalidAttr}});
}

/// A fresh stream of `batches` batches of `rows` two-int rows, built as
/// typed column vectors.
std::vector<Batch> MakeIntStream(size_t rows, size_t batches, uint64_t seed,
                                 int64_t key_range) {
  Random rng(seed);
  std::vector<Batch> stream(batches);
  for (Batch& b : stream) {
    Column a(TypeId::kInt64);
    Column c(TypeId::kInt64);
    a.Reserve(rows);
    c.Reserve(rows);
    for (size_t i = 0; i < rows; ++i) {
      a.AppendI64(rng.UniformInt(0, key_range));
      c.AppendI64(rng.UniformInt(0, key_range));
    }
    b.AddColumn(std::move(a));
    b.AddColumn(std::move(c));
  }
  return stream;
}

/// Four sealed Bloom AIP filters over the SAME key column, each passing
/// ~85% of the key range — the registry's common shape: several published
/// sets of one equivalence class all attach to the same join key, so the
/// batch path hashes the column once and probes it four times.
std::vector<std::shared_ptr<const TupleFilter>> MakeAipFilters(
    int64_t key_range, uint64_t seed) {
  std::vector<std::shared_ptr<const TupleFilter>> filters;
  Random rng(seed);
  for (int f = 0; f < 4; ++f) {
    auto set = std::make_shared<AipSet>(
        AipSetKind::kBloom, static_cast<size_t>(key_range), 0.05);
    for (int64_t k = 0; k <= key_range; ++k) {
      if (rng.UniformInt(0, 6) != 0) set->Insert(Value::Int64(k).Hash());
    }
    set->Seal();
    filters.push_back(
        std::make_shared<AipFilter>("bench:f" + std::to_string(f), 0, set));
  }
  return filters;
}

/// The pre-vectorization Operator::Push filter stage, kept as the
/// reference: per-row virtual Pass() calls (each hashing the key and
/// taking the summary's shared lock), compacting once at the end.
size_t RowAtATimeFilter(
    const std::vector<std::shared_ptr<const TupleFilter>>& filters,
    Batch&& batch) {
  std::vector<uint32_t> sel;
  sel.reserve(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    bool pass = true;
    for (const auto& f : filters) {
      if (!f->Pass(batch, i)) {
        pass = false;
        break;
      }
    }
    if (pass) sel.push_back(static_cast<uint32_t>(i));
  }
  const size_t kept = sel.size();
  if (kept != batch.size()) batch.CompactInPlace(sel);
  return kept;
}

struct Throughput {
  double rows_per_sec = 0;
  double elapsed_sec = 0;
  /// What the cell computed, summed over repetitions; a cell's strategies
  /// must agree on it.
  uint64_t answer = 0;
};

/// Filter-pipeline cell: pushes `stream` (copied per repetition) through
/// the filters, row-at-a-time or via the vectorized Operator::Push. With
/// `profiled` the context collects per-operator timings (the obs_overhead
/// cell measures what that costs on the hottest path).
Throughput RunFilterPipeline(const std::vector<Batch>& stream, bool vectorized,
                             int reps, uint64_t seed, bool profiled = false) {
  const auto filters = MakeAipFilters(/*key_range=*/4096, seed);
  double total_sec = 0;
  int64_t total_rows = 0;
  uint64_t survivors = 0;
  for (int rep = 0; rep < reps; ++rep) {
    std::vector<Batch> copy = stream;
    if (vectorized) {
      ExecContext ctx;
      ctx.set_profiling(profiled);
      NullOp op(&ctx, TwoIntSchema());
      for (const auto& f : filters) op.AttachFilter(0, f);
      Stopwatch sw;
      for (Batch& b : copy) {
        total_rows += static_cast<int64_t>(b.size());
        op.Push(0, std::move(b)).CheckOK();
      }
      total_sec += sw.ElapsedSeconds();
      survivors += static_cast<uint64_t>(op.rows());
    } else {
      Stopwatch sw;
      for (Batch& b : copy) {
        total_rows += static_cast<int64_t>(b.size());
        survivors += RowAtATimeFilter(filters, std::move(b));
      }
      total_sec += sw.ElapsedSeconds();
    }
  }
  return {static_cast<double>(total_rows) / total_sec, total_sec, survivors};
}

/// Key-hash cell: four consumers (filter probe, shuffle routing, join
/// build, tap insert) each need the per-row hash of column 0 — either every
/// consumer recomputes it, or the first fills the Batch lane and the rest
/// reuse it.
Throughput RunKeyHash(const std::vector<Batch>& stream, bool cached,
                      int reps) {
  constexpr int kConsumers = 4;
  const std::vector<int> cols{0};
  double total_sec = 0;
  int64_t total_rows = 0;
  uint64_t sink = 0;
  for (int rep = 0; rep < reps; ++rep) {
    std::vector<Batch> copy = stream;
    Stopwatch sw;
    for (Batch& b : copy) {
      total_rows += static_cast<int64_t>(b.size());
      if (cached) {
        std::vector<uint64_t> scratch;
        for (int c = 0; c < kConsumers; ++c) {
          const std::vector<uint64_t>& h = b.KeyHashes(cols, &scratch);
          sink ^= h[b.size() / 2];
        }
      } else {
        for (int c = 0; c < kConsumers; ++c) {
          uint64_t acc = 0;
          for (size_t r = 0; r < b.size(); ++r) {
            acc ^= b.RowHashColumns(r, cols);
          }
          sink ^= acc;
        }
      }
    }
    total_sec += sw.ElapsedSeconds();
  }
  // Keep the hashes observable so the loops cannot be optimized away.
  if (sink == 0x5ca1ab1e) std::fprintf(stderr, "#\n");
  return {static_cast<double>(total_rows) / total_sec, total_sec};
}

/// A shuffle-shaped batch: ints, a date, a double, and a low-cardinality
/// string column (the Q17/subquery wire mix). `rng` continues across
/// batches so a stream of these repeats the same small brand dictionary.
Batch MakeWireBatch(size_t rows, Random* rng) {
  static const char* kBrands[] = {"Brand#11", "Brand#23", "Brand#34",
                                  "Brand#45", "Brand#55"};
  Batch b;
  b.SetArity(5);
  b.Reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    b.AppendRow(std::vector<Value>{
        Value::Int64(rng->UniformInt(1, 200000)),
        Value::Int64(rng->UniformInt(1, 10000)),
        Value::Date(10000 + rng->UniformInt(0, 2500)),
        Value::Double(static_cast<double>(rng->UniformInt(100, 99999)) / 100),
        Value::String(kBrands[rng->UniformInt(0, 4)]),
    });
  }
  return b;
}

struct WireResult {
  double rows_per_sec = 0;  ///< encode+decode round trips
  double elapsed_sec = 0;
  int64_t bytes = 0;  ///< encoded size of one batch (or whole stream)
  int64_t encode_transposes = 0;
  int64_t dict_reships = 0;
};

/// Size of `batch` in the retired v1 row-major encoding, in closed form:
/// a 2-byte header and a 4-byte row count, then per row a 4-byte arity and
/// per value a 1-byte type tag plus 8 bytes (4 + length for strings,
/// nothing for NULL). The --check gate measures the encoding against it.
int64_t RowMajorWireBytes(const Batch& batch) {
  int64_t bytes = 2 + 4 + 4 * static_cast<int64_t>(batch.size());
  for (size_t r = 0; r < batch.size(); ++r) {
    for (size_t c = 0; c < batch.num_cols(); ++c) {
      const Value v = batch.ValueAt(r, c);
      bytes += 1;
      if (v.is_null()) continue;
      bytes += v.type() == TypeId::kString
                   ? 4 + static_cast<int64_t>(v.AsString().size())
                   : 8;
    }
  }
  return bytes;
}

WireResult RunWireRoundTrip(const Batch& batch, size_t batches, int reps) {
  WireResult out;
  out.bytes = static_cast<int64_t>(SerializeBatch(batch).size());
  double total_sec = 0;
  int64_t total_rows = 0;
  for (int rep = 0; rep < reps; ++rep) {
    Stopwatch sw;
    for (size_t i = 0; i < batches; ++i) {
      const std::string bytes = SerializeBatch(batch);
      auto decoded = DeserializeBatch(bytes);
      decoded.status().CheckOK();
      total_rows += static_cast<int64_t>(decoded->size());
    }
    total_sec += sw.ElapsedSeconds();
  }
  out.rows_per_sec = static_cast<double>(total_rows) / total_sec;
  out.elapsed_sec = total_sec;
  return out;
}

/// Dictionary-stream cell: one exchange stream of `stream.size()` distinct
/// batches through a WireStreamEncoder/WireStreamDecoder pair. With
/// `stream_dicts` the brand dictionary crosses the wire once for the whole
/// stream; without it every batch re-ships its own copy (the per-batch
/// re-shipping the counter exposes).
WireResult RunWireStream(const std::vector<Batch>& stream, bool stream_dicts,
                         int reps) {
  WireResult out;
  double total_sec = 0;
  int64_t total_rows = 0;
  for (int rep = 0; rep < reps; ++rep) {
    WireStreamEncoder encoder(stream_dicts);
    WireStreamDecoder decoder;
    int64_t stream_bytes = 0;
    Stopwatch sw;
    for (size_t i = 0; i < stream.size(); ++i) {
      const std::string bytes = encoder.SerializeFrame(
          /*sender=*/0, /*epoch=*/0, /*seq=*/i, /*replayable=*/false,
          stream[i]);
      stream_bytes += static_cast<int64_t>(bytes.size());
      auto frame = decoder.DecodeFrame(bytes);
      frame.status().CheckOK();
      total_rows += static_cast<int64_t>(frame->batch.size());
    }
    total_sec += sw.ElapsedSeconds();
    out.bytes = stream_bytes;
    out.encode_transposes = encoder.encode_transposes();
    out.dict_reships = encoder.dict_reships();
  }
  out.rows_per_sec = static_cast<double>(total_rows) / total_sec;
  out.elapsed_sec = total_sec;
  return out;
}

/// The round-robin reshard as it was before its typed kernels, kept as
/// the reference: every row copied cell by cell (Table::AppendRowFrom),
/// then per-shard statistics with a hash-set insert and a Value compare
/// per cell. Returns the summed NDV so the work stays observable.
int64_t RowAtATimeReshard(const Table& table, int sites) {
  std::vector<TablePtr> shards;
  for (int s = 0; s < sites; ++s) {
    shards.push_back(std::make_shared<Table>(table.name(), table.schema()));
    shards.back()->Reserve(table.num_rows() / static_cast<size_t>(sites) + 1);
  }
  for (size_t r = 0; r < table.num_rows(); ++r) {
    shards[r % static_cast<size_t>(sites)]->AppendRowFrom(table, r);
  }
  int64_t ndv = 0;
  for (const TablePtr& shard : shards) {
    for (size_t c = 0; c < shard->num_cols(); ++c) {
      const Column& column = shard->col(c);
      std::unordered_set<uint64_t> distinct;
      ColumnStats st;
      bool first = true;
      for (size_t r = 0; r < shard->num_rows(); ++r) {
        if (column.IsNull(r)) continue;
        distinct.insert(column.HashAt(r));
        const Value v = column.GetValue(r);
        if (first || v.Compare(st.min_value) < 0) st.min_value = v;
        if (first || v.Compare(st.max_value) > 0) st.max_value = v;
        first = false;
      }
      ndv += static_cast<int64_t>(distinct.size());
    }
  }
  return ndv;
}

/// Partition-catalog cell: lineitem resharded over `sites` shards with
/// statistics, either through ShardRoundRobin (one typed gather per shard
/// and column, typed ComputeStats; the kernel itself, not the catalog's
/// memo of its result, which would time a lookup) or the row-at-a-time
/// reference. The answer is the NDV summed over every shard and column.
/// Throughput counts lineitem rows resharded per second; one untimed
/// warm-up pass first, so the first timed pass does not pay for the
/// allocator's first touch of shard-sized blocks.
Throughput RunPartitionCatalog(const Catalog& full, bool gather, int sites,
                               int reps) {
  const TablePtr lineitem = *full.GetTable("lineitem");
  double total_sec = 0;
  int64_t ndv_sum = 0;
  for (int rep = -1; rep < reps; ++rep) {
    Stopwatch sw;
    if (gather) {
      for (const TablePtr& shard : ShardRoundRobin(*lineitem, sites)) {
        for (size_t c = 0; c < shard->num_cols(); ++c) {
          ndv_sum += shard->column_stats(c).distinct_count;
        }
      }
    } else {
      ndv_sum += RowAtATimeReshard(*lineitem, sites);
    }
    if (rep >= 0) total_sec += sw.ElapsedSeconds();
  }
  return {static_cast<double>(lineitem->num_rows()) * reps / total_sec,
          total_sec, static_cast<uint64_t>(ndv_sum)};
}

/// `table`'s rows, every column, in scan-sized slices (Table::SliceRows).
std::vector<Batch> SliceTable(const Table& table, size_t rows) {
  std::vector<int> cols(table.num_cols());
  for (size_t c = 0; c < cols.size(); ++c) cols[c] = static_cast<int>(c);
  std::vector<Batch> batches;
  for (size_t begin = 0; begin < table.num_rows(); begin += rows) {
    batches.push_back(table.SliceRows(
        begin, std::min(table.num_rows(), begin + rows), cols));
  }
  return batches;
}

/// The join's build and probe before the flat table, kept as the
/// reference: one unordered_multimap node per buffered row, and per match
/// one AppendFrom per output column. Returns the output row count.
size_t RowAtATimeJoin(const std::vector<Batch>& build,
                      const std::vector<Batch>& probe,
                      const std::vector<int>& build_keys,
                      const std::vector<int>& probe_keys) {
  std::unordered_multimap<uint64_t, std::pair<uint32_t, uint32_t>> table;
  for (uint32_t bi = 0; bi < build.size(); ++bi) {
    std::vector<uint64_t> scratch;
    const std::vector<uint64_t>& h = build[bi].KeyHashes(build_keys, &scratch);
    for (uint32_t r = 0; r < build[bi].size(); ++r) {
      table.emplace(h[r], std::make_pair(bi, r));
    }
  }
  size_t out_rows = 0;
  for (const Batch& batch : probe) {
    std::vector<uint64_t> scratch;
    const std::vector<uint64_t>& h = batch.KeyHashes(probe_keys, &scratch);
    std::vector<Column> out(batch.num_cols() + build.front().num_cols());
    for (size_t r = 0; r < batch.size(); ++r) {
      const auto [lo, hi] = table.equal_range(h[r]);
      for (auto it = lo; it != hi; ++it) {
        const Batch& ob = build[it->second.first];
        const size_t orow = it->second.second;
        if (!Batch::RowsEqualOn(batch, r, probe_keys, ob, orow, build_keys)) {
          continue;
        }
        size_t c = 0;
        for (size_t i = 0; i < batch.num_cols(); ++i) {
          out[c++].AppendFrom(batch.col(i), r);
        }
        for (size_t i = 0; i < ob.num_cols(); ++i) {
          out[c++].AppendFrom(ob.col(i), orow);
        }
      }
    }
    out_rows += out.front().size();
  }
  return out_rows;
}

/// Join-probe cell: a wide join — part rows with p_size < 40 buffered as
/// the build side, then every lineitem row probing it on l_partkey, every
/// column of both tables in the output — through SymmetricHashJoin (build
/// port finished first, so the probe side only probes) or the row-at-a-time
/// reference. Served queries now scan only the columns they read, so this
/// cell measures the wide-row case, not serving. Throughput counts build
/// plus probe rows per second; the answer is the output row count.
Throughput RunJoinProbe(const Catalog& catalog, bool batched, int reps) {
  const TablePtr lineitem = *catalog.GetTable("lineitem");
  const TablePtr part = *catalog.GetTable("part");
  const std::vector<Batch> probe = SliceTable(*lineitem, kDefaultBatchSize);
  std::vector<Batch> build = SliceTable(*part, kDefaultBatchSize);
  const size_t size_col =
      static_cast<size_t>(*part->schema().IndexOf("part.p_size"));
  for (Batch& b : build) {
    std::vector<uint32_t> sel;
    for (size_t r = 0; r < b.size(); ++r) {
      if (b.col(size_col).I64At(r) < 40) {
        sel.push_back(static_cast<uint32_t>(r));
      }
    }
    b.CompactInPlace(sel);
  }
  const std::vector<int> probe_keys{1};  // l_partkey
  const std::vector<int> build_keys{0};  // p_partkey
  size_t rows = 0;
  for (const Batch& b : probe) rows += b.size();
  for (const Batch& b : build) rows += b.size();
  double total_sec = 0;
  uint64_t out_rows = 0;
  for (int rep = 0; rep < reps; ++rep) {
    std::vector<Batch> probe_copy = probe;
    std::vector<Batch> build_copy = build;
    if (batched) {
      ExecContext ctx;
      const Schema out_schema =
          Schema::Concat(lineitem->schema(), part->schema());
      NullOp null_op(&ctx, out_schema);
      SymmetricHashJoin join(&ctx, "join", lineitem->schema(),
                             part->schema(), probe_keys, build_keys);
      join.SetOutput(&null_op);
      Stopwatch sw;
      for (Batch& b : build_copy) join.Push(1, std::move(b)).CheckOK();
      join.Finish(1).CheckOK();
      for (Batch& b : probe_copy) join.Push(0, std::move(b)).CheckOK();
      join.Finish(0).CheckOK();
      total_sec += sw.ElapsedSeconds();
      out_rows += static_cast<uint64_t>(join.rows_out());
    } else {
      Stopwatch sw;
      out_rows +=
          RowAtATimeJoin(build_copy, probe_copy, build_keys, probe_keys);
      total_sec += sw.ElapsedSeconds();
    }
  }
  return {static_cast<double>(rows) * reps / total_sec, total_sec, out_rows};
}

/// Digest of the finalized aggregate values and their types: equal only
/// when every count and sum is bit-identical.
uint64_t DigestOf(const std::vector<Value>& values) {
  uint64_t h = 0;
  for (const Value& v : values) {
    h = h * 0x100000001b3ULL ^ (v.Hash() + static_cast<uint64_t>(v.type()));
  }
  return h;
}

/// The fold HashAggregate did before its typed loops, kept as the
/// reference: per row a group lookup in an unordered_multimap, and per
/// aggregate a virtual Eval into a Value and AggState::Update.
std::vector<Value> RowAtATimeFold(const std::vector<Batch>& input,
                                  const std::vector<AggSpec>& aggs) {
  std::unordered_multimap<uint64_t, std::vector<AggState>> groups;
  const std::vector<int> no_keys;
  for (const Batch& batch : input) {
    for (size_t r = 0; r < batch.size(); ++r) {
      const uint64_t h = batch.RowHashColumns(r, no_keys);
      auto it = groups.find(h);
      if (it == groups.end()) {
        std::vector<AggState> states;
        for (const AggSpec& a : aggs) states.emplace_back(a.func);
        it = groups.emplace(h, std::move(states));
      }
      for (size_t i = 0; i < aggs.size(); ++i) {
        it->second[i].Update(aggs[i].input ? aggs[i].input->Eval(batch, r)
                                           : Value::Int64(1));
      }
    }
  }
  std::vector<Value> out;
  for (const auto& [_, states] : groups) {
    for (const AggState& s : states) out.push_back(s.Finalize());
  }
  return out;
}

/// Aggregate-fold cell: the served query's ungrouped shape, COUNT(*) and
/// SUM(l_quantity), plus SUM and AVG of l_extendedprice so both typed
/// loops (INT64 and DOUBLE) run, over every lineitem row in scan-sized
/// slices of those two columns — through HashAggregate's typed fold or
/// the row-at-a-time reference. Throughput counts input rows per second;
/// the answer is a digest of the finalized values.
Throughput RunAggFold(const Catalog& catalog, bool typed, int reps) {
  const TablePtr lineitem = *catalog.GetTable("lineitem");
  const int qty = *lineitem->schema().IndexOf("l_quantity");
  const int price = *lineitem->schema().IndexOf("l_extendedprice");
  std::vector<Batch> input;
  for (size_t begin = 0; begin < lineitem->num_rows();
       begin += kDefaultBatchSize) {
    input.push_back(lineitem->SliceRows(
        begin, std::min(lineitem->num_rows(), begin + kDefaultBatchSize),
        {qty, price}));
  }
  const Schema in_schema(
      {lineitem->schema().field(static_cast<size_t>(qty)),
       lineitem->schema().field(static_cast<size_t>(price))});
  const std::vector<AggSpec> aggs = {
      {AggFunc::kCount, nullptr, "cnt"},
      {AggFunc::kSum, Col(0, TypeId::kInt64), "qty"},
      {AggFunc::kSum, Col(1, TypeId::kDouble), "revenue"},
      {AggFunc::kAvg, Col(1, TypeId::kDouble), "avg_price"}};
  double total_sec = 0;
  uint64_t digest = 0;
  for (int rep = 0; rep < reps; ++rep) {
    std::vector<Batch> copy = input;
    std::vector<Value> totals;
    if (typed) {
      ExecContext ctx;
      HashAggregate agg(&ctx, "agg", in_schema, {}, aggs);
      Sink sink(&ctx, "sink", agg.output_schema());
      agg.SetOutput(&sink);
      Stopwatch sw;
      for (Batch& b : copy) agg.Push(0, std::move(b)).CheckOK();
      agg.Finish(0).CheckOK();
      total_sec += sw.ElapsedSeconds();
      totals = sink.rows().front().values();
    } else {
      Stopwatch sw;
      totals = RowAtATimeFold(copy, aggs);
      total_sec += sw.ElapsedSeconds();
    }
    digest += DigestOf(totals);
  }
  return {static_cast<double>(lineitem->num_rows()) * reps / total_sec,
          total_sec, digest};
}

/// The wire_q17 byte gate. Q17's l1 rows (l_partkey, l_quantity and the
/// integral l_extendedprice) cost 11 bytes in varint-only columns and
/// about 4.5 packed.
constexpr double kMaxQ17WireBytesPerRow = 7.0;

struct WireQ17Result {
  WireResult wire;  ///< rows/s, and one pass's stream bytes
  int64_t rows = 0;  ///< rows in one pass
  /// Digests of the source batches and of the first pass's decoded ones.
  uint64_t source_digest = 0;
  uint64_t decoded_digest = 0;
};

/// Order-sensitive digest of every value of `batch`, column by column.
uint64_t DigestColumns(const Batch& batch) {
  uint64_t h = 0;
  for (size_t c = 0; c < batch.num_cols(); ++c) {
    for (size_t r = 0; r < batch.size(); ++r) {
      h = h * 0x100000001b3ULL ^ batch.col(c).HashAt(r);
    }
  }
  return h;
}

/// Q17 wire cell: lineitem's l_partkey, l_quantity and l_extendedprice —
/// the columns Q17's l1 shuffle ships — in scan-sized slices, streamed
/// through one WireStreamEncoder/WireStreamDecoder pair per repetition.
/// Throughput counts rows encoded and decoded per second.
WireQ17Result RunWireQ17(const Catalog& catalog, int reps) {
  const TablePtr lineitem = *catalog.GetTable("lineitem");
  const std::vector<int> cols = {
      *lineitem->schema().IndexOf("l_partkey"),
      *lineitem->schema().IndexOf("l_quantity"),
      *lineitem->schema().IndexOf("l_extendedprice")};
  std::vector<Batch> input;
  WireQ17Result out;
  for (size_t begin = 0; begin < lineitem->num_rows();
       begin += kDefaultBatchSize) {
    input.push_back(lineitem->SliceRows(
        begin, std::min(lineitem->num_rows(), begin + kDefaultBatchSize),
        cols));
    out.rows += static_cast<int64_t>(input.back().size());
    out.source_digest += DigestColumns(input.back());
  }
  double total_sec = 0;
  for (int rep = 0; rep < reps; ++rep) {
    WireStreamEncoder encoder;
    WireStreamDecoder decoder;
    int64_t stream_bytes = 0;
    uint64_t digest = 0;
    Stopwatch sw;
    for (size_t i = 0; i < input.size(); ++i) {
      const std::string bytes = encoder.SerializeFrame(
          /*sender=*/0, /*epoch=*/0, /*seq=*/i, /*replayable=*/true,
          input[i]);
      stream_bytes += static_cast<int64_t>(bytes.size());
      auto frame = decoder.DecodeFrame(bytes);
      frame.status().CheckOK();
      if (rep == 0) digest += DigestColumns(frame->batch);
    }
    total_sec += sw.ElapsedSeconds();
    if (rep == 0) out.decoded_digest = digest;
    out.wire.bytes = stream_bytes;
    out.wire.encode_transposes = encoder.encode_transposes();
  }
  out.wire.rows_per_sec = static_cast<double>(out.rows) * reps / total_sec;
  out.wire.elapsed_sec = total_sec;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const HarnessOptions opts = ParseArgs(argc, argv);
  size_t rows = 1024;
  size_t batches = 256;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--rows=", 7) == 0) {
      rows = static_cast<size_t>(std::atoll(argv[i] + 7));
    } else if (std::strncmp(argv[i], "--batches=", 10) == 0) {
      batches = static_cast<size_t>(std::atoll(argv[i] + 10));
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    }
  }
  const int reps = opts.repetitions > 0 ? opts.repetitions : 1;

  std::printf("# micro_hotpath: rows/batch=%zu batches=%zu reps=%d\n", rows,
              batches, reps);
  std::printf("%-18s %-14s %14s %12s %12s\n", "bench", "strategy", "rows/s",
              "elapsed(s)", "bytes");

  std::vector<JsonRecord> records;
  const auto record = [&](const std::string& query,
                          const std::string& strategy, const WireResult& w) {
    std::printf("%-18s %-14s %14.3g %12.4f %12lld\n", query.c_str(),
                strategy.c_str(), w.rows_per_sec, w.elapsed_sec,
                static_cast<long long>(w.bytes));
    JsonRecord r;
    r.query = query;
    r.strategy = strategy;
    r.elapsed_sec = w.elapsed_sec;
    r.bytes_shipped = w.bytes;
    r.metric_mean = w.rows_per_sec;
    r.encode_transposes = w.encode_transposes;
    r.dict_reships = w.dict_reships;
    records.push_back(std::move(r));
  };
  const auto record_tp = [&](const std::string& query,
                             const std::string& strategy,
                             const Throughput& t) {
    WireResult w;
    w.rows_per_sec = t.rows_per_sec;
    w.elapsed_sec = t.elapsed_sec;
    record(query, strategy, w);
  };

  // --- filter pipeline ---
  const std::vector<Batch> stream =
      MakeIntStream(rows, batches, opts.seed, /*key_range=*/4096);
  const Throughput row_based =
      RunFilterPipeline(stream, /*vectorized=*/false, reps, opts.seed);
  const Throughput vectorized =
      RunFilterPipeline(stream, /*vectorized=*/true, reps, opts.seed);
  record_tp("filter_pipeline", "row_at_a_time", row_based);
  record_tp("filter_pipeline", "vectorized", vectorized);
  const double filter_speedup =
      vectorized.rows_per_sec / row_based.rows_per_sec;

  // --- observability overhead ---
  // The same vectorized pipeline, A/B: everything off (the shipping
  // default) vs profiling + tracing + metrics gates all enabled. NullOp
  // emits no trace events, so "enabled" isolates the per-Push gate checks
  // and clock reads — the worst case for the overhead contract.
  const Throughput obs_disabled =
      RunFilterPipeline(stream, /*vectorized=*/true, reps, opts.seed);
  const bool trace_was_on = obs::Trace::enabled();
  obs::Trace::Enable(true);
  obs::Metrics::Enable(true);
  const Throughput obs_enabled = RunFilterPipeline(
      stream, /*vectorized=*/true, reps, opts.seed, /*profiled=*/true);
  obs::Metrics::Enable(false);
  obs::Trace::Enable(trace_was_on);
  record_tp("obs_overhead", "disabled", obs_disabled);
  record_tp("obs_overhead", "enabled", obs_enabled);

  // --- key-hash reuse ---
  const Throughput recompute = RunKeyHash(stream, /*cached=*/false, reps);
  const Throughput cached = RunKeyHash(stream, /*cached=*/true, reps);
  record_tp("key_hash", "recompute", recompute);
  record_tp("key_hash", "cached", cached);

  // --- wire round trip ---
  Random wire_rng(opts.seed);
  const Batch wire_batch = MakeWireBatch(rows, &wire_rng);
  const WireResult v2 =
      RunWireRoundTrip(wire_batch, batches / 4 + 1, reps);
  record("wire_roundtrip", "v2_columnar", v2);
  const double ratio = static_cast<double>(v2.bytes) /
                       static_cast<double>(RowMajorWireBytes(wire_batch));

  // --- cross-batch dictionary stream ---
  std::vector<Batch> wire_stream;
  wire_stream.reserve(batches / 4 + 1);
  for (size_t i = 0; i < batches / 4 + 1; ++i) {
    wire_stream.push_back(MakeWireBatch(rows, &wire_rng));
  }
  const WireResult per_batch =
      RunWireStream(wire_stream, /*stream_dicts=*/false, reps);
  const WireResult dict_stream =
      RunWireStream(wire_stream, /*stream_dicts=*/true, reps);
  record("wire_stream", "per_batch_dict", per_batch);
  record("wire_stream", "dict_stream", dict_stream);

  // --- scale-out reshard ---
  TpchConfig tpch;
  tpch.scale_factor = opts.scale_factor;
  tpch.seed = opts.seed;
  Catalog tpch_catalog;
  TpchGenerator(tpch).Generate(&tpch_catalog).CheckOK();
  constexpr int kShards = 4;
  const Throughput reshard_rows =
      RunPartitionCatalog(tpch_catalog, /*gather=*/false, kShards, reps);
  const Throughput reshard_gather =
      RunPartitionCatalog(tpch_catalog, /*gather=*/true, kShards, reps);
  record_tp("partition_catalog", "row_at_a_time", reshard_rows);
  record_tp("partition_catalog", "gather", reshard_gather);

  // --- join probe ---
  const Throughput join_rows =
      RunJoinProbe(tpch_catalog, /*batched=*/false, reps);
  const Throughput join_batched =
      RunJoinProbe(tpch_catalog, /*batched=*/true, reps);
  record_tp("join_probe", "row_at_a_time", join_rows);
  record_tp("join_probe", "batch_gather", join_batched);

  // --- aggregate fold ---
  const Throughput fold_rows =
      RunAggFold(tpch_catalog, /*typed=*/false, reps);
  const Throughput fold_typed =
      RunAggFold(tpch_catalog, /*typed=*/true, reps);
  record_tp("agg_fold", "row_eval", fold_rows);
  record_tp("agg_fold", "typed_fold", fold_typed);

  // --- Q17 wire stream ---
  const WireQ17Result q17 = RunWireQ17(tpch_catalog, reps);
  record("wire_q17", "stream", q17.wire);
  const double q17_bytes_per_row =
      static_cast<double>(q17.wire.bytes) / static_cast<double>(q17.rows);

  // Each optimized strategy must compute its reference's answer; timing a
  // wrong answer means nothing, so this holds without --check too.
  const struct {
    const char* cell;
    const Throughput& reference;
    const Throughput& measured;
  } answers[] = {{"filter_pipeline", row_based, vectorized},
                 {"partition_catalog", reshard_rows, reshard_gather},
                 {"join_probe", join_rows, join_batched},
                 {"agg_fold", fold_rows, fold_typed}};
  bool answers_agree = true;
  for (const auto& a : answers) {
    if (a.reference.answer != a.measured.answer) {
      std::fprintf(stderr,
                   "ANSWER MISMATCH: %s computes %llu, its reference %llu\n",
                   a.cell, static_cast<unsigned long long>(a.measured.answer),
                   static_cast<unsigned long long>(a.reference.answer));
      answers_agree = false;
    }
  }
  if (q17.decoded_digest != q17.source_digest) {
    std::fprintf(stderr,
                 "ANSWER MISMATCH: wire_q17 decodes other values than it "
                 "encoded\n");
    answers_agree = false;
  }
  if (!answers_agree) return 1;

  std::printf(
      "# filter speedup: %.2fx   hash-reuse speedup: %.2fx   "
      "v2/v1 bytes: %.2f (%.0f%% smaller)\n",
      filter_speedup, cached.rows_per_sec / recompute.rows_per_sec, ratio,
      (1 - ratio) * 100);
  std::printf(
      "# obs enabled/disabled throughput: %.3f (profiling+tracing+metrics "
      "gates on, %.1f%% overhead)\n",
      obs_enabled.rows_per_sec / obs_disabled.rows_per_sec,
      100.0 * (1.0 - obs_enabled.rows_per_sec / obs_disabled.rows_per_sec));
  std::printf(
      "# dict stream: %lld entries re-shipped (per-batch: %lld), "
      "%.1f%% of the per-batch stream bytes\n",
      static_cast<long long>(dict_stream.dict_reships),
      static_cast<long long>(per_batch.dict_reships),
      100.0 * static_cast<double>(dict_stream.bytes) /
          static_cast<double>(per_batch.bytes));
  std::printf("# partition_catalog gather speedup: %.2fx (%d shards)\n",
              reshard_gather.rows_per_sec / reshard_rows.rows_per_sec,
              kShards);
  std::printf("# join_probe batch-gather speedup: %.2fx\n",
              join_batched.rows_per_sec / join_rows.rows_per_sec);
  std::printf("# agg_fold typed-fold speedup: %.2fx\n",
              fold_typed.rows_per_sec / fold_rows.rows_per_sec);
  std::printf("# wire_q17: %.2f bytes per row (gate <= %.1f)\n",
              q17_bytes_per_row, kMaxQ17WireBytesPerRow);

  if (!opts.json_path.empty() &&
      !WriteJsonReport(opts.json_path, "micro_hotpath",
                       "Vectorized hot-path micro benchmarks", opts,
                       records)) {
    return 1;
  }

  if (q17_bytes_per_row > kMaxQ17WireBytesPerRow) {
    std::fprintf(stderr,
                 "CHECK FAILED: wire_q17 ships %.2f bytes per row (need <= "
                 "%.1f)\n",
                 q17_bytes_per_row, kMaxQ17WireBytesPerRow);
    return 1;
  }

  if (check) {
    if (filter_speedup < 2.0) {
      std::fprintf(stderr,
                   "CHECK FAILED: vectorized filter pipeline is only %.2fx "
                   "the row-at-a-time reference (need >= 2x)\n",
                   filter_speedup);
      return 1;
    }
    if (ratio > 0.7) {
      std::fprintf(stderr,
                   "CHECK FAILED: v2 encoding is %.0f%% of v1 (need <= "
                   "70%%)\n",
                   ratio * 100);
      return 1;
    }
    if (dict_stream.dict_reships != 0 || dict_stream.encode_transposes != 0) {
      std::fprintf(stderr,
                   "CHECK FAILED: dictionary stream degraded: "
                   "dict_reships=%lld encode_transposes=%lld (need 0/0)\n",
                   static_cast<long long>(dict_stream.dict_reships),
                   static_cast<long long>(dict_stream.encode_transposes));
      return 1;
    }
    if (per_batch.dict_reships == 0) {
      std::fprintf(stderr,
                   "CHECK FAILED: per-batch reference shipped no duplicate "
                   "dictionary entries — the comparison is vacuous\n");
      return 1;
    }
    if (dict_stream.bytes >= per_batch.bytes) {
      std::fprintf(stderr,
                   "CHECK FAILED: dictionary stream (%lld bytes) is not "
                   "smaller than per-batch dictionaries (%lld bytes)\n",
                   static_cast<long long>(dict_stream.bytes),
                   static_cast<long long>(per_batch.bytes));
      return 1;
    }
  }
  return 0;
}
