// Load generator of the repository benchmark; perfbench/run.py builds and
// drives it and folds what it prints into metrics.
//
// One process, closed loop: every client sends its next request only after
// the previous one returned. The engine receives only generated inputs:
// a fixed TPC-H instance whose lineitem row order --seed permutes, and
// (serve-mixed) a predicate rotation --seed offsets. Everything is measured
// from outside the engine, around its public entry points
// (BuildScaleOutQuery, WireInProcessTcp, DistributedQuery::Run and its
// destructor, QueryServer::Submit/Wait/ReplaceTable), and printed as one
// JSON object per line ("records"). Answers are printed next to the
// references computed during set-up; run.py compares them, so this file
// judges nothing but status codes.
//
//   perfbench_load --workload q17-aip|q17-tcp-ckpt|serve-mixed --seed N
//       --seconds S [--min-queries N] [--trace-seconds S --trace-out PATH]
//
// kSetups set-ups come first (the last one's catalog/server is kept), then
// the references are computed, untimed, and the process's memory
// high-water mark is reset; then S seconds of plain queries follow, and
// each phase runs at least --min-queries queries (reads, on serve-mixed). With
// --trace-seconds T, queries also run with obs::Trace on and, for Q17,
// per-operator profiling on every site: Q17 alternates plain and traced
// queries for S + T seconds and writes one traced query's Chrome trace to
// --trace-out; serving runs a traced phase of T seconds after the plain
// one and writes that phase's trace.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include <malloc.h>

#include "dist/multi_process.h"
#include "dist/scale_out.h"
#include "net/wire_format.h"
#include "obs/trace.h"
#include "serve/query_session.h"
#include "storage/tpch_generator.h"
#include "util/stopwatch.h"

using namespace pushsip;

namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int64_t min_queries = 0;
  double trace_seconds = 0;
  std::string trace_out;
};

/// Set-ups per run; setup_s is the median of their times.
constexpr int kSetups = 5;

/// One JSON object, built field by field (doubles keep all 17 digits).
class Rec {
 public:
  explicit Rec(const char* kind) { Str("rec", kind); }
  Rec& Num(const char* key, double v) {
    char buf[64];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof(buf), "%.17g", v);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    return Raw(key, buf);
  }
  Rec& Int(const char* key, int64_t v) {
    return Raw(key, std::to_string(v));
  }
  Rec& Bool(const char* key, bool v) { return Raw(key, v ? "true" : "false"); }
  Rec& Str(const char* key, const std::string& v) {
    std::string quoted = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') {
        quoted += '\\';
        quoted += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        quoted += ' ';
      } else {
        quoted += c;
      }
    }
    return Raw(key, quoted + "\"");
  }
  Rec& Raw(const char* key, const std::string& json) {
    body_ += body_.empty() ? "{\"" : ",\"";
    body_ += key;
    body_ += "\":";
    body_ += json;
    return *this;
  }
  std::string Line() const { return body_ + "}\n"; }
  void Print() const { std::fputs(Line().c_str(), stdout); }

 private:
  std::string body_;
};

std::string JsonDouble(const Value& v) {
  if (v.is_null()) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v.AsDouble());
  return buf;
}

/// Size of the answer as the engine's wire format would carry it back to
/// a client: the part of mb_shipped a single-site query also ships.
int64_t AnswerBytes(const std::vector<Tuple>& rows) {
  return static_cast<int64_t>(
      SerializeBatch(Batch::FromRows(rows), WireFormatVersion::kColumnar)
          .size());
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

/// Resets VmHWM to the current resident size, after handing freed heap
/// back to the kernel, so peak_rss_mb covers the measured phase and not the
/// set-ups' transients (catalog copies of earlier set-ups, the permutation).
bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return clear.good();
}

/// Sums every 'X' span of the global trace buffer by name into `spans`
/// (name -> {count, seconds}).
void FoldSpans(std::map<std::string, std::pair<int64_t, double>>* spans) {
  for (const obs::TraceEvent& e : obs::TraceBuffer::Global().Snapshot()) {
    if (e.phase != 'X') continue;
    auto& slot = (*spans)[e.name];
    slot.first += 1;
    slot.second += static_cast<double>(e.dur_us) * 1e-6;
  }
}

std::string SpansJson(
    const std::map<std::string, std::pair<int64_t, double>>& spans) {
  std::string out = "{";
  for (const auto& [name, slot] : spans) {
    if (out.size() > 1) out += ",";
    char buf[96];
    std::snprintf(buf, sizeof(buf), "[%" PRId64 ",%.17g]", slot.first,
                  slot.second);
    out += "\"" + name + "\":" + buf;
  }
  return out + "}";
}

/// The TPC-H instance is the same for every seed (generator seed 42, the
/// repository's default). Q17's brand+container predicate keeps only a
/// handful of parts at these scale factors, so a different generator seed
/// would move bytes shipped and state by 3x between seeds: a property of
/// the data, not of the engine. The workload seed instead permutes the
/// row order of lineitem, which decides the order rows stream in and, via
/// round-robin sharding, which site holds which row.
constexpr uint64_t kDataSeed = 42;

Status PermuteLineitem(Catalog* catalog, uint64_t seed) {
  PUSHSIP_ASSIGN_OR_RETURN(TablePtr src, catalog->GetTable("lineitem"));
  std::vector<size_t> order(src->num_rows());
  std::iota(order.begin(), order.end(), size_t{0});
  std::mt19937_64 rng(seed);
  std::shuffle(order.begin(), order.end(), rng);
  auto dst = std::make_shared<Table>(src->name(), src->schema());
  dst->Reserve(order.size());
  for (const size_t r : order) dst->AppendRowFrom(*src, r);
  dst->SetPrimaryKey(src->primary_key());
  for (const Table::ForeignKey& fk : src->foreign_keys()) {
    dst->AddForeignKey(fk.col, fk.ref_table, fk.ref_col);
  }
  dst->ComputeStats();
  return catalog->ReplaceTable(std::move(dst));
}

/// Generates the fixed instance and applies the seed's permutation;
/// returns null on failure. `gen_s` gets the generation time alone: the
/// permutation is the harness's, not the program's, set-up.
std::shared_ptr<Catalog> MakeInputs(double sf, uint64_t seed, double* gen_s) {
  TpchConfig gen;
  gen.scale_factor = sf;
  gen.seed = kDataSeed;
  Stopwatch t;
  std::shared_ptr<Catalog> catalog = MakeTpchCatalog(gen);
  *gen_s = t.ElapsedSeconds();
  const Status st = PermuteLineitem(catalog.get(), seed);
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench_load: %s\n", st.ToString().c_str());
    return nullptr;
  }
  return catalog;
}

/// --min-queries never stretches a phase past this, so a run on a slow
/// machine ends in time; run.py then refuses the short sample.
constexpr double kMaxPhaseSeconds = 120;

// ---------------------------------------------------------------- q17 ---

constexpr double kQ17Scale = 0.02;

/// The two Q17 workloads share the query, the 4 sites and the scale-out
/// default model of streamed sources (1 ms per 256 rows, fig15's sweep);
/// they differ in what crosses the sites. The pacing keeps latency from
/// following the host's CPU speed, which on the machine the benchmark was
/// defined on drifted by 40% within minutes: unpaced, a Q17 run is
/// CPU-bound, and at 0.5 ms per 256 rows CPU work (mostly Build) was
/// still half of each query.
ScaleOutOptions Q17Options(const std::string& workload) {
  ScaleOutOptions so;
  so.num_sites = 4;
  if (workload == "q17-aip") {
    // Small windows, so the shipped Bloom filters reach the shuffles
    // mid-stream.
    so.aip = true;
    so.batch_size = 256;
  } else {
    // No AIP; a checkpoint every 4 accepted frames (fig15's default
    // interval); WireInProcessTcp adds the sockets.
    so.aip = false;
    so.checkpoint_interval_frames = 4;
  }
  return so;
}

struct Q17Outcome {
  Status status;
  double build_s = 0, tcp_s = 0, run_s = 0, teardown_s = 0;
  DistQueryStats stats;
  int64_t socket_bytes = 0;
  int64_t answer_bytes = 0;
  std::vector<Tuple> rows;
  obs::QueryProfile profile;

  double latency_s() const { return build_s + tcp_s + run_s + teardown_s; }
};

/// Build -> (wire TCP) -> Run -> teardown, each timed on its own. The
/// profile is snapshotted between Run and teardown, outside every timer.
Q17Outcome RunQ17(const std::shared_ptr<Catalog>& catalog,
                  const ScaleOutOptions& so, bool tcp, bool profile) {
  Q17Outcome out;
  Stopwatch t;
  auto built = BuildScaleOutQuery(ScaleOutQuery::kQ17, catalog, so);
  out.build_s = t.ElapsedSeconds();
  if (!built.ok()) {
    out.status = built.status();
    return out;
  }
  std::unique_ptr<DistributedQuery> query = std::move(*built);
  if (profile) {
    for (auto& site : query->sites) site->context().set_profiling(true);
  }
  std::shared_ptr<Transport> transport;
  if (tcp) {
    t.Restart();
    auto wired = WireInProcessTcp(*query);
    out.tcp_s = t.ElapsedSeconds();
    if (wired.ok()) {
      transport = *wired;
    } else {
      out.status = wired.status();
    }
  }
  if (out.status.ok()) {
    t.Restart();
    auto stats = query->Run();
    out.run_s = t.ElapsedSeconds();
    if (stats.ok()) {
      out.stats = *stats;
      out.rows = query->root_sink->TakeRows();
      out.answer_bytes = AnswerBytes(out.rows);
      if (transport != nullptr) {
        out.socket_bytes = transport->TotalUsage().bytes;
      }
      if (profile) out.profile = CollectDistProfile(*query, *stats);
    } else {
      out.status = stats.status();
    }
  }
  t.Restart();
  query.reset();
  transport.reset();
  out.teardown_s = t.ElapsedSeconds();
  return out;
}

std::string OpsJson(const obs::QueryProfile& profile) {
  std::string out = "[";
  for (const obs::OperatorProfile& op : profile.ops) {
    if (out.size() > 1) out += ",";
    char buf[128];
    std::snprintf(buf, sizeof(buf), ",%.17g,%.17g,%s]", op.self_seconds,
                  op.busy_seconds, op.is_source ? "true" : "false");
    out += "[\"" + op.name + "\"" + buf;
  }
  return out + "]";
}

Rec Q17Record(const char* phase, const Q17Outcome& o) {
  Rec r("q");
  r.Str("phase", phase).Bool("ok", o.status.ok());
  if (!o.status.ok()) r.Str("err", o.status.ToString());
  r.Num("lat_s", o.latency_s())
      .Num("build_s", o.build_s)
      .Num("tcp_s", o.tcp_s)
      .Num("run_s", o.run_s)
      .Num("teardown_s", o.teardown_s);
  if (!o.status.ok()) return r;
  const DistQueryStats& s = o.stats;
  r.Raw("ans", o.rows.size() == 1 ? JsonDouble(o.rows[0].at(0)) : "null")
      .Int("result_rows", static_cast<int64_t>(o.rows.size()))
      .Int("answer_bytes", o.answer_bytes)
      .Int("bytes_shipped", s.bytes_shipped)
      .Int("socket_bytes", o.socket_bytes)
      .Int("payload_bytes", s.payload_bytes)
      .Int("peak_state_bytes", s.peak_state_bytes)
      .Int("rows_pruned", s.rows_pruned + s.rows_source_pruned)
      .Num("link_s", s.link_seconds)
      .Num("stall_s", s.stall_seconds)
      .Int("aip_filters", s.aip_filters)
      .Num("aip_ship_s", s.aip_ship_seconds)
      .Int("dict_reships", s.dict_reships)
      .Int("encode_transposes", s.encode_transposes)
      .Int("checkpoints", s.checkpoints_taken)
      .Int("checkpoint_bytes", s.checkpoint_bytes);
  return r;
}

int RunQ17Workload(const Args& args) {
  const bool tcp = args.workload == "q17-tcp-ckpt";
  const ScaleOutOptions so = Q17Options(args.workload);
  // The reference: the same query on one site, no AIP, unpaced.
  ScaleOutOptions ref_opts;
  ref_opts.num_sites = 1;
  ref_opts.pace_every_rows = 0;

  // One set-up: generation, then one warm-up query (its Build constructs
  // the mesh, as every query's does).
  std::shared_ptr<Catalog> catalog;
  for (int i = 0; i < kSetups; ++i) {
    catalog.reset();
    double gen_s = 0;
    catalog = MakeInputs(kQ17Scale, args.seed, &gen_s);
    if (catalog == nullptr) return 2;
    Stopwatch t;
    const Q17Outcome warm = RunQ17(catalog, so, tcp, false);
    const double warm_s = t.ElapsedSeconds();
    if (!warm.status.ok()) {
      std::fprintf(stderr, "perfbench_load: warm-up failed: %s\n",
                   warm.status.ToString().c_str());
      return 2;
    }
    Rec("setup")
        .Num("total_s", gen_s + warm_s)
        .Num("gen_s", gen_s)
        .Num("warm_s", warm_s)
        .Print();
  }
  const Q17Outcome ref = RunQ17(catalog, ref_opts, false, false);
  if (!ref.status.ok() || ref.rows.size() != 1) {
    std::fprintf(stderr, "perfbench_load: reference failed: %s\n",
                 ref.status.ToString().c_str());
    return 2;
  }
  Rec("ref").Raw("ref", JsonDouble(ref.rows[0].at(0))).Print();
  if (!tcp) {
    // The volume AIP must prune from: the same sites and data, unpaced,
    // without AIP. Not part of the timed set-up.
    ScaleOutOptions unpruned = so;
    unpruned.aip = false;
    unpruned.pace_every_rows = 0;
    const Q17Outcome o = RunQ17(catalog, unpruned, false, false);
    if (!o.status.ok()) {
      std::fprintf(stderr, "perfbench_load: unpruned run failed: %s\n",
                   o.status.ToString().c_str());
      return 2;
    }
    Rec("floor").Int("unpruned_bytes", o.stats.bytes_shipped).Print();
  }
  if (!ResetPeakRss()) {
    std::fprintf(stderr, "perfbench_load: cannot reset VmHWM\n");
    return 2;
  }

  // With tracing requested, plain and traced queries alternate, so a
  // drift of the host's speed hits both alike and trace.overhead_frac
  // compares like with like.
  const bool tracing = args.trace_seconds > 0;
  const double seconds = args.seconds + (tracing ? args.trace_seconds : 0);
  bool trace_written = false;
  int64_t dropped = 0;
  int64_t n = 0;
  Stopwatch wall;
  while (wall.ElapsedSeconds() < seconds ||
         (n < args.min_queries && wall.ElapsedSeconds() < kMaxPhaseSeconds)) {
    const bool traced = tracing && n % 2 == 1;
    if (traced) obs::Trace::EnableWithProcessEpoch();
    const Q17Outcome o = RunQ17(catalog, so, tcp, traced);
    ++n;
    Rec r = Q17Record(traced ? "traced" : "plain", o);
    if (traced) {
      obs::Trace::Enable(false);
      std::map<std::string, std::pair<int64_t, double>> spans;
      FoldSpans(&spans);
      dropped += obs::TraceBuffer::Global().dropped();
      if (!trace_written && o.status.ok()) {
        trace_written =
            obs::TraceBuffer::Global().WriteChromeJson(args.trace_out);
      }
      obs::TraceBuffer::Global().Clear();
      r.Raw("spans", SpansJson(spans));
      if (o.status.ok()) r.Raw("ops", OpsJson(o.profile));
    }
    r.Print();
  }
  const double elapsed = wall.ElapsedSeconds();
  std::vector<const char*> phases = {"plain"};
  if (tracing) phases.push_back("traced");
  for (const char* phase : phases) {
    Rec("end")
        .Str("phase", phase)
        .Num("elapsed_s", elapsed)
        .Int("trace_dropped", dropped)
        .Bool("trace_written", trace_written)
        .Print();
  }
  Rec("rss").Num("peak_rss_mb", PeakRssMb()).Print();
  return 0;
}

// -------------------------------------------------------------- serve ---

constexpr double kServeScale = 0.05;
constexpr int kClients = 4;
/// Client 0 replaces `part` instead of reading on every kWriteEvery-th
/// operation; each write invalidates every cached summary, so the next
/// read of each predicate (and any read racing it) misses.
constexpr int kWriteEvery = 10;
/// The rotated p_size bounds. A query's cost grows with its bound, so the
/// latency distribution has one mode per predicate; an odd count puts the
/// median and the p90 inside a mode instead of in the gap between two.
constexpr int64_t kUppers[] = {8, 16, 24, 32, 40};
constexpr int kPredicates = 5;

ServeQuery PartQuery(int64_t upper) {
  ServeQuery q;
  q.probe_table = "lineitem";
  q.probe_key = "l_partkey";
  q.build_table = "part";
  q.build_key = "p_partkey";
  q.build_filter_col = "p_size";
  q.build_filter_upper = upper;
  q.build_selectivity = static_cast<double>(upper) / 50.0;
  q.probe_agg_col = "l_quantity";
  return q;
}

/// COUNT(*) and SUM(l_quantity) of lineitem JOIN part ON l_partkey =
/// p_partkey WHERE p_size < upper, computed row by row off the catalog
/// without the engine.
Result<std::pair<int64_t, double>> ServeReference(const Catalog& catalog,
                                                  int64_t upper) {
  PUSHSIP_ASSIGN_OR_RETURN(TablePtr part, catalog.GetTable("part"));
  PUSHSIP_ASSIGN_OR_RETURN(TablePtr lineitem, catalog.GetTable("lineitem"));
  PUSHSIP_ASSIGN_OR_RETURN(const int pkey, part->schema().IndexOf("p_partkey"));
  PUSHSIP_ASSIGN_OR_RETURN(const int psize, part->schema().IndexOf("p_size"));
  PUSHSIP_ASSIGN_OR_RETURN(const int lkey,
                           lineitem->schema().IndexOf("l_partkey"));
  PUSHSIP_ASSIGN_OR_RETURN(const int lqty,
                           lineitem->schema().IndexOf("l_quantity"));
  std::unordered_set<int64_t> keys;
  for (size_t r = 0; r < part->num_rows(); ++r) {
    const Value size = part->col(static_cast<size_t>(psize)).GetValue(r);
    if (!size.is_null() && size.AsInt64() < upper) {
      keys.insert(part->col(static_cast<size_t>(pkey)).GetValue(r).AsInt64());
    }
  }
  int64_t count = 0;
  double sum = 0;
  for (size_t r = 0; r < lineitem->num_rows(); ++r) {
    const Value key = lineitem->col(static_cast<size_t>(lkey)).GetValue(r);
    if (key.is_null() || keys.count(key.AsInt64()) == 0) continue;
    ++count;
    const Value qty = lineitem->col(static_cast<size_t>(lqty)).GetValue(r);
    if (!qty.is_null()) sum += qty.AsDouble();
  }
  return std::make_pair(count, sum);
}

std::string AnswerJson(const std::vector<Tuple>& rows) {
  if (rows.size() != 1 || rows[0].size() != 2) return "null";
  return "[" + JsonDouble(rows[0].at(0)) + "," + JsonDouble(rows[0].at(1)) +
         "]";
}

Rec ReadRecord(const char* phase, int64_t upper, double lat_s,
               const Result<SessionResult>& res) {
  Rec r("q");
  r.Str("phase", phase).Bool("ok", res.ok()).Num("lat_s", lat_s).Int(
      "pred", upper);
  if (!res.ok()) {
    r.Str("err", res.status().ToString());
    return r;
  }
  const QueryStats& s = res->stats;
  r.Raw("ans", AnswerJson(res->rows))
      .Int("result_rows", static_cast<int64_t>(res->rows.size()))
      .Int("answer_bytes", AnswerBytes(res->rows))
      .Int("bytes_shipped", s.bytes_shipped)
      .Int("peak_state_bytes", s.peak_state_bytes)
      .Int("rows_pruned", s.rows_pruned + s.rows_source_pruned)
      .Num("exec_s", s.elapsed_sec)
      .Bool("hit", res->aip_cache_hit);
  return r;
}

/// One client's closed loop until `seconds` have passed on `wall` and the
/// clients together have sent `min_reads` reads (or kMaxPhaseSeconds
/// passed). Records are buffered per client and printed after the phase.
void ServeClient(QueryServer* server, const TablePtr& part, int client,
                 uint64_t seed, const char* phase, double seconds,
                 int64_t min_reads, std::atomic<int64_t>* reads,
                 const Stopwatch& wall, std::vector<std::string>* out) {
  for (int64_t i = 0;
       wall.ElapsedSeconds() < seconds ||
       (reads->load() < min_reads && wall.ElapsedSeconds() < kMaxPhaseSeconds);
       ++i) {
    if (client == 0 && i % kWriteEvery == kWriteEvery - 1) {
      // The same table again: its version moves, its answers do not.
      Stopwatch t;
      const Status st = server->ReplaceTable(part);
      Rec r("w");
      r.Str("phase", phase).Bool("ok", st.ok()).Num("lat_s",
                                                    t.ElapsedSeconds());
      if (!st.ok()) r.Str("err", st.ToString());
      out->push_back(r.Line());
      continue;
    }
    const int64_t upper =
        kUppers[(seed + static_cast<uint64_t>(client) +
                 static_cast<uint64_t>(i)) %
                kPredicates];
    Stopwatch t;
    auto id = server->Submit(PartQuery(upper));
    const Result<SessionResult> res =
        id.ok() ? server->Wait(*id) : Result<SessionResult>(id.status());
    reads->fetch_add(1);
    out->push_back(ReadRecord(phase, upper, t.ElapsedSeconds(), res).Line());
  }
}

std::unique_ptr<QueryServer> MakeServer(std::shared_ptr<Catalog> catalog) {
  ServeOptions opts;
  opts.worker_threads = kClients;
  opts.aip_cache_budget_bytes = 8ll << 20;
  // Sources stream, as in the serving bench: 0.5 ms per 1024 rows, about
  // 150 ms per lineitem scan. Unpaced, the four sessions saturate the four
  // cores of the machine the benchmark was defined on, and qps followed
  // the host's speed, which drifted by 40% within minutes.
  opts.scan_delay_every_rows = 1024;
  opts.scan_delay_ms = 0.5;
  return std::make_unique<QueryServer>(std::move(catalog), opts);
}

int RunServeWorkload(const Args& args) {
  // One set-up: generation, server construction, one warm-up read.
  std::shared_ptr<Catalog> catalog;
  std::unique_ptr<QueryServer> server;
  for (int i = 0; i < kSetups; ++i) {
    server.reset();
    catalog.reset();
    double gen_s = 0;
    catalog = MakeInputs(kServeScale, args.seed, &gen_s);
    if (catalog == nullptr) return 2;
    Stopwatch t;
    server = MakeServer(catalog);
    auto id = server->Submit(PartQuery(kUppers[args.seed % kPredicates]));
    const Status warm = id.ok() ? server->Wait(*id).status() : id.status();
    const double warm_s = t.ElapsedSeconds();
    if (!warm.ok()) {
      std::fprintf(stderr, "perfbench_load: warm-up failed: %s\n",
                   warm.ToString().c_str());
      return 2;
    }
    Rec("setup")
        .Num("total_s", gen_s + warm_s)
        .Num("gen_s", gen_s)
        .Num("warm_s", warm_s)
        .Print();
  }
  std::string refs = "{";
  for (const int64_t upper : kUppers) {
    auto ref = ServeReference(*catalog, upper);
    if (!ref.ok()) {
      std::fprintf(stderr, "perfbench_load: reference failed: %s\n",
                   ref.status().ToString().c_str());
      return 2;
    }
    char buf[96];
    std::snprintf(buf, sizeof(buf), "\"%" PRId64 "\":[%" PRId64 ",%.17g]",
                  upper, ref->first, ref->second);
    if (refs.size() > 1) refs += ",";
    refs += buf;
  }
  Rec("ref").Raw("ref", refs + "}").Print();
  auto part = catalog->GetTable("part");
  if (!part.ok()) {
    std::fprintf(stderr, "perfbench_load: no part table\n");
    return 2;
  }
  if (!ResetPeakRss()) {
    std::fprintf(stderr, "perfbench_load: cannot reset VmHWM\n");
    return 2;
  }

  struct Phase {
    const char* name;
    double seconds;
    bool traced;
  };
  std::vector<Phase> phases = {{"plain", args.seconds, false}};
  if (args.trace_seconds > 0) {
    phases.push_back({"traced", args.trace_seconds, true});
  }
  for (const Phase& phase : phases) {
    if (phase.traced) obs::Trace::EnableWithProcessEpoch();
    const AipCacheStats before = server->cache_stats();
    std::vector<std::vector<std::string>> recs(kClients);
    std::vector<std::thread> clients;
    std::atomic<int64_t> reads{0};
    Stopwatch wall;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back(ServeClient, server.get(), *part, c, args.seed,
                           phase.name, phase.seconds, args.min_queries,
                           &reads, std::cref(wall),
                           &recs[static_cast<size_t>(c)]);
    }
    for (std::thread& th : clients) th.join();
    const double elapsed = wall.ElapsedSeconds();
    const AipCacheStats after = server->cache_stats();
    std::map<std::string, std::pair<int64_t, double>> spans;
    bool trace_written = false;
    int64_t dropped = 0;
    if (phase.traced) {
      obs::Trace::Enable(false);
      FoldSpans(&spans);
      dropped = obs::TraceBuffer::Global().dropped();
      trace_written =
          obs::TraceBuffer::Global().WriteChromeJson(args.trace_out);
      obs::TraceBuffer::Global().Clear();
    }
    for (const auto& lines : recs) {
      for (const std::string& line : lines) std::fputs(line.c_str(), stdout);
    }
    Rec("end")
        .Str("phase", phase.name)
        .Num("elapsed_s", elapsed)
        .Int("cache_hits", after.hits - before.hits)
        .Int("cache_misses", after.misses - before.misses)
        .Int("trace_dropped", dropped)
        .Bool("trace_written", trace_written)
        .Raw("spans", SpansJson(spans))
        .Print();
  }
  server.reset();
  Rec("rss").Num("peak_rss_mb", PeakRssMb()).Print();
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value);
    } else if (key == "--min-queries") {
      args->min_queries = std::atoll(value);
    } else if (key == "--trace-seconds") {
      args->trace_seconds = std::atof(value);
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && args->seconds > 0 &&
         (args->trace_seconds <= 0 || !args->trace_out.empty());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr, "usage: see the header of perfbench/load.cc\n");
    return 2;
  }
  if (args.workload == "q17-aip" || args.workload == "q17-tcp-ckpt") {
    return RunQ17Workload(args);
  }
  if (args.workload == "serve-mixed") return RunServeWorkload(args);
  std::fprintf(stderr, "perfbench_load: unknown workload %s\n",
               args.workload.c_str());
  return 2;
}
