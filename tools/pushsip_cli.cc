// pushsip_cli: run any workload query under any strategy from the command
// line and print the paper's measurements for that single cell.
//
//   pushsip_cli --query=Q1A --strategy=cb --sf=0.02 --delay --rows
//
// Flags:
//   --query=<Q1A..Q5B>     (default Q1A)
//   --strategy=<baseline|magic|ff|cb>  (default baseline)
//   --sf=<scale factor>    (default 0.01)
//   --seed=<n>             (default 42)
//   --skewed               force the Zipf-skewed dataset
//   --delay                delayed-input environment (paper §VI-B values)
//   --pace=<rows>          default scan pacing interval (0 = off)
//   --remote-bw=<bps>      link bandwidth for Q1C/Q3C (default 100e6)
//   --rows                 print the result rows
//
// Distributed mode: --sites=N (N >= 1) runs the scale-out workload on N
// simulated sites instead of a single-engine query:
//   pushsip_cli --sites=4 --dist=q17 --strategy=cb
//   --dist=<q17|subq>      which scale-out scenario (default q17)
//   (--strategy baseline|cb selects no-AIP vs cost-based AIP)
//   --transport=<sim|tcp>  sim (default) runs every site in this process
//                          over the simulated mesh; tcp is the coordinator
//                          mode — one pushsip_site process per site over
//                          real loopback sockets, answers merged here.
//
// Observability: --profile collects per-operator timings and prints the
// EXPLAIN-ANALYZE profile tree, --explain is --profile plus the plan shape
// (the tree carries both), --trace-out=FILE writes a Chrome trace_event
// JSON of the run (merged across site processes under --transport=tcp).
#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "dist/multi_process.h"
#include "dist/scale_out.h"
#include "obs/trace.h"
#include "storage/tpch_generator.h"
#include "workload/experiment.h"

using namespace pushsip;

namespace {

bool ParseQuery(const std::string& name, QueryId* out) {
  for (const QueryId q : AllQueryIds()) {
    if (name == QueryName(q)) {
      *out = q;
      return true;
    }
  }
  return false;
}

bool ParseStrategy(const std::string& name, Strategy* out) {
  if (name == "baseline") *out = Strategy::kBaseline;
  else if (name == "magic") *out = Strategy::kMagic;
  else if (name == "ff") *out = Strategy::kFeedForward;
  else if (name == "cb") *out = Strategy::kCostBased;
  else return false;
  return true;
}

/// Per-site rollup of an operator-profile forest (counters are collected
/// unconditionally, so this works with or without --profile).
struct SiteRollup {
  int64_t rows_out = 0;
  int64_t pruned = 0;
  int64_t source_pruned = 0;
  int64_t bytes_sent = 0;
  int64_t peak_state = 0;
  double stall_sec = 0;
};

void PrintSimSiteStats(const DistributedQuery& query,
                       const DistQueryStats& stats) {
  const obs::QueryProfile prof = CollectDistProfile(query, stats);
  std::map<int, SiteRollup> by_site;
  for (const obs::OperatorProfile& op : prof.ops) {
    SiteRollup& s = by_site[op.site_id];
    s.rows_out += op.rows_out;
    s.pruned += op.rows_pruned;
    s.source_pruned += op.rows_source_pruned;
    s.bytes_sent += op.bytes_sent;
    s.peak_state += op.peak_state_bytes;
    s.stall_sec += op.stall_seconds;
  }
  std::printf("per-site stats :\n");
  for (const auto& [site, s] : by_site) {
    std::printf("  site %-2d rows_out=%-10lld pruned=%-8lld "
                "src_pruned=%-8lld sent=%.3fMB state=%.3fMB stall=%.1fms\n",
                site, static_cast<long long>(s.rows_out),
                static_cast<long long>(s.pruned),
                static_cast<long long>(s.source_pruned),
                static_cast<double>(s.bytes_sent) / (1 << 20),
                static_cast<double>(s.peak_state) / (1 << 20),
                s.stall_sec * 1e3);
  }
}

void WriteTraceIfAsked(const std::string& trace_out,
                       const std::string& extra_events = "") {
  if (trace_out.empty()) return;
  if (obs::TraceBuffer::Global().WriteChromeJson(trace_out, extra_events)) {
    std::fprintf(stderr, "trace written to %s\n", trace_out.c_str());
  } else {
    std::fprintf(stderr, "trace write failed: %s\n", trace_out.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  QueryId query = QueryId::kQ1A;
  Strategy strategy = Strategy::kBaseline;
  TpchConfig gen;
  gen.scale_factor = 0.01;
  ExperimentConfig cfg;
  bool print_rows = false;
  bool force_skew = false;
  size_t pace = 512;
  int sites = 0;
  ScaleOutQuery dist_query = ScaleOutQuery::kQ17;
  bool tcp_transport = false;
  bool profile = false;
  std::string trace_out;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--query=", 0) == 0) {
      if (!ParseQuery(arg.substr(8), &query)) {
        std::fprintf(stderr, "unknown query %s\n", arg.c_str());
        return 2;
      }
    } else if (arg.rfind("--strategy=", 0) == 0) {
      if (!ParseStrategy(arg.substr(11), &strategy)) {
        std::fprintf(stderr, "unknown strategy %s\n", arg.c_str());
        return 2;
      }
    } else if (arg.rfind("--sf=", 0) == 0) {
      gen.scale_factor = std::atof(arg.c_str() + 5);
    } else if (arg.rfind("--seed=", 0) == 0) {
      gen.seed = static_cast<uint64_t>(std::atoll(arg.c_str() + 7));
    } else if (arg == "--skewed") {
      force_skew = true;
    } else if (arg == "--delay") {
      cfg.delay_inputs = true;
    } else if (arg.rfind("--pace=", 0) == 0) {
      pace = static_cast<size_t>(std::atoll(arg.c_str() + 7));
    } else if (arg.rfind("--remote-bw=", 0) == 0) {
      cfg.remote_bandwidth_bps = std::atof(arg.c_str() + 12);
    } else if (arg.rfind("--sites=", 0) == 0) {
      sites = std::atoi(arg.c_str() + 8);
    } else if (arg == "--dist=q17") {
      dist_query = ScaleOutQuery::kQ17;
    } else if (arg == "--dist=subq") {
      dist_query = ScaleOutQuery::kSubquery;
    } else if (arg == "--transport=sim") {
      tcp_transport = false;
    } else if (arg == "--transport=tcp") {
      tcp_transport = true;
    } else if (arg == "--rows") {
      print_rows = true;
    } else if (arg == "--profile") {
      profile = true;
    } else if (arg == "--explain") {
      profile = true;  // the profile tree is the plan, annotated
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(12);
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: pushsip_cli [--query=Q1A] [--strategy=baseline|"
                  "magic|ff|cb]\n  [--sf=0.01] [--seed=42] [--skewed] "
                  "[--delay] [--pace=512]\n  [--remote-bw=1e8] [--rows]\n"
                  "  [--profile] [--explain] [--trace-out=FILE]\n"
                  "  [--sites=N --dist=q17|subq --transport=sim|tcp]  "
                  "(distributed scale-out mode)\n");
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag %s (try --help)\n", arg.c_str());
      return 2;
    }
  }

  if (!trace_out.empty()) {
    // Coordinator events get pid = the site count so they never collide
    // with a site process's own pid (= its site id).
    if (sites > 0) obs::Trace::SetProcessId(sites);
    obs::Trace::EnableWithProcessEpoch();
  }

  if (sites > 0) {
    if (strategy != Strategy::kBaseline && strategy != Strategy::kCostBased) {
      std::fprintf(stderr,
                   "distributed mode supports --strategy=baseline|cb\n");
      return 2;
    }
    if (tcp_transport) {
      // Coordinator mode: one pushsip_site process per site over loopback
      // TCP; their REPORT lines are folded here.
      MultiProcessOptions mp;
      mp.query = dist_query;
      mp.scale_factor = gen.scale_factor;
      mp.seed = gen.seed;
      mp.num_sites = sites;
      mp.aip = strategy == Strategy::kCostBased;
      mp.weak_part_filter = gen.scale_factor < 0.01;
      mp.trace = !trace_out.empty();
      auto r = RunMultiProcess(mp);
      if (!r.ok()) {
        std::fprintf(stderr, "error: %s\n", r.status().ToString().c_str());
        return 1;
      }
      auto rows = DeserializeBatch(r->rows_wire);
      if (!rows.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     rows.status().ToString().c_str());
        return 1;
      }
      std::printf("query          : %s on %d sites (sf=%g, tcp "
                  "multi-process)\n",
                  ScaleOutQueryName(dist_query), sites, gen.scale_factor);
      std::printf("strategy       : %s\n", StrategyName(strategy));
      std::printf("result rows    : %lld\n",
                  static_cast<long long>(r->stats.result_rows));
      std::printf("running time   : %.2f ms (slowest site)\n",
                  r->stats.elapsed_sec * 1e3);
      std::printf("bytes on wire  : %.3f MB\n", r->stats.shipped_mb());
      std::printf("pruned @source : %lld\n",
                  static_cast<long long>(r->stats.rows_source_pruned));
      std::printf("AIP sets/filters shipped: %lld / %lld\n",
                  static_cast<long long>(r->stats.aip_sets),
                  static_cast<long long>(r->stats.aip_filters));
      std::printf("per-site stats :\n");
      for (size_t i = 0; i < r->per_site.size(); ++i) {
        const DistQueryStats& s = r->per_site[i];
        std::printf("  site %-2zu elapsed=%7.2fms rows_pruned=%-8lld "
                    "src_pruned=%-8lld sent=%.3fMB state=%.3fMB "
                    "stall=%.1fms\n",
                    i, s.elapsed_sec * 1e3,
                    static_cast<long long>(s.rows_pruned),
                    static_cast<long long>(s.rows_source_pruned),
                    s.shipped_mb(), s.peak_state_mb(),
                    s.stall_seconds * 1e3);
      }
      if (profile) {
        std::printf("(profile tree unavailable over --transport=tcp: the "
                    "operators live in the site processes; use "
                    "--transport=sim)\n");
      }
      if (print_rows) {
        for (size_t r = 0; r < rows->size(); ++r) {
          std::printf("%s\n", rows->RowToString(r).c_str());
        }
      }
      WriteTraceIfAsked(trace_out, r->trace_events_json);
      return 0;
    }
    gen.skewed = force_skew;
    ScaleOutOptions opts;
    opts.num_sites = sites;
    opts.aip = strategy == Strategy::kCostBased;
    // Same fallback the benches use: tiny catalogs need the weaker part
    // filter to produce non-empty results (and the tcp coordinator mode
    // applies the same rule, so the two transports stay comparable).
    opts.weak_part_filter = gen.scale_factor < 0.01;
    auto built = BuildScaleOutQuery(dist_query, MakeTpchCatalog(gen), opts);
    if (!built.ok()) {
      std::fprintf(stderr, "error: %s\n", built.status().ToString().c_str());
      return 1;
    }
    if (profile) {
      for (auto& site : (*built)->sites) site->context().set_profiling(true);
    }
    auto r = (*built)->Run();
    if (!r.ok()) {
      std::fprintf(stderr, "error: %s\n", r.status().ToString().c_str());
      return 1;
    }
    std::printf("query          : %s on %d sites (sf=%g)\n",
                ScaleOutQueryName(dist_query), sites, gen.scale_factor);
    std::printf("strategy       : %s\n", StrategyName(strategy));
    std::printf("result rows    : %lld\n",
                static_cast<long long>(r->result_rows));
    std::printf("running time   : %.2f ms\n", r->elapsed_sec * 1e3);
    std::printf("peak op state  : %.3f MB (summed over sites)\n",
                r->peak_state_mb());
    std::printf("bytes shipped  : %.3f MB across %.3f link-seconds\n",
                r->shipped_mb(), r->link_seconds);
    std::printf("pruned @source : %lld\n",
                static_cast<long long>(r->rows_source_pruned));
    std::printf("AIP sets/filters shipped: %lld / %lld\n",
                static_cast<long long>(r->aip_sets),
                static_cast<long long>(r->aip_filters));
    PrintSimSiteStats(**built, *r);
    if (profile) {
      std::printf("%s", CollectDistProfile(**built, *r).ToText().c_str());
    }
    if (print_rows) {
      for (const Tuple& row : (*built)->root_sink->rows()) {
        std::printf("%s\n", row.ToString().c_str());
      }
    }
    WriteTraceIfAsked(trace_out);
    return 0;
  }

  gen.skewed = force_skew || QueryWantsSkewedData(query);
  cfg.query = query;
  cfg.strategy = strategy;
  cfg.catalog = MakeTpchCatalog(gen);
  cfg.pace_every_rows = pace;
  cfg.pace_ms = 0.5;
  cfg.keep_rows = print_rows;
  cfg.profiling = profile;

  auto r = RunExperiment(cfg);
  if (!r.ok()) {
    std::fprintf(stderr, "error: %s\n", r.status().ToString().c_str());
    return 1;
  }
  std::printf("query          : %s (%s data, sf=%g)\n", QueryName(query),
              gen.skewed ? "skewed" : "uniform", gen.scale_factor);
  std::printf("strategy       : %s\n", StrategyName(strategy));
  std::printf("result rows    : %lld (hash %016llx)\n",
              static_cast<long long>(r->result_rows),
              static_cast<unsigned long long>(r->result_hash));
  std::printf("running time   : %.2f ms\n", r->stats.elapsed_sec * 1e3);
  std::printf("peak op state  : %.3f MB\n", r->stats.peak_state_mb());
  std::printf("AIP set bytes  : %.3f MB\n",
              static_cast<double>(r->aip_set_bytes) / (1 << 20));
  std::printf("AIP sets/filters/pruned: %lld / %lld / %lld\n",
              static_cast<long long>(r->aip_sets),
              static_cast<long long>(r->aip_filters),
              static_cast<long long>(r->aip_pruned));
  if (profile) {
    std::printf("%s", r->profile.ToText().c_str());
  }
  if (print_rows) {
    for (const Tuple& row : r->rows) {
      std::printf("%s\n", row.ToString().c_str());
    }
  }
  WriteTraceIfAsked(trace_out);
  return 0;
}
