// Fig. 15 (extension) — scale-out: TPC-H Q17 and the subquery workload
// executed as partitioned multi-site plans, sweeping 1..8 sites, with and
// without cost-based AIP. Reports running time and the bytes that crossed
// the mesh; with AIP the shipped Bloom filters prune the shuffles at their
// source sites.
//
// Flags: the shared harness flags (--sf=, --reps=, --seed=, --json <path>)
// plus --max-sites=N (default 8) and --bw=<bits/sec> (default 1e9).
//
// The sweep fails a run whose elapsed time falls below its pacing floor:
// the delay its longest paced shard scan owes, floor(shard rows /
// pace_every_rows) x pace_ms. Modelled delays are paid as owed time, so
// no producer may sleep less than it models. Every mode fails a multi-site
// cell that reports no link seconds: its JSON link column would show
// nothing.
//
// --kill-site[=K] switches to the chaos mode: Q17 runs once cleanly, once
// with site K (default 1) going dark after --kill-after=N (default 200)
// matched transmissions (recovery = full replay + epoch dedup), and once
// with site K's compute fragment dying mid-aggregate after
// --stateful-kill-after=N (default 6) frames under a
// --checkpoint-interval=N (default 4) frame checkpoint cadence (recovery =
// checkpoint restore + suffix replay). The report compares the cells —
// recovery overhead in time and retransmitted bytes, restart/dedup
// counters, checkpoint bytes and restore counts — and fails if any
// recovered answer differs from the clean one or the stateful cell did
// not actually restore from a checkpoint.
//
// --straggle-site[=K] switches to the adaptive mode: Q17 runs once cleanly
// and once with site K's outbound links throttled to --straggle-bw bits/s
// (default 2e5) under the adaptive runtime, which must detect the
// straggler and migrate at least one of its map fragments to a healthy
// site. The report compares the runs — straggler-recovery overhead plus
// migration/recalibration counters, all emitted in --json — and fails if
// no migration happened or the answers differ.
//
// --transport=tcp switches to the multi-process mode: each query runs once
// in-process over the simulated mesh and once as N pushsip_site processes
// over real loopback TCP (both with deterministic receiver merging), and
// the two serialized answers must be bit-identical. The report compares
// wall time and wire bytes across the backends.
#include <algorithm>
#include <cmath>
#include <cstring>

#include "adaptive/reopt_controller.h"
#include "bench/figure_harness.h"
#include "dist/multi_process.h"
#include "dist/scale_out.h"
#include "net/fault_injector.h"
#include "obs/trace.h"

using namespace pushsip;
using namespace pushsip::bench;

namespace {

/// Adds one run's DistQueryStats to `record`'s per-run fields; a cell of
/// several runs divides the sums by its run count.
void AddRunStats(const DistQueryStats& stats, JsonRecord* record) {
  record->elapsed_sec += stats.elapsed_sec;
  record->peak_state_mb += stats.peak_state_mb();
  record->rows_pruned += stats.rows_pruned + stats.rows_source_pruned;
  record->bytes_shipped += stats.bytes_shipped;
  record->stall_seconds += stats.stall_seconds;
  record->link_seconds += stats.link_seconds;
}

/// A multi-site cell whose runs billed no link time shipped nothing over
/// the mesh, or lost its billing: either way its link column shows
/// nothing. Returns 1 (after saying which cell) if any cell is such.
int CheckLinkColumn(const std::vector<JsonRecord>& records) {
  for (const JsonRecord& r : records) {
    if (r.sites > 1 && r.link_seconds <= 0) {
      std::fprintf(stderr,
                   "FAILED: %s %s (%s) on %d sites reports link_seconds %g\n",
                   r.query.c_str(), r.strategy.c_str(), r.transport.c_str(),
                   r.sites, r.link_seconds);
      return 1;
    }
  }
  return 0;
}

/// One measured Q17 execution for the --kill-site comparison.
struct KillRun {
  DistQueryStats stats;
  std::vector<Tuple> rows;
};

int RunKillSiteMode(const HarnessOptions& opts, int kill_site,
                    int64_t kill_after, int64_t checkpoint_interval,
                    int64_t stateful_kill_after, int sites,
                    double bandwidth_bps, bool weak_filter) {
  InitObs(opts);
  TpchConfig gen;
  gen.scale_factor = opts.scale_factor;
  gen.seed = opts.seed;
  auto catalog = MakeTpchCatalog(gen);

  std::printf("# Fig. 15 chaos mode: Q17 on %d sites, kill site %d after "
              "%lld transmissions; stateful cell kills its aggregate "
              "stream after %lld frames with a %lld-frame checkpoint "
              "interval\n",
              sites, kill_site, static_cast<long long>(kill_after),
              static_cast<long long>(stateful_kill_after),
              static_cast<long long>(checkpoint_interval));
  std::printf("%-10s %12s %14s %10s %10s %10s %10s %12s %10s\n", "run",
              "time(ms)", "shipped MB", "faults", "restarts", "dropped",
              "reships", "ckpt bytes", "restores");

  // Three cells: clean, the pre-existing replay-from-scratch kill (a site
  // goes dark on the mesh), and the stateful kill (a compute fragment dies
  // mid-aggregate and resumes from its last checkpoint).
  enum Cell { kClean = 0, kReplayKill = 1, kStatefulKill = 2 };
  static const char* kCellNames[3] = {"clean", "killed", "stateful"};
  static const char* kCellStrategies[3] = {"Cost-based", "Cost-based+kill",
                                           "Cost-based+kill-stateful"};
  std::vector<JsonRecord> records;
  KillRun runs[3];
  for (int cell = kClean; cell <= kStatefulKill; ++cell) {
    ScaleOutOptions so;
    so.num_sites = sites;
    so.bandwidth_bps = bandwidth_bps;
    so.aip = true;
    so.weak_part_filter = weak_filter;
    // Small windows + pacing in every cell — the kill and the checkpoint
    // cuts land genuinely mid-stream, and the clean cell prices the same
    // batch shape so the overhead comparison is like-for-like.
    so.batch_size = 256;
    so.pace_every_rows = 256;
    so.pace_ms = 0.5;
    if (cell == kReplayKill) {
      so.fault_injector = std::make_shared<FaultInjector>();
      so.fault_injector->SiteDown(kill_site, kill_after);
    } else if (cell == kStatefulKill) {
      so.checkpoint_interval_frames = checkpoint_interval;
      so.stateful_kill_site = kill_site;
      so.stateful_kill_after_frames = stateful_kill_after;
      so.stateful_kill_aggregate = true;
    }
    auto query = BuildScaleOutQuery(ScaleOutQuery::kQ17, catalog, so);
    if (!query.ok()) {
      std::fprintf(stderr, "FAILED build: %s\n",
                   query.status().ToString().c_str());
      return 1;
    }
    auto stats = (*query)->Run();
    if (!stats.ok()) {
      std::fprintf(stderr, "FAILED run: %s\n",
                   stats.status().ToString().c_str());
      return 1;
    }
    KillRun& run = runs[cell];
    run.stats = *stats;
    run.rows = (*query)->root_sink->TakeRows();
    std::printf("%-10s %12.1f %14.3f %10lld %10lld %10lld %10lld %12lld "
                "%10lld\n",
                kCellNames[cell], stats->elapsed_sec * 1e3,
                stats->shipped_mb(),
                static_cast<long long>(stats->faults_injected),
                static_cast<long long>(stats->fragment_restarts),
                static_cast<long long>(stats->batches_discarded),
                static_cast<long long>(stats->aip_reships),
                static_cast<long long>(stats->checkpoint_bytes),
                static_cast<long long>(stats->state_recoveries));
    JsonRecord record;
    record.query = "Q17-scaleout";
    record.strategy = kCellStrategies[cell];
    record.sites = sites;
    AddRunStats(*stats, &record);
    record.metric_mean = stats->elapsed_sec;
    record.fragment_restarts = stats->fragment_restarts;
    record.checkpoints_taken = stats->checkpoints_taken;
    record.checkpoint_bytes = stats->checkpoint_bytes;
    record.state_recoveries = stats->state_recoveries;
    record.restore_seconds = stats->restore_seconds;
    records.push_back(record);
  }

  // Deterministic replay + epoch dedup (and, in the stateful cell, the
  // checkpoint restore): every recovered answer must match the clean one.
  const KillRun& clean = runs[kClean];
  for (int cell = kReplayKill; cell <= kStatefulKill; ++cell) {
    const KillRun& recovered = runs[cell];
    if (clean.rows.size() != recovered.rows.size()) {
      std::fprintf(stderr,
                   "FAILED: %s run returned %zu rows vs %zu\n",
                   kCellNames[cell], recovered.rows.size(),
                   clean.rows.size());
      return 1;
    }
    if (!clean.rows.empty() && !clean.rows[0].at(0).is_null()) {
      const double want = clean.rows[0].at(0).AsDouble();
      const double got = recovered.rows[0].at(0).AsDouble();
      if (std::abs(got - want) > std::abs(want) * 1e-9 + 1e-9) {
        std::fprintf(stderr,
                     "FAILED: %s answer %f differs from %f\n",
                     kCellNames[cell], got, want);
        return 1;
      }
    }
    const double overhead_ms =
        (recovered.stats.elapsed_sec - clean.stats.elapsed_sec) * 1e3;
    const double extra_mb =
        recovered.stats.shipped_mb() - clean.stats.shipped_mb();
    std::printf("# %s recovery overhead: %+.1f ms, %+.3f MB retransmitted, "
                "answer identical\n",
                kCellNames[cell], overhead_ms, extra_mb);
  }
  // The stateful cell must actually have recovered *from a checkpoint* —
  // a silent fall-back to full replay would make the cell meaningless.
  const DistQueryStats& st = runs[kStatefulKill].stats;
  if (st.checkpoints_taken < 1 || st.checkpoint_bytes <= 0 ||
      st.state_recoveries < 1) {
    std::fprintf(stderr,
                 "FAILED: stateful cell did not restore from a checkpoint "
                 "(checkpoints=%lld bytes=%lld restores=%lld)\n",
                 static_cast<long long>(st.checkpoints_taken),
                 static_cast<long long>(st.checkpoint_bytes),
                 static_cast<long long>(st.state_recoveries));
    return 1;
  }
  std::printf("# stateful: %lld checkpoint(s), %lld bytes, %lld restore(s) "
              "in %.3f ms\n",
              static_cast<long long>(st.checkpoints_taken),
              static_cast<long long>(st.checkpoint_bytes),
              static_cast<long long>(st.state_recoveries),
              st.restore_seconds * 1e3);
  if (CheckLinkColumn(records) != 0) return 1;
  if (!opts.json_path.empty() &&
      !WriteJsonReport(opts.json_path, "fig15_scaleout_kill",
                       "Fig. 15 chaos - Q17 with one site killed mid-query",
                       opts, records)) {
    return 1;
  }
  FinishObs(opts);
  return 0;
}

int RunStraggleSiteMode(const HarnessOptions& opts, int straggle_site,
                        double straggle_bw, int sites, double bandwidth_bps,
                        bool weak_filter) {
  InitObs(opts);
  TpchConfig gen;
  gen.scale_factor = opts.scale_factor;
  gen.seed = opts.seed;
  auto catalog = MakeTpchCatalog(gen);

  std::printf("# Fig. 15 adaptive mode: Q17 on %d sites, site %d outbound "
              "throttled to %g bps\n",
              sites, straggle_site, straggle_bw);
  std::printf("%-10s %12s %14s %12s %12s %12s %12s\n", "run", "time(ms)",
              "shipped MB", "stragglers", "migrations", "restarts",
              "recalibs");

  std::vector<JsonRecord> records;
  KillRun clean, slowed;
  for (const bool straggle : {false, true}) {
    ScaleOutOptions so;
    so.num_sites = sites;
    so.bandwidth_bps = bandwidth_bps;
    so.aip = true;
    so.weak_part_filter = weak_filter;
    // Small windows + pacing give the detector enough window-batch
    // boundaries to observe the lag and preempt mid-stream.
    so.batch_size = 256;
    so.pace_every_rows = 256;
    so.pace_ms = 0.5;
    auto query = BuildScaleOutQuery(ScaleOutQuery::kQ17, catalog, so);
    if (!query.ok()) {
      std::fprintf(stderr, "FAILED build: %s\n",
                   query.status().ToString().c_str());
      return 1;
    }
    // The adaptive runtime runs in both cells so the clean run carries the
    // same monitoring overhead; only the second cell is throttled.
    adaptive::InstallAdaptiveRuntime(query->get());
    if (straggle) {
      (*query)->mesh->ThrottleOutbound(straggle_site, straggle_bw);
    }
    auto stats = (*query)->Run();
    if (!stats.ok()) {
      std::fprintf(stderr, "FAILED run: %s\n",
                   stats.status().ToString().c_str());
      return 1;
    }
    KillRun& run = straggle ? slowed : clean;
    run.stats = *stats;
    run.rows = (*query)->root_sink->TakeRows();
    std::printf("%-10s %12.1f %14.3f %12lld %12lld %12lld %12lld\n",
                straggle ? "straggled" : "clean", stats->elapsed_sec * 1e3,
                stats->shipped_mb(),
                static_cast<long long>(stats->stragglers_detected),
                static_cast<long long>(stats->fragment_migrations),
                static_cast<long long>(stats->fragment_restarts),
                static_cast<long long>(stats->recalibrations));
    JsonRecord record;
    record.query = "Q17-scaleout";
    record.strategy = straggle ? "Adaptive+straggler" : "Adaptive";
    record.sites = sites;
    AddRunStats(*stats, &record);
    record.metric_mean = stats->elapsed_sec;
    record.fragment_restarts = stats->fragment_restarts;
    record.fragment_migrations = stats->fragment_migrations;
    record.stragglers_detected = stats->stragglers_detected;
    record.recalibrations = stats->recalibrations;
    records.push_back(record);
  }

  // Migration + deterministic replay: the answer must match the clean run.
  if (clean.rows.size() != slowed.rows.size()) {
    std::fprintf(stderr, "FAILED: straggled run returned %zu rows vs %zu\n",
                 slowed.rows.size(), clean.rows.size());
    return 1;
  }
  if (!clean.rows.empty() && !clean.rows[0].at(0).is_null()) {
    const double want = clean.rows[0].at(0).AsDouble();
    const double got = slowed.rows[0].at(0).AsDouble();
    if (std::abs(got - want) > std::abs(want) * 1e-9 + 1e-9) {
      std::fprintf(stderr, "FAILED: straggled answer %f differs from %f\n",
                   got, want);
      return 1;
    }
  }
  if (slowed.stats.fragment_migrations < 1) {
    std::fprintf(stderr,
                 "FAILED: adaptive runtime migrated no fragment off the "
                 "straggler (detected %lld stragglers)\n",
                 static_cast<long long>(slowed.stats.stragglers_detected));
    return 1;
  }
  const double overhead_ms =
      (slowed.stats.elapsed_sec - clean.stats.elapsed_sec) * 1e3;
  std::printf("# straggler-recovery overhead: %+.1f ms, %lld fragment(s) "
              "migrated, answer identical\n",
              overhead_ms,
              static_cast<long long>(slowed.stats.fragment_migrations));
  if (CheckLinkColumn(records) != 0) return 1;
  if (!opts.json_path.empty() &&
      !WriteJsonReport(opts.json_path, "fig15_scaleout_straggle",
                       "Fig. 15 adaptive - Q17 with one straggling site",
                       opts, records)) {
    return 1;
  }
  FinishObs(opts);
  return 0;
}

/// The longest pacing delay any scan of `query` owes in full: a lower bound
/// on its elapsed time, pruned windows included (a scan paces before it
/// filters). An elapsed time below it means a producer under-slept.
double PacingFloorSeconds(const DistributedQuery& query) {
  double floor = 0;
  for (const auto& site : query.sites) {
    for (const Operator* op : site->context().operators()) {
      if (const auto* scan = dynamic_cast<const TableScan*>(op)) {
        floor = std::max(floor, scan->modelled_delay_seconds());
      }
    }
  }
  return floor;
}

/// Verifies the profile forest's counters sum to the run's DistQueryStats
/// (the EXPLAIN-ANALYZE tree and the stats line must tell one story).
/// Per-site state *peaks* aren't summable per op, so state is not checked.
int CheckProfileTotals(const obs::QueryProfile& prof,
                       const DistQueryStats& stats) {
  int64_t pruned = 0, source_pruned = 0, bytes_sent = 0;
  for (const obs::OperatorProfile& op : prof.ops) {
    pruned += op.rows_pruned;
    source_pruned += op.rows_source_pruned;
    bytes_sent += op.bytes_sent;
  }
  if (pruned != stats.rows_pruned ||
      source_pruned != stats.rows_source_pruned) {
    std::fprintf(stderr,
                 "FAILED: profile prune totals (%lld/%lld) != stats "
                 "(%lld/%lld)\n",
                 static_cast<long long>(pruned),
                 static_cast<long long>(source_pruned),
                 static_cast<long long>(stats.rows_pruned),
                 static_cast<long long>(stats.rows_source_pruned));
    return 1;
  }
  if (bytes_sent <= 0 || bytes_sent != stats.payload_bytes) {
    std::fprintf(stderr,
                 "FAILED: profile bytes_sent=%lld != stats payload_bytes="
                 "%lld\n",
                 static_cast<long long>(bytes_sent),
                 static_cast<long long>(stats.payload_bytes));
    return 1;
  }
  if (prof.result_rows != stats.result_rows) {
    std::fprintf(stderr, "FAILED: profile result_rows=%lld != stats %lld\n",
                 static_cast<long long>(prof.result_rows),
                 static_cast<long long>(stats.result_rows));
    return 1;
  }
  return 0;
}

/// --transport=tcp: sim (in-process) vs TCP (multi-process) on `sites`
/// sites; the serialized answers must match byte for byte. With
/// --trace-out the merged Chrome trace carries every site process's
/// events on one time axis; with --profile the sim reference run prints
/// its profile tree, cross-checked against its stats totals.
int RunTcpTransportMode(const HarnessOptions& opts, int sites,
                        bool weak_filter) {
  const bool tracing = !opts.trace_path.empty();
  if (tracing) {
    // Coordinator events get pid = the site count; site processes report
    // under their own site ids 0..N-1.
    obs::Trace::SetProcessId(sites);
  }
  InitObs(opts);

  TpchConfig gen;
  gen.scale_factor = opts.scale_factor;
  gen.seed = opts.seed;
  auto catalog = MakeTpchCatalog(gen);

  std::printf("# Fig. 15 transport mode: %d sites, sim in-process vs tcp "
              "multi-process (sf=%g)\n",
              sites, opts.scale_factor);
  std::printf("%-18s %-5s %12s %14s %10s\n", "query", "wire", "time(ms)",
              "shipped MB", "rows");

  std::vector<JsonRecord> records;
  std::string site_trace_events;
  for (const ScaleOutQuery q :
       {ScaleOutQuery::kQ17, ScaleOutQuery::kSubquery}) {
    // Reference: the whole query in this process over the simulated mesh,
    // receivers merging deterministically.
    ScaleOutOptions so;
    so.num_sites = sites;
    so.aip = true;
    so.weak_part_filter = weak_filter;
    so.deterministic_merge = true;
    auto query = BuildScaleOutQuery(q, catalog, so);
    if (!query.ok()) {
      std::fprintf(stderr, "FAILED build: %s\n",
                   query.status().ToString().c_str());
      return 1;
    }
    if (opts.profile) {
      for (auto& site : (*query)->sites) {
        site->context().set_profiling(true);
      }
    }
    auto sim_stats = (*query)->Run();
    if (!sim_stats.ok()) {
      std::fprintf(stderr, "FAILED sim run: %s\n",
                   sim_stats.status().ToString().c_str());
      return 1;
    }
    if (opts.profile) {
      const obs::QueryProfile prof = CollectDistProfile(**query, *sim_stats);
      std::printf("\n# profile %s (sim reference)\n%s\n",
                  ScaleOutQueryName(q), prof.ToText().c_str());
      if (CheckProfileTotals(prof, *sim_stats) != 0) return 1;
    }
    std::vector<Tuple> sim_rows = (*query)->root_sink->TakeRows();
    std::sort(sim_rows.begin(), sim_rows.end(),
              [](const Tuple& a, const Tuple& b) { return a.Compare(b) < 0; });
    const std::string sim_wire = SerializeBatch(Batch::FromRows(sim_rows));

    // The same query as N real processes over loopback TCP.
    MultiProcessOptions mp;
    mp.query = q;
    mp.scale_factor = opts.scale_factor;
    mp.seed = opts.seed;
    mp.num_sites = sites;
    mp.aip = true;
    mp.weak_part_filter = weak_filter;
    mp.deterministic_merge = true;
    mp.trace = tracing;
    // A one-frame credit window under tracing makes senders actually hit
    // the credit-stall path (every frame waits out the peer's ack
    // round-trip), so the trace demonstrably carries those spans.
    if (tracing) mp.credit_window = 1;
    auto tcp = RunMultiProcess(mp);
    if (!tcp.ok()) {
      std::fprintf(stderr, "FAILED tcp run: %s\n",
                   tcp.status().ToString().c_str());
      return 1;
    }
    if (tracing && !tcp->trace_events_json.empty()) {
      if (!site_trace_events.empty()) site_trace_events += ",";
      site_trace_events += tcp->trace_events_json;
    }

    if (tcp->rows_wire != sim_wire) {
      std::fprintf(stderr,
                   "FAILED: %s answers differ between sim and tcp (%zu vs "
                   "%zu serialized bytes)\n",
                   ScaleOutQueryName(q), sim_wire.size(),
                   tcp->rows_wire.size());
      return 1;
    }

    for (const bool is_tcp : {false, true}) {
      const DistQueryStats& stats = is_tcp ? tcp->stats : *sim_stats;
      std::printf("%-18s %-5s %12.1f %14.3f %10lld\n", ScaleOutQueryName(q),
                  is_tcp ? "tcp" : "sim", stats.elapsed_sec * 1e3,
                  stats.shipped_mb(),
                  static_cast<long long>(is_tcp ? stats.result_rows
                                                : sim_stats->result_rows));
      JsonRecord record;
      record.query = ScaleOutQueryName(q);
      record.strategy = "Cost-based";
      record.transport = is_tcp ? "tcp" : "sim";
      record.sites = sites;
      AddRunStats(stats, &record);
      record.metric_mean = stats.elapsed_sec;
      records.push_back(record);
    }
    std::printf("# %s: answers bit-identical (%zu serialized bytes)\n",
                ScaleOutQueryName(q), sim_wire.size());
  }
  if (CheckLinkColumn(records) != 0) return 1;
  if (!opts.json_path.empty() &&
      !WriteJsonReport(opts.json_path, "fig15_scaleout_tcp",
                       "Fig. 15 transport - sim vs tcp multi-process", opts,
                       records)) {
    return 1;
  }
  if (tracing) {
    // The merged trace must demonstrably carry the SIP and flow-control
    // story: filters shipping/attaching and senders hitting credit stalls.
    for (const char* needed :
         {"\"aip_ship\"", "\"aip_attach\"", "\"exchange_credit_stall\""}) {
      if (site_trace_events.find(needed) == std::string::npos) {
        std::fprintf(stderr, "FAILED: merged site trace lacks %s events\n",
                     needed);
        return 1;
      }
    }
  }
  FinishObs(opts, site_trace_events);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const HarnessOptions opts = ParseArgs(argc, argv);
  int max_sites = 8;
  double bandwidth_bps = 1e9;
  int kill_site = -1;
  int64_t kill_after = 200;
  int64_t checkpoint_interval = 4;
  int64_t stateful_kill_after = 6;
  int straggle_site = -1;
  double straggle_bw = 2e5;
  bool tcp_mode = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--max-sites=", 12) == 0) {
      max_sites = std::atoi(argv[i] + 12);
    } else if (std::strncmp(argv[i], "--bw=", 5) == 0) {
      bandwidth_bps = std::atof(argv[i] + 5);
    } else if (std::strncmp(argv[i], "--kill-site=", 12) == 0) {
      kill_site = std::atoi(argv[i] + 12);
    } else if (std::strcmp(argv[i], "--kill-site") == 0) {
      kill_site = 1;
    } else if (std::strncmp(argv[i], "--kill-after=", 13) == 0) {
      kill_after = std::atoll(argv[i] + 13);
    } else if (std::strncmp(argv[i], "--checkpoint-interval=", 22) == 0) {
      checkpoint_interval = std::atoll(argv[i] + 22);
    } else if (std::strncmp(argv[i], "--stateful-kill-after=", 22) == 0) {
      stateful_kill_after = std::atoll(argv[i] + 22);
    } else if (std::strncmp(argv[i], "--straggle-site=", 16) == 0) {
      straggle_site = std::atoi(argv[i] + 16);
    } else if (std::strcmp(argv[i], "--straggle-site") == 0) {
      straggle_site = 1;
    } else if (std::strncmp(argv[i], "--straggle-bw=", 14) == 0) {
      straggle_bw = std::atof(argv[i] + 14);
    } else if (std::strcmp(argv[i], "--transport=tcp") == 0) {
      tcp_mode = true;
    } else if (std::strcmp(argv[i], "--transport=sim") == 0) {
      tcp_mode = false;
    }
  }
  if (tcp_mode) {
    const int sites = max_sites >= 2 ? std::min(max_sites, 4) : 4;
    return RunTcpTransportMode(opts, sites, opts.scale_factor < 0.01);
  }
  if (kill_site >= 0) {
    const int sites = max_sites >= 2 ? max_sites : 4;
    if (kill_site >= sites) {
      std::fprintf(stderr, "--kill-site=%d out of range for %d sites\n",
                   kill_site, sites);
      return 1;
    }
    return RunKillSiteMode(opts, kill_site, kill_after, checkpoint_interval,
                           stateful_kill_after, sites, bandwidth_bps,
                           opts.scale_factor < 0.01);
  }
  if (straggle_site >= 0) {
    const int sites = max_sites >= 2 ? max_sites : 4;
    if (straggle_site >= sites) {
      std::fprintf(stderr, "--straggle-site=%d out of range for %d sites\n",
                   straggle_site, sites);
      return 1;
    }
    if (straggle_bw <= 0) {
      // A zero-rate link would block a producer inside one uninterruptible
      // simulated transfer; a straggler must still move, just slowly.
      std::fprintf(stderr, "--straggle-bw must be > 0 (got %g)\n",
                   straggle_bw);
      return 1;
    }
    return RunStraggleSiteMode(opts, straggle_site, straggle_bw, sites,
                               bandwidth_bps, opts.scale_factor < 0.01);
  }

  InitObs(opts);
  TpchConfig gen;
  gen.scale_factor = opts.scale_factor;
  gen.seed = opts.seed;
  auto catalog = MakeTpchCatalog(gen);

  // Below sf≈0.01 the paper's Brand#34+MED CAN predicate selects zero
  // parts; fall back to the container-only filter so the sweep stays
  // meaningful at smoke-test scales.
  const bool weak_filter = opts.scale_factor < 0.01;

  std::printf("# Fig. 15 - scale-out: fragmented multi-site execution\n");
  std::printf("# sf=%g reps=%d bw=%g bps, sites swept 1..%d%s\n",
              opts.scale_factor, opts.repetitions, bandwidth_bps, max_sites,
              weak_filter ? " (weak part filter)" : "");
  std::printf("%-18s %5s %12s %12s %14s %14s %12s\n", "query", "sites",
              "base(ms)", "aip(ms)", "base MB", "aip MB", "aip pruned");

  std::vector<JsonRecord> records;
  for (const ScaleOutQuery q :
       {ScaleOutQuery::kQ17, ScaleOutQuery::kSubquery}) {
    for (int sites = 1; sites <= max_sites; sites *= 2) {
      double mean_ms[2] = {0, 0};
      double mean_mb[2] = {0, 0};
      int64_t pruned = 0;
      for (const bool aip : {false, true}) {
        JsonRecord record;
        record.query = ScaleOutQueryName(q);
        record.strategy = aip ? "Cost-based" : "Baseline";
        record.sites = sites;
        std::vector<double> times;
        for (int rep = 0; rep < opts.repetitions; ++rep) {
          ScaleOutOptions so;
          so.num_sites = sites;
          so.bandwidth_bps = bandwidth_bps;
          so.aip = aip;
          so.weak_part_filter = weak_filter;
          auto query = BuildScaleOutQuery(q, catalog, so);
          if (!query.ok()) {
            std::fprintf(stderr, "FAILED build: %s\n",
                         query.status().ToString().c_str());
            return 1;
          }
          auto stats = (*query)->Run();
          if (!stats.ok()) {
            std::fprintf(stderr, "FAILED run: %s\n",
                         stats.status().ToString().c_str());
            return 1;
          }
          const double floor = PacingFloorSeconds(**query);
          if (stats->elapsed_sec < floor) {
            std::fprintf(stderr,
                         "FAILED: %s %s on %d sites ran %.3f ms, below its "
                         "%.3f ms pacing floor\n",
                         ScaleOutQueryName(q), record.strategy.c_str(), sites,
                         stats->elapsed_sec * 1e3, floor * 1e3);
            return 1;
          }
          times.push_back(stats->elapsed_sec);
          mean_ms[aip ? 1 : 0] += stats->elapsed_sec * 1e3;
          mean_mb[aip ? 1 : 0] += stats->shipped_mb();
          AddRunStats(*stats, &record);
          if (aip) pruned = stats->rows_source_pruned;
        }
        // Per-repetition means (sums above avoid integer truncation).
        const int reps = std::max(1, opts.repetitions);
        mean_ms[aip ? 1 : 0] /= reps;
        mean_mb[aip ? 1 : 0] /= reps;
        record.elapsed_sec /= reps;
        record.peak_state_mb /= reps;
        record.rows_pruned /= reps;
        record.bytes_shipped /= reps;
        record.stall_seconds /= reps;
        record.link_seconds /= reps;
        const CellStats cell = Summarize(times);
        record.metric_mean = cell.mean;
        record.metric_ci95 = cell.ci95;
        records.push_back(std::move(record));
      }
      std::printf("%-18s %5d %12.1f %12.1f %14.3f %14.3f %12lld\n",
                  ScaleOutQueryName(q), sites, mean_ms[0], mean_ms[1],
                  mean_mb[0], mean_mb[1], static_cast<long long>(pruned));
    }
  }
  if (CheckLinkColumn(records) != 0) return 1;
  if (!opts.json_path.empty() &&
      !WriteJsonReport(opts.json_path, "fig15_scaleout",
                       "Fig. 15 - scale-out multi-site execution", opts,
                       records)) {
    return 1;
  }
  FinishObs(opts);
  return 0;
}
