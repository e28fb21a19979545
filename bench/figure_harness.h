// Shared harness for the figure-reproduction benchmarks: runs a grid of
// (query × strategy) cells with repetitions and prints the same series the
// paper plots, as an aligned table and as CSV.
#ifndef PUSHSIP_BENCH_FIGURE_HARNESS_H_
#define PUSHSIP_BENCH_FIGURE_HARNESS_H_

#include <string>
#include <vector>

#include "storage/tpch_generator.h"
#include "workload/experiment.h"

namespace pushsip {
namespace bench {

/// What a figure plots.
enum class Metric {
  kTimeSec,   ///< running time (Figs. 5, 6, 9, 10, 13)
  kSpaceMb,   ///< intermediate state (Figs. 7, 8, 11, 12, 14)
};

/// Declarative description of one paper figure.
struct FigureSpec {
  std::string id;          ///< e.g. "fig05"
  std::string title;       ///< printed header
  Metric metric = Metric::kTimeSec;
  std::vector<QueryId> queries;
  std::vector<Strategy> strategies;
  bool delay_inputs = false;  ///< the §VI-B delayed-PARTSUPP environment
};

/// Command-line-tunable run parameters (see ParseArgs).
struct HarnessOptions {
  double scale_factor = 0.02;
  int repetitions = 3;
  uint64_t seed = 42;
  /// When non-empty, a machine-readable JSON report is written here
  /// (--json <path> or --json=<path>) alongside the printed tables — the
  /// format the repo's BENCH_*.json perf trajectory ingests.
  std::string json_path;
  /// Scaled-down delays keep the delayed figures quick by default; pass
  /// --paper-delays for the paper's 100 ms / 5 ms-per-1000 values.
  double initial_delay_ms = 50;
  double delay_ms = 2;
  size_t delay_every_rows = 1000;
  double remote_bandwidth_bps = 100e6;
  /// Default scan pacing (paper's sources stream from disk): stabilizes
  /// input-completion order so space figures are reproducible. --no-pacing
  /// disables it.
  size_t pace_every_rows = 512;
  double pace_ms = 0.5;
  /// --trace-out=FILE: trace the whole bench run and write a Chrome
  /// trace_event JSON there at the end (see obs/trace.h).
  std::string trace_path;
  /// --profile: per-operator timings; RunFigure prints each cell's
  /// EXPLAIN-ANALYZE profile tree (last repetition).
  bool profile = false;
};

/// Parses --sf=, --reps=, --seed=, --json, --paper-delays, --trace-out=,
/// --profile from argv.
HarnessOptions ParseArgs(int argc, char** argv);

/// Enables tracing when opts.trace_path is set (process epoch anchored at
/// "now"). Benches with custom mains call this before running; RunFigure
/// does it itself.
void InitObs(const HarnessOptions& opts);

/// Writes the Chrome trace when opts.trace_path is set. `extra_events` is
/// a pre-serialized fragment merged in (e.g. site-process traces).
void FinishObs(const HarnessOptions& opts,
               const std::string& extra_events = "");

/// Mean and 95% confidence half-width of a cell's repeated measurements.
struct CellStats {
  double mean = 0;
  double ci95 = 0;  ///< 0 with fewer than two samples
};

/// Summarizes repeated measurements: their mean and the half-width of the
/// two-sided 95% Student-t confidence interval of the mean.
CellStats Summarize(const std::vector<double>& xs);

/// One measured cell of a benchmark, as emitted to the JSON report.
struct JsonRecord {
  std::string query;
  std::string strategy;
  /// Which transport carried the exchange traffic: "sim" (the simulated
  /// mesh, the default everywhere) or "tcp" (real loopback sockets,
  /// multi-process). bench_check compares like vs like only.
  std::string transport = "sim";
  int sites = 0;  ///< 0 for single-site benchmarks
  double elapsed_sec = 0;
  double peak_state_mb = 0;
  int64_t rows_pruned = 0;
  int64_t bytes_shipped = 0;
  /// Seconds operators spent stalled (receivers idle, senders on
  /// backpressure/credits) and simulated link transmit-seconds.
  double stall_seconds = 0;
  double link_seconds = 0;
  double metric_mean = 0;
  double metric_ci95 = 0;
  // Failure-recovery / adaptive-runtime metrics (multi-site chaos and
  // straggler modes; zero elsewhere).
  int64_t fragment_restarts = 0;
  int64_t fragment_migrations = 0;
  int64_t stragglers_detected = 0;
  int64_t recalibrations = 0;
  // Stateful-fragment checkpoint/recovery metrics (chaos mode with
  // checkpointing enabled; zero elsewhere).
  int64_t checkpoints_taken = 0;
  int64_t checkpoint_bytes = 0;
  int64_t state_recoveries = 0;
  double restore_seconds = 0;
};

/// Writes the JSON report. Returns false (with a message on stderr) when
/// the file cannot be opened.
bool WriteJsonReport(const std::string& path, const std::string& id,
                     const std::string& title, const HarnessOptions& opts,
                     const std::vector<JsonRecord>& records);

/// Runs the figure and prints its table; returns a process exit code.
int RunFigure(const FigureSpec& spec, int argc, char** argv);

}  // namespace bench
}  // namespace pushsip

#endif  // PUSHSIP_BENCH_FIGURE_HARNESS_H_
