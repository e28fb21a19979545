#include "bench/figure_harness.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <map>

#include "obs/trace.h"

namespace pushsip {
namespace bench {

HarnessOptions ParseArgs(int argc, char** argv) {
  HarnessOptions opts;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--sf=", 5) == 0) {
      opts.scale_factor = std::atof(arg + 5);
    } else if (std::strncmp(arg, "--reps=", 7) == 0) {
      opts.repetitions = std::atoi(arg + 7);
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      opts.seed = static_cast<uint64_t>(std::atoll(arg + 7));
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      opts.json_path = arg + 7;
    } else if (std::strcmp(arg, "--json") == 0 && i + 1 < argc) {
      opts.json_path = argv[++i];
    } else if (std::strcmp(arg, "--no-pacing") == 0) {
      opts.pace_every_rows = 0;
    } else if (std::strcmp(arg, "--paper-delays") == 0) {
      opts.initial_delay_ms = 100;
      opts.delay_ms = 5;
      opts.delay_every_rows = 1000;
    } else if (std::strncmp(arg, "--trace-out=", 12) == 0) {
      opts.trace_path = arg + 12;
    } else if (std::strcmp(arg, "--profile") == 0) {
      opts.profile = true;
    }
  }
  return opts;
}

void InitObs(const HarnessOptions& opts) {
  if (!opts.trace_path.empty()) obs::Trace::EnableWithProcessEpoch();
}

void FinishObs(const HarnessOptions& opts, const std::string& extra_events) {
  if (opts.trace_path.empty()) return;
  if (obs::TraceBuffer::Global().WriteChromeJson(opts.trace_path,
                                                 extra_events)) {
    std::fprintf(stderr, "trace written to %s\n", opts.trace_path.c_str());
  } else {
    std::fprintf(stderr, "trace write failed: %s\n",
                 opts.trace_path.c_str());
  }
}

CellStats Summarize(const std::vector<double>& xs) {
  CellStats out;
  if (xs.empty()) return out;
  double sum = 0;
  for (double x : xs) sum += x;
  out.mean = sum / static_cast<double>(xs.size());
  if (xs.size() > 1) {
    double var = 0;
    for (double x : xs) var += (x - out.mean) * (x - out.mean);
    var /= static_cast<double>(xs.size() - 1);
    // Two-sided 95% Student-t quantile t(0.975, df) for df = n - 1 = 1..30;
    // beyond that the normal quantile is within 4%.
    static constexpr double kT975[] = {
        12.7062, 4.3027, 3.1824, 2.7764, 2.5706, 2.4469, 2.3646, 2.3060,
        2.2622,  2.2281, 2.2010, 2.1788, 2.1604, 2.1448, 2.1314, 2.1199,
        2.1098,  2.1009, 2.0930, 2.0860, 2.0796, 2.0739, 2.0687, 2.0639,
        2.0595,  2.0555, 2.0518, 2.0484, 2.0452, 2.0423};
    const size_t df = xs.size() - 1;
    const double t = df <= std::size(kT975) ? kT975[df - 1] : 1.96;
    out.ci95 = t * std::sqrt(var / static_cast<double>(xs.size()));
  }
  return out;
}

namespace {

// Minimal JSON string escaping (names here are ASCII identifiers).
std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

bool WriteJsonReport(const std::string& path, const std::string& id,
                     const std::string& title, const HarnessOptions& opts,
                     const std::vector<JsonRecord>& records) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"%s\",\n  \"title\": \"%s\",\n"
               "  \"scale_factor\": %g,\n  \"repetitions\": %d,\n"
               "  \"seed\": %llu,\n  \"cells\": [",
               JsonEscape(id).c_str(), JsonEscape(title).c_str(),
               opts.scale_factor, opts.repetitions,
               static_cast<unsigned long long>(opts.seed));
  for (size_t i = 0; i < records.size(); ++i) {
    const JsonRecord& r = records[i];
    std::fprintf(f, "%s\n    {\"query\": \"%s\", \"strategy\": \"%s\"",
                 i == 0 ? "" : ",", JsonEscape(r.query).c_str(),
                 JsonEscape(r.strategy).c_str());
    if (r.sites > 0) std::fprintf(f, ", \"sites\": %d", r.sites);
    if (!r.transport.empty() && r.transport != "sim") {
      std::fprintf(f, ", \"transport\": \"%s\"",
                   JsonEscape(r.transport).c_str());
    }
    std::fprintf(f,
                 ", \"elapsed_sec\": %.6f, \"peak_state_mb\": %.6f,"
                 " \"rows_pruned\": %lld, \"bytes_shipped\": %lld,"
                 " \"stall_seconds\": %.6f, \"link_seconds\": %.6f,"
                 " \"metric_mean\": %.6f, \"metric_ci95\": %.6f",
                 r.elapsed_sec, r.peak_state_mb,
                 static_cast<long long>(r.rows_pruned),
                 static_cast<long long>(r.bytes_shipped), r.stall_seconds,
                 r.link_seconds, r.metric_mean, r.metric_ci95);
    if (r.fragment_restarts != 0 || r.fragment_migrations != 0 ||
        r.stragglers_detected != 0 || r.recalibrations != 0) {
      std::fprintf(f,
                   ", \"fragment_restarts\": %lld,"
                   " \"fragment_migrations\": %lld,"
                   " \"stragglers_detected\": %lld,"
                   " \"recalibrations\": %lld",
                   static_cast<long long>(r.fragment_restarts),
                   static_cast<long long>(r.fragment_migrations),
                   static_cast<long long>(r.stragglers_detected),
                   static_cast<long long>(r.recalibrations));
    }
    if (r.checkpoints_taken != 0 || r.checkpoint_bytes != 0 ||
        r.state_recoveries != 0 || r.restore_seconds != 0) {
      std::fprintf(f,
                   ", \"checkpoints_taken\": %lld,"
                   " \"checkpoint_bytes\": %lld,"
                   " \"state_recoveries\": %lld,"
                   " \"restore_seconds\": %.6f",
                   static_cast<long long>(r.checkpoints_taken),
                   static_cast<long long>(r.checkpoint_bytes),
                   static_cast<long long>(r.state_recoveries),
                   r.restore_seconds);
    }
    std::fprintf(f, "}");
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  return true;
}

int RunFigure(const FigureSpec& spec, int argc, char** argv) {
  const HarnessOptions opts = ParseArgs(argc, argv);
  InitObs(opts);

  // Catalogs built once, lazily, per skew flavour.
  std::map<bool, std::shared_ptr<Catalog>> catalogs;
  auto catalog_for = [&](QueryId q) {
    const bool skewed = QueryWantsSkewedData(q);
    auto& entry = catalogs[skewed];
    if (!entry) {
      TpchConfig cfg;
      cfg.scale_factor = opts.scale_factor;
      cfg.skewed = skewed;
      cfg.seed = opts.seed;
      entry = MakeTpchCatalog(cfg);
    }
    return entry;
  };

  std::printf("# %s\n", spec.title.c_str());
  std::printf("# sf=%g reps=%d metric=%s%s\n", opts.scale_factor,
              opts.repetitions,
              spec.metric == Metric::kTimeSec ? "time_sec" : "state_mb",
              spec.delay_inputs ? " delayed-input" : "");

  // Header.
  std::printf("%-6s", "query");
  for (const Strategy s : spec.strategies) {
    std::printf(" %16s", StrategyName(s));
  }
  std::printf("    pruned(FF/CB)  shipped(MB)\n");

  std::string csv = "query";
  for (const Strategy s : spec.strategies) {
    csv += ",";
    csv += StrategyName(s);
  }
  csv += "\n";

  std::vector<JsonRecord> records;
  uint64_t reference_hash = 0;
  for (const QueryId q : spec.queries) {
    std::printf("%-6s", QueryName(q));
    csv += QueryName(q);
    bool have_reference = false;
    int64_t ff_pruned = 0, cb_pruned = 0;
    double shipped_mb = 0;
    for (const Strategy s : spec.strategies) {
      if (s == Strategy::kMagic && !QuerySupportsMagic(q)) {
        std::printf(" %16s", "-");
        csv += ",";
        continue;
      }
      std::vector<double> samples;
      JsonRecord record;
      record.query = QueryName(q);
      record.strategy = StrategyName(s);
      for (int rep = 0; rep < opts.repetitions; ++rep) {
        ExperimentConfig cfg;
        cfg.query = q;
        cfg.strategy = s;
        cfg.catalog = catalog_for(q);
        cfg.delay_inputs = spec.delay_inputs;
        cfg.initial_delay_ms = opts.initial_delay_ms;
        cfg.delay_ms = opts.delay_ms;
        cfg.delay_every_rows = opts.delay_every_rows;
        cfg.remote_bandwidth_bps = opts.remote_bandwidth_bps;
        cfg.pace_every_rows = opts.pace_every_rows;
        cfg.pace_ms = opts.pace_ms;
        cfg.profiling = opts.profile;
        auto r = RunExperiment(cfg);
        if (!r.ok()) {
          std::fprintf(stderr, "FAILED %s/%s: %s\n", QueryName(q),
                       StrategyName(s), r.status().ToString().c_str());
          return 1;
        }
        // Cross-strategy correctness check, every repetition.
        if (!have_reference) {
          reference_hash = r->result_hash;
          have_reference = true;
        } else if (r->result_hash != reference_hash) {
          std::fprintf(stderr, "RESULT MISMATCH %s/%s\n", QueryName(q),
                       StrategyName(s));
          return 2;
        }
        samples.push_back(spec.metric == Metric::kTimeSec
                              ? r->stats.elapsed_sec
                              : r->total_state_mb());
        if (s == Strategy::kFeedForward) ff_pruned = r->aip_pruned;
        if (s == Strategy::kCostBased) {
          cb_pruned = r->aip_pruned;
          shipped_mb = r->stats.shipped_mb();
        }
        record.elapsed_sec += r->stats.elapsed_sec;
        record.peak_state_mb += r->total_state_mb();
        record.rows_pruned += r->aip_pruned;
        record.bytes_shipped += r->stats.bytes_shipped;
        record.stall_seconds += r->stats.stall_seconds;
        record.link_seconds += r->stats.link_seconds;
        if (opts.profile && rep == opts.repetitions - 1) {
          std::printf("\n# profile %s/%s\n%s", QueryName(q),
                      StrategyName(s), r->profile.ToText().c_str());
        }
      }
      // Report per-repetition means; sums were accumulated above so the
      // integer counters don't truncate rep by rep.
      const int reps = std::max(1, opts.repetitions);
      record.elapsed_sec /= reps;
      record.peak_state_mb /= reps;
      record.rows_pruned /= reps;
      record.bytes_shipped /= reps;
      record.stall_seconds /= reps;
      record.link_seconds /= reps;
      const CellStats cell = Summarize(samples);
      record.metric_mean = cell.mean;
      record.metric_ci95 = cell.ci95;
      records.push_back(std::move(record));
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.3f±%.3f", cell.mean, cell.ci95);
      std::printf(" %16s", buf);
      char num[32];
      std::snprintf(num, sizeof(num), ",%.4f", cell.mean);
      csv += num;
    }
    std::printf("    %lld/%lld  %.3f\n", static_cast<long long>(ff_pruned),
                static_cast<long long>(cb_pruned), shipped_mb);
    csv += "\n";
  }
  std::printf("\n# CSV\n%s\n", csv.c_str());
  if (!opts.json_path.empty() &&
      !WriteJsonReport(opts.json_path, spec.id, spec.title, opts, records)) {
    return 1;
  }
  FinishObs(opts);
  return 0;
}

}  // namespace bench
}  // namespace pushsip
