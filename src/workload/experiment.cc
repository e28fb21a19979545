#include "workload/experiment.h"

#include <cmath>

#include "exec/profile.h"
#include "sip/aip_manager.h"
#include "sip/feed_forward.h"

namespace pushsip {

uint64_t HashRows(const std::vector<Tuple>& rows) {
  auto mix = [](uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  };
  uint64_t total = 0;
  for (const Tuple& row : rows) {
    uint64_t h = 0x12345678;
    for (const Value& v : row.values()) {
      uint64_t vh;
      if (v.type() == TypeId::kDouble) {
        vh = mix(static_cast<uint64_t>(std::llround(v.AsDouble() * 100.0)));
      } else {
        vh = v.Hash();
      }
      h = mix(h ^ vh);
    }
    total += h;  // addition => order-insensitive, duplicate-sensitive
  }
  return total;
}

Result<ExperimentResult> RunExperiment(const ExperimentConfig& config) {
  if (!config.catalog) return Status::InvalidArgument("no catalog");

  ExecContext ctx;
  ctx.set_batch_size(config.batch_size);
  ctx.set_profiling(config.profiling);
  PlanBuilder builder(&ctx, config.catalog);
  if (config.pace_every_rows > 0) {
    builder.set_default_pacing(config.pace_every_rows, config.pace_ms);
  }

  // Environment knobs.
  QueryKnobs knobs;
  knobs.magic = config.strategy == Strategy::kMagic;
  knobs.delay_inputs = config.delay_inputs;
  if (config.delay_inputs) {
    knobs.delayed_scan_options.initial_delay_ms = config.initial_delay_ms;
    knobs.delayed_scan_options.delay_every_rows = config.delay_every_rows;
    knobs.delayed_scan_options.delay_ms = config.delay_ms;
  }
  std::unique_ptr<RemoteNode> remote;
  if (config.query == QueryId::kQ1C || config.query == QueryId::kQ3C) {
    remote = std::make_unique<RemoteNode>(
        "site2", config.remote_bandwidth_bps, config.remote_latency_ms);
    knobs.remote = remote.get();
  }

  PUSHSIP_RETURN_NOT_OK(BuildQuery(config.query, &builder, knobs));

  // Strategy installation.
  AipRegistry registry;
  std::unique_ptr<FeedForwardAip> ff;
  std::unique_ptr<AipManager> manager;
  switch (config.strategy) {
    case Strategy::kBaseline:
    case Strategy::kMagic:
      break;
    case Strategy::kFeedForward:
      ff = std::make_unique<FeedForwardAip>(&ctx, &registry, config.aip);
      PUSHSIP_RETURN_NOT_OK(ff->Install(builder.sip_info()));
      break;
    case Strategy::kCostBased:
      manager = std::make_unique<AipManager>(&ctx, config.aip, config.cost);
      PUSHSIP_RETURN_NOT_OK(manager->Install(builder.sip_info()));
      break;
  }

  PUSHSIP_ASSIGN_OR_RETURN(QueryStats stats, builder.Run());

  ExperimentResult result;
  result.stats = stats;
  result.result_rows = stats.result_rows;
  std::vector<Tuple> rows = builder.sink()->TakeRows();
  result.result_hash = HashRows(rows);
  if (config.keep_rows) result.rows = std::move(rows);
  if (config.profiling) {
    result.profile =
        CollectQueryProfile(ctx, stats.elapsed_sec, stats.result_rows);
  }

  if (ff) {
    result.aip_sets = ff->sets_published();
    result.aip_filters = registry.filters_attached();
    result.aip_pruned = registry.total_pruned();
    result.aip_set_bytes = registry.sets_bytes();
  } else if (manager) {
    result.aip_sets = manager->sets_built();
    result.aip_filters = manager->filters_attached();
    result.aip_pruned = manager->total_pruned();
    result.aip_set_bytes = manager->sets_bytes();
  }
  return result;
}

}  // namespace pushsip
