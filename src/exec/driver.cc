#include "exec/driver.h"

#include <thread>

#include "obs/trace.h"
#include "util/stopwatch.h"

namespace pushsip {

Result<QueryStats> Driver::Run() {
  if (sink_ == nullptr) return Status::InvalidArgument("null sink");
  if (sources_.empty()) return Status::InvalidArgument("no source operators");

  obs::TraceSpan query_span("query");
  Stopwatch timer;
  std::vector<std::thread> threads;
  threads.reserve(sources_.size());
  for (SourceOperator* source : sources_) {
    threads.emplace_back([this, source] {
      // Sources are driven rather than pushed into, so their busy time is
      // credited here; the downstream time Emit measures inside Run is
      // subtracted back out by self_seconds().
      const bool profiling = ctx_->profiling();
      Stopwatch source_timer;
      const Status st = source->Run();
      if (profiling) {
        source->AddBusyMicros(
            static_cast<int64_t>(source_timer.ElapsedSeconds() * 1e6));
      }
      if (!st.ok() && st.code() != StatusCode::kCancelled) {
        ctx_->SetError(st);
      }
    });
  }
  for (auto& t : threads) t.join();

  const Status err = ctx_->GetError();
  if (!err.ok()) return err;
  if (!sink_->finished()) {
    return Status::Internal(
        "sink did not finish although all sources completed");
  }

  return CollectQueryStats(ctx_, sink_, timer.ElapsedSeconds());
}

void AddContextCounters(ExecContext& ctx, QueryStats* stats,
                        const std::function<void(Operator*)>& visit) {
  stats->peak_state_bytes += ctx.state_tracker().peak_bytes();
  for (Operator* op : ctx.operators()) {
    for (int p = 0; p < op->num_inputs(); ++p) {
      stats->rows_pruned += op->rows_pruned(p);
    }
    stats->stall_seconds += op->stall_seconds();
    if (auto* scan = dynamic_cast<TableScan*>(op)) {
      stats->rows_source_pruned += scan->rows_source_pruned();
    }
    if (visit) visit(op);
  }
}

QueryStats CollectQueryStats(ExecContext* ctx, Sink* sink,
                             double elapsed_sec) {
  QueryStats stats;
  stats.elapsed_sec = elapsed_sec;
  stats.result_rows = sink->num_rows();
  AddContextCounters(*ctx, &stats);
  const LinkUsage links = ctx->OwnLinkUsage();
  stats.bytes_shipped = links.bytes;
  stats.link_seconds = links.seconds;
  return stats;
}

}  // namespace pushsip
