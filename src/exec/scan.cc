#include "exec/scan.h"

#include <algorithm>

#include "net/sim_link.h"
#include "obs/profile.h"
#include "util/pacer.h"

namespace pushsip {

namespace {

// The table column each field of `schema` names: "alias.col" (or a bare
// "col") resolves through the table schema's unqualified lookup.
Result<std::vector<int>> ResolveTableColumns(const Table& table,
                                             const Schema& schema) {
  if (schema.num_fields() == 0) {
    return Status::InvalidArgument("scan of " + table.name() +
                                   " reads no columns");
  }
  std::vector<int> cols;
  std::vector<bool> used(table.num_cols(), false);
  for (const Field& f : schema.fields()) {
    const size_t dot = f.name.find('.');
    const std::string col =
        dot == std::string::npos ? f.name : f.name.substr(dot + 1);
    const Result<int> idx = table.schema().IndexOf(col);
    if (!idx.ok()) {
      return Status::InvalidArgument("scan field " + f.name + ": " +
                                     idx.status().message());
    }
    const size_t c = static_cast<size_t>(*idx);
    if (table.schema().field(c).type != f.type) {
      return Status::InvalidArgument(
          "scan field " + f.name + " is " + TypeName(f.type) + " but " +
          table.name() + "." + col + " is " +
          TypeName(table.schema().field(c).type));
    }
    if (used[c]) {
      return Status::InvalidArgument("scan reads " + table.name() + "." +
                                     col + " twice");
    }
    used[c] = true;
    cols.push_back(*idx);
  }
  return cols;
}

}  // namespace

TableScan::TableScan(ExecContext* ctx, std::string name, TablePtr table,
                     Schema schema, ScanOptions options)
    : SourceOperator(ctx, std::move(name), std::move(schema)),
      table_(std::move(table)),
      options_(std::move(options)) {
  PUSHSIP_DCHECK(table_ != nullptr);
  Result<std::vector<int>> cols =
      ResolveTableColumns(*table_, output_schema());
  if (cols.ok()) {
    table_cols_ = std::move(*cols);
  } else {
    bind_status_ = cols.status();
  }
}

void TableScan::AttachSourceFilter(
    std::shared_ptr<const TupleFilter> filter) {
  std::lock_guard<std::mutex> lock(filter_mu_);
  source_filters_.push_back(std::move(filter));
  filter_version_.fetch_add(1, std::memory_order_release);
}

uint64_t TableScan::total_windows() const {
  const size_t batch = ctx_->batch_size();
  return (table_->num_rows() + batch - 1) / batch;
}

double TableScan::modelled_delay_seconds() const {
  double ms = options_.initial_delay_ms;
  if (options_.delay_every_rows > 0) {
    ms += static_cast<double>(table_->num_rows() / options_.delay_every_rows) *
          options_.delay_ms;
  }
  return ms / 1e3;
}

bool TableScan::HasSourceFilter(const std::string& label) const {
  std::lock_guard<std::mutex> lock(filter_mu_);
  for (const auto& f : source_filters_) {
    if (f->label() == label) return true;
  }
  return false;
}

void TableScan::ResetForReplay() {
  SourceOperator::ResetForReplay();  // also clears a pending preemption
  current_window_.store(0, std::memory_order_relaxed);
}

Status TableScan::Run() {
  PUSHSIP_RETURN_NOT_OK(bind_status_);
  // Owes this run's modelled delays (the pacing below and every link
  // transfer downstream of it on this thread); settled when Run returns.
  Pacer pacer;
  if (options_.initial_delay_ms > 0) {
    pacer.Owe(options_.initial_delay_ms / 1e3);
  }
  const size_t batch_size = ctx_->batch_size();

  // Lock-free snapshot of the dynamic source filters, refreshed whenever
  // AttachSourceFilter bumps the version — one relaxed atomic load per
  // window instead of a mutex acquisition, while a filter shipped
  // mid-stream still starts pruning on the very next window.
  std::vector<std::shared_ptr<const TupleFilter>> filters;
  uint64_t seen_version = ~uint64_t{0};
  const auto refresh_filters = [&] {
    const uint64_t v = filter_version_.load(std::memory_order_acquire);
    if (v == seen_version) return;
    std::lock_guard<std::mutex> lock(filter_mu_);
    filters = source_filters_;
    seen_version = v;
  };
  refresh_filters();

  // Both modes stream the table window by window: batch k is a typed
  // slice of the scanned columns over raw rows [k*B, (k+1)*B), sharing
  // the table columns' dictionaries (no per-row materialization),
  // narrowed by the source filters through one selection vector and
  // compacted once.
  //
  // With window_batches the window index is the batch's deterministic
  // identity: pruning shrinks a window's batch (possibly to nothing, a
  // legal seq gap) but never moves rows across windows, so a replay
  // emits every surviving row under the same window index it had before
  // the failure — regardless of when filters arrived.
  const size_t num_rows = table_->num_rows();
  size_t since_delay = 0;
  for (size_t start = 0; start < num_rows; start += batch_size) {
    if (ShouldStop()) return Status::Cancelled("query cancelled");
    if (options_.window_batches) {
      if (preempt_requested()) {
        // Window boundaries are the replay-exact points: every window up
        // to here was fully emitted (or skipped), so a restart — in place
        // or on another site — re-produces the remaining stream under
        // seqs the consumers can dedup exactly.
        return Status::Unavailable(name() + ": preempted at window " +
                                   std::to_string(start / batch_size));
      }
      current_window_.store(start / batch_size, std::memory_order_relaxed);
    }
    const size_t end = std::min(num_rows, start + batch_size);
    rows_scanned_.fetch_add(static_cast<int64_t>(end - start));
    if (options_.delay_every_rows > 0) {
      // Rate limiting at window granularity, preserving the cumulative
      // delay of the per-row schedule. Each step is owed in addition to
      // the work before it, and before the window is filtered, so a
      // pruned window still pays its pacing.
      since_delay += end - start;
      while (since_delay >= options_.delay_every_rows) {
        since_delay -= options_.delay_every_rows;
        pacer.Owe(options_.delay_ms / 1e3);
      }
    }
    refresh_filters();
    Batch batch = table_->SliceRows(start, end, table_cols_);
    if (!filters.empty()) {
      const size_t n = batch.size();
      std::vector<uint32_t> sel(n);
      for (size_t i = 0; i < n; ++i) sel[i] = static_cast<uint32_t>(i);
      for (const auto& f : filters) {
        if (sel.empty()) break;
        f->PassBatch(batch, &sel);
      }
      rows_source_pruned_.fetch_add(static_cast<int64_t>(n - sel.size()));
      if (sel.size() != n) batch.CompactInPlace(sel);
    }
    if (batch.empty()) continue;  // fully pruned window: seq gap, legal
    if (options_.link != nullptr) {
      // Charge live payload bytes, not heap footprint: after source-filter
      // compaction the vectors keep their capacity, but only surviving rows
      // cross the link.
      PUSHSIP_RETURN_NOT_OK(
          options_.link->Transmit(batch.PayloadBytes(), ctx_));
    }
    PUSHSIP_RETURN_NOT_OK(Emit(std::move(batch)));
  }
  return EmitFinish();
}

void TableScan::AddProfileDetail(obs::OperatorProfile* profile) const {
  profile->detail = table_->name();
  profile->rows_source_pruned =
      rows_source_pruned_.load(std::memory_order_relaxed);
}

}  // namespace pushsip
