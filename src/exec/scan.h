// TableScan: a source operator streaming a base table into the plan.
//
// Supports the paper's experimental knobs: an initial delay plus a
// rate-limiting delay every N tuples (§VI-B "delayed PARTSUPP": 100 ms
// initial, 5 ms per 1000 tuples), and source-side semijoin filters — the
// attach point used by distributed AIP to prune *before* the (simulated)
// network link.
#ifndef PUSHSIP_EXEC_SCAN_H_
#define PUSHSIP_EXEC_SCAN_H_

#include <memory>

#include "exec/source.h"
#include "storage/table.h"

namespace pushsip {

class SimLink;

/// Delay/rate-limit configuration for a scan. Each delay is modelled time
/// the scan's thread owes *in addition to* its work: it is paid through the
/// thread's Pacer (util/pacer.h), which sleeps once a granule is owed and
/// keeps a sleep's overshoot as credit, so the scan sleeps its modelled
/// delay to within one granule and never less.
struct ScanOptions {
  double initial_delay_ms = 0;  ///< owed once, before the first tuple
  size_t delay_every_rows = 0;  ///< 0 disables rate limiting
  /// Owed once per delay_every_rows rows read, before they are filtered,
  /// so pruning does not shorten the schedule.
  double delay_ms = 0;
  /// The (simulated) link a remote table's batches cross, when there is
  /// one. Every outgoing batch's payload is transmitted over it *after*
  /// source filters pruned it, and billed to the scan's ExecContext, so
  /// source-filter pruning saves transfer time — the adaptive-Bloomjoin
  /// effect of distributed AIP. The SIP layer bills filter shipping
  /// against the same link.
  std::shared_ptr<SimLink> link;
  /// Deterministic batch boundaries: batch k holds the *survivors* of raw
  /// rows [k*batch_size, (k+1)*batch_size) — possibly fewer than batch_size
  /// rows, and fully pruned windows are skipped entirely. With the default
  /// (false) the scan compacts survivors into full batches, which is denser
  /// but makes batch boundaries depend on when dynamic AIP filters arrive.
  /// Distributed fragments set this so a replay after a failure re-produces
  /// each window's (sub)content under the same sequence number, letting
  /// exchange receivers discard duplicates exactly.
  bool window_batches = false;
};

/// \brief Streams the rows of a Table, in generation order, as batches.
///
/// The scan reads only the table columns its schema names: each batch is a
/// slice of exactly those columns, in schema order (Table::SliceRows), so
/// a column no operator above reads is never copied.
class TableScan : public SourceOperator {
 public:
  /// `schema` is the query-instance schema (see MakeInstanceSchema): a
  /// non-empty subset of the table's columns, in any order, renamed to the
  /// instance alias and tagged with AttrIds. Field "alias.col" resolves to
  /// the table column "col" and must have its type; no column may appear
  /// twice. A schema that does not resolve leaves the scan unbound:
  /// bind_status() says why and Run() fails with it.
  TableScan(ExecContext* ctx, std::string name, TablePtr table, Schema schema,
            ScanOptions options = {});

  /// OK when every schema field resolved to a table column of its type.
  const Status& bind_status() const { return bind_status_; }

  /// The table column each output field reads (empty when unbound).
  const std::vector<int>& table_columns() const { return table_cols_; }

  /// Reads the whole table, honouring delays and source filters; pushes
  /// batches downstream and then signals Finish. Called on a driver thread;
  /// installs that thread's Pacer for the run, so the delays it owes (its
  /// own and the link transfers of what it sends) are settled by its end.
  Status Run() override;

  /// The delay a complete Run owes for its pacing: the initial delay plus
  /// one step per delay_every_rows rows of the table, pruned or not. A
  /// lower bound on the run's duration.
  double modelled_delay_seconds() const;

  /// Attaches a filter applied before tuples leave the source (used by
  /// distributed AIP so pruned tuples never consume link bandwidth, and by
  /// cost-based AIP to prefilter scans feeding stateful operators).
  void AttachSourceFilter(std::shared_ptr<const TupleFilter> filter);

  /// True when a source filter with this diagnostic label is already
  /// attached — makes re-shipped AIP filters idempotent after a restart.
  bool HasSourceFilter(const std::string& label) const;

  int64_t rows_scanned() const { return rows_scanned_.load(); }
  int64_t rows_source_pruned() const { return rows_source_pruned_.load(); }

  /// Index of the raw-row window the scan is currently emitting (valid on
  /// the scan's own driver thread; window_batches mode only). An exchange
  /// sender bound to this scan stamps it into frames as the sequence tag.
  uint64_t current_window() const {
    return current_window_.load(std::memory_order_relaxed);
  }

  /// Number of raw-row windows the whole table spans at the context's batch
  /// size — the denominator of a fragment's progress fraction (the adaptive
  /// StatsMonitor's straggler detector compares these across sites).
  uint64_t total_windows() const;

  void ResetForReplay() override;

  void AddProfileDetail(obs::OperatorProfile* profile) const override;

  const ScanOptions& options() const { return options_; }

 private:
  TablePtr table_;
  ScanOptions options_;
  Status bind_status_;
  std::vector<int> table_cols_;

  mutable std::mutex filter_mu_;
  std::vector<std::shared_ptr<const TupleFilter>> source_filters_;
  /// Bumped by AttachSourceFilter; the scan loop holds a lock-free
  /// snapshot of the filter list and re-snapshots only when this moves, so
  /// a filter shipped mid-stream still starts pruning immediately without
  /// a mutex acquisition per row.
  std::atomic<uint64_t> filter_version_{0};

  std::atomic<int64_t> rows_scanned_{0};
  std::atomic<int64_t> rows_source_pruned_{0};
  std::atomic<uint64_t> current_window_{0};
};

}  // namespace pushsip

#endif  // PUSHSIP_EXEC_SCAN_H_
