// Tuple and Batch: the unit of dataflow in the push engine.
//
// Batch is *columnar*: a set of typed column vectors (common/column.h)
// sharing one row count. Hot kernels — selection-vector filters, key
// hashing, wire encode/decode, join gathers — consume the columns
// directly; the row-major Tuple class survives only for cold paths
// (query results, per-group keys, test oracles) and is produced through
// the explicit Materialize*/RowView compat shim.
#ifndef PUSHSIP_COMMON_TUPLE_H_
#define PUSHSIP_COMMON_TUPLE_H_

#include <cstdint>
#include <vector>

#include "common/column.h"
#include "common/value.h"

namespace pushsip {

/// \brief A row: a fixed-arity vector of Values matching some Schema.
///
/// Cold-path only: results handed to clients, per-group aggregate keys,
/// and test fixtures. Dataflow between operators is columnar (Batch).
class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::vector<Value> values) : values_(std::move(values)) {}

  size_t size() const { return values_.size(); }
  const Value& at(size_t i) const { return values_[i]; }
  Value& at(size_t i) { return values_[i]; }
  const std::vector<Value>& values() const { return values_; }

  void Append(Value v) { values_.push_back(std::move(v)); }

  /// Concatenation of two tuples (join output).
  static Tuple Concat(const Tuple& left, const Tuple& right);

  /// Combined hash of the values at the given column indices.
  uint64_t HashColumns(const std::vector<int>& cols) const;

  /// True if the values at `cols` equal those of `other` at `other_cols`.
  bool EqualsOn(const std::vector<int>& cols, const Tuple& other,
                const std::vector<int>& other_cols) const;

  /// Total-order comparison over all columns (for deterministic sorting in
  /// tests and result normalization).
  int Compare(const Tuple& other) const;

  /// Approximate memory footprint (for intermediate-state accounting).
  size_t FootprintBytes() const;

  std::string ToString() const;

 private:
  std::vector<Value> values_;
};

/// A batch of rows pushed through the plan at once, stored column-major.
///
/// Besides the columns, a batch can carry one cached *key-hash lane*: the
/// per-row key hash for one column set, computed by the first consumer
/// that needs it and reused by everyone downstream on the same thread
/// (shuffle partitioning, Bloom probes, join build/probe, Feed-Forward
/// tap inserts). The lane is single-threaded scratch state — batches are
/// owned by exactly one thread while they flow — and never crosses the
/// wire. Anything that rewrites rows (projection, join output,
/// deserialization) simply produces a batch without a lane; in-place
/// compaction keeps the lane consistent via CompactInPlace().
///
/// All batches are rectangular: every column holds exactly size() rows.
class Batch {
 public:
  Batch() = default;

  // --- shape ---
  bool empty() const { return num_rows_ == 0; }
  size_t size() const { return num_rows_; }
  size_t num_cols() const { return cols_.size(); }
  const Column& col(size_t i) const { return cols_[i]; }
  Column& col(size_t i) { return cols_[i]; }

  /// Appends a column; every column of a batch must have the same length.
  void AddColumn(Column c);
  /// Creates `arity` empty untyped columns (row-at-a-time building).
  void SetArity(size_t arity);
  void Reserve(size_t rows);

  // --- row-at-a-time construction (compat shim; cold paths and tests) ---
  void AppendRow(const Tuple& t);
  void AppendRow(const std::vector<Value>& values);
  /// Gathers row `row` of `src` (all columns) onto the end of this batch.
  void AppendRowFrom(const Batch& src, size_t row);
  /// Gathers rows idx[0..n) of `src`, in order, one typed loop per column
  /// (Column::AppendGather). Like AppendRowFrom, an arity-less batch first
  /// takes `src`'s arity.
  void AppendGather(const Batch& src, const uint32_t* idx, size_t n);
  static Batch FromRows(const std::vector<Tuple>& rows);

  // --- row access (compat shim) ---
  Value ValueAt(size_t row, size_t col) const {
    return cols_[col].GetValue(row);
  }
  /// A cheap non-owning view of one row; see RowView below.
  class RowView;
  RowView row(size_t r) const;
  /// Materializes one row as a Tuple. Cold paths only.
  Tuple MaterializeRow(size_t r) const;
  /// Materializes every row. Cold paths (results, test oracles) only.
  std::vector<Tuple> MaterializeRows() const;

  /// Combined hash of row `r` over `cols` — same formula as
  /// Tuple::HashColumns (single column: the raw value hash).
  uint64_t RowHashColumns(size_t r, const std::vector<int>& cols) const;

  /// Join-key equality of a row of `a` against a row of `b`; false when
  /// any key value is NULL (SQL semantics).
  static bool RowsEqualOn(const Batch& a, size_t ra,
                          const std::vector<int>& a_cols, const Batch& b,
                          size_t rb, const std::vector<int>& b_cols);
  /// Join-key equality of a batch row against a materialized Tuple key
  /// (aggregate / distinct state probes).
  bool RowEqualsTupleOn(size_t r, const std::vector<int>& cols,
                        const Tuple& key,
                        const std::vector<int>& key_cols) const;

  /// Total-order comparison of row `r` against `other`'s row `ro`.
  int CompareRows(size_t r, const Batch& other, size_t ro) const;

  std::string RowToString(size_t r) const;

  /// Approximate heap footprint (state accounting; shared dictionaries are
  /// charged to their owning column only).
  size_t FootprintBytes() const;

  /// Logical bytes of the live rows only — what shipping the batch across a
  /// link costs. Unlike FootprintBytes this shrinks with CompactInPlace.
  size_t PayloadBytes() const;

  // --- key-hash lane ---

  /// Returns the per-row hashes of `cols`, computing them at most once per
  /// batch. When the cached lane matches `cols` it is returned directly;
  /// otherwise the hashes are computed into `*scratch`. The first column
  /// set requested installs the lane (logically-const caching, hence the
  /// mutable members), so later consumers of the *same* keys hit the cache
  /// while consumers of other keys fall back to their own scratch without
  /// clobbering it. `*scratch` must outlive the returned reference.
  const std::vector<uint64_t>& KeyHashes(
      const std::vector<int>& cols, std::vector<uint64_t>* scratch) const;

  /// The cached lane for `cols`, or nullptr when none matches. Never
  /// computes.
  const std::vector<uint64_t>* CachedKeyHashes(
      const std::vector<int>& cols) const;

  /// Drops the cached lane. Must be called by anything that reorders or
  /// rewrites rows without going through CompactInPlace.
  void ClearKeyHashes();

  /// Keeps exactly the rows at the (strictly increasing) indices in `sel`,
  /// compacting every column and the cached hash lane alongside so they
  /// stay row-parallel.
  void CompactInPlace(const std::vector<uint32_t>& sel);

 private:
  void ComputeKeyHashes(const std::vector<int>& cols,
                        std::vector<uint64_t>* out) const;

  std::vector<Column> cols_;
  size_t num_rows_ = 0;

  // Cached key-hash lane; valid iff hash_cols_ is non-empty and hashes_ is
  // row-parallel. Mutable: filling the cache on first use is logically
  // const, and a batch is only ever touched by one thread at a time.
  mutable std::vector<int> hash_cols_;
  mutable std::vector<uint64_t> hashes_;
};

/// Non-owning view of one batch row — the RowView compat shim. Valid only
/// while the batch is alive and unmodified. Used where row-at-a-time
/// Value access is acceptable (expression fallback paths, taps, tests).
class Batch::RowView {
 public:
  RowView(const Batch* batch, size_t row) : batch_(batch), row_(row) {}

  size_t size() const { return batch_->num_cols(); }
  Value value(size_t col) const { return batch_->ValueAt(row_, col); }
  bool is_null(size_t col) const { return batch_->col(col).IsNull(row_); }
  Tuple ToTuple() const { return batch_->MaterializeRow(row_); }
  const Batch& batch() const { return *batch_; }
  size_t row_index() const { return row_; }

 private:
  const Batch* batch_;
  size_t row_;
};

inline Batch::RowView Batch::row(size_t r) const { return RowView(this, r); }

/// Default number of rows per pushed batch.
constexpr size_t kDefaultBatchSize = 1024;

}  // namespace pushsip

#endif  // PUSHSIP_COMMON_TUPLE_H_
