// In-memory base tables plus lightweight statistics (NDV, min/max, key/FK
// metadata) consumed by the optimizer's cardinality estimator. Tukwila's
// estimator works from cardinalities and key/foreign-key information rather
// than histograms (paper §V-A); we mirror that.
#ifndef PUSHSIP_STORAGE_TABLE_H_
#define PUSHSIP_STORAGE_TABLE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/schema.h"
#include "common/tuple.h"

namespace pushsip {

/// Per-column statistics gathered at load time.
struct ColumnStats {
  int64_t distinct_count = 0;
  Value min_value;
  Value max_value;
};

/// \brief An immutable in-memory relation, stored column-major.
///
/// Rows are appended during load (row-at-a-time builder API kept for the
/// generators), then queries slice column ranges zero-copy-on-strings:
/// every scan batch shares the table columns' dictionaries.
class Table {
 public:
  Table(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {
    cols_.reserve(schema_.num_fields());
    for (const Field& f : schema_.fields()) cols_.emplace_back(f.type);
  }

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  const Column& col(size_t i) const { return cols_[i]; }
  size_t num_cols() const { return cols_.size(); }

  void AppendRow(const Tuple& row) {
    PUSHSIP_DCHECK(row.size() == cols_.size());
    for (size_t c = 0; c < cols_.size(); ++c) {
      cols_[c].AppendValue(row.at(c));
    }
    ++num_rows_;
  }
  /// Copies row `row` of `src` column-wise, without Value round-trips. A
  /// string column adopts the source table's dictionary read-only with its
  /// first string (Column::AppendFrom), so the copy shares its strings.
  void AppendRowFrom(const Table& src, size_t row) {
    for (size_t c = 0; c < cols_.size(); ++c) {
      cols_[c].AppendFrom(src.cols_[c], row);
    }
    ++num_rows_;
  }
  /// Copies rows idx[0..n) of `src`, in order, one typed gather per column
  /// (Column::AppendGather); string columns share `src`'s dictionaries.
  void AppendGather(const Table& src, const uint32_t* idx, size_t n) {
    PUSHSIP_DCHECK(src.cols_.size() == cols_.size());
    for (size_t c = 0; c < cols_.size(); ++c) {
      cols_[c].AppendGather(src.cols_[c], idx, n);
    }
    num_rows_ += n;
  }
  /// Appends every row of `batch`, one bulk copy per column
  /// (Column::AppendRange: an empty string column adopts the batch's
  /// dictionary).
  void AppendBatch(const Batch& batch) {
    PUSHSIP_DCHECK(batch.num_cols() == cols_.size());
    for (size_t c = 0; c < cols_.size(); ++c) {
      cols_[c].AppendRange(batch.col(c), 0, batch.size());
    }
    num_rows_ += batch.size();
  }
  void Reserve(size_t n) {
    for (Column& c : cols_) c.Reserve(n);
  }

  /// Materializes row `r` (test oracles / debugging only).
  Tuple row(size_t r) const {
    std::vector<Value> values;
    values.reserve(cols_.size());
    for (const Column& c : cols_) values.push_back(c.GetValue(r));
    return Tuple(std::move(values));
  }

  /// A batch of rows [begin, end) of the table columns `cols`, in that
  /// order: typed column slices sharing this table's string dictionaries.
  /// Columns not named are never read.
  Batch SliceRows(size_t begin, size_t end,
                  const std::vector<int>& cols) const {
    Batch b;
    for (const int c : cols) {
      Column out;
      out.AppendRange(cols_[static_cast<size_t>(c)], begin, end);
      b.AddColumn(std::move(out));
    }
    return b;
  }

  /// Marks column `col` as a (component of the) primary key.
  void SetPrimaryKey(std::vector<int> cols) { primary_key_ = std::move(cols); }
  const std::vector<int>& primary_key() const { return primary_key_; }

  /// Declares that column `col` references `table`.`ref_col` (FK metadata
  /// used by the estimator to bound join output cardinalities).
  void AddForeignKey(int col, std::string table, int ref_col) {
    foreign_keys_.push_back({col, std::move(table), ref_col});
  }
  struct ForeignKey {
    int col;
    std::string ref_table;
    int ref_col;
  };
  const std::vector<ForeignKey>& foreign_keys() const { return foreign_keys_; }

  /// Recomputes per-column NDV and min/max. Call once after loading.
  void ComputeStats();
  const ColumnStats& column_stats(size_t col) const { return stats_[col]; }
  bool has_stats() const { return !stats_.empty(); }

  /// Total payload footprint (for the catalog report).
  size_t FootprintBytes() const;

 private:
  std::string name_;
  Schema schema_;
  std::vector<Column> cols_;
  size_t num_rows_ = 0;
  std::vector<int> primary_key_;
  std::vector<ForeignKey> foreign_keys_;
  std::vector<ColumnStats> stats_;
};

using TablePtr = std::shared_ptr<Table>;

/// Round-robin-shards `table` into `n` tables (n >= 1): shard s holds rows
/// s, s+n, s+2n, ... in order, one typed gather per column through a single
/// reused row-index list. Each shard keeps the table's name, schema and
/// key/FK metadata, shares its string dictionaries, and carries its own
/// freshly computed statistics.
std::vector<TablePtr> ShardRoundRobin(const Table& table, int n);

}  // namespace pushsip

#endif  // PUSHSIP_STORAGE_TABLE_H_
