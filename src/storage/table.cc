#include "storage/table.h"

#include <algorithm>
#include <string_view>

namespace pushsip {

namespace {

/// Counts distinct 64-bit hashes in a flat linear-probing table. A zero
/// slot marks an empty one, so a zero hash is tracked on the side. The
/// table starts small and doubles at half load: its size follows the
/// column's NDV, not its row count.
class DistinctHashCounter {
 public:
  void Insert(uint64_t h) {
    if (h == 0) {
      has_zero_ = true;
      return;
    }
    if ((count_ + 1) * 2 > slots_.size()) Grow();
    if (InsertSlot(h)) ++count_;
  }
  int64_t count() const {
    return static_cast<int64_t>(count_) + (has_zero_ ? 1 : 0);
  }

 private:
  bool InsertSlot(uint64_t h) {
    const size_t mask = slots_.size() - 1;
    for (size_t i = h & mask;; i = (i + 1) & mask) {
      if (slots_[i] == h) return false;
      if (slots_[i] == 0) {
        slots_[i] = h;
        return true;
      }
    }
  }
  void Grow() {
    std::vector<uint64_t> old = std::move(slots_);
    slots_.assign(old.empty() ? 64 : old.size() * 2, 0);
    for (const uint64_t h : old) {
      if (h != 0) InsertSlot(h);
    }
  }

  std::vector<uint64_t> slots_;
  size_t count_ = 0;
  bool has_zero_ = false;
};

bool NullAt(const std::vector<uint64_t>& null_words, size_t r) {
  return !null_words.empty() && ((null_words[r >> 6] >> (r & 63)) & 1) != 0;
}

/// Min/max over the non-null rows of a typed i64/f64 vector with
/// Value::Compare semantics: `<` / `>` on the raw values (exact for i64;
/// for f64 a NaN or a tie such as -0.0 vs 0.0 never replaces), so the
/// first occurrence is kept. Returns false when every row is NULL.
template <typename T>
bool MinMax(const T* v, size_t n, const std::vector<uint64_t>& null_words,
            T* min, T* max) {
  bool first = true;
  for (size_t r = 0; r < n; ++r) {
    if (NullAt(null_words, r)) continue;
    const T x = v[r];
    if (first || x < *min) *min = x;
    if (first || x > *max) *max = x;
    first = false;
  }
  return !first;
}

/// True when every non-null value passes DoubleAsInt64: HashOfDouble then
/// hashes each as HashOfInt64 of its integer value.
bool AllIntegral(const double* v, size_t n,
                 const std::vector<uint64_t>& null_words) {
  int64_t as_int = 0;
  for (size_t r = 0; r < n; ++r) {
    if (!NullAt(null_words, r) && !DoubleAsInt64(v[r], &as_int)) return false;
  }
  return true;
}

/// Distinct count of the non-null keys key(r). Keys known to lie in a
/// narrow [lo, hi] (at most 8 bits of range per row, or 64 Ki) are counted
/// in a bitmap over the range; otherwise their HashOfInt64 values go
/// through the hash counter. The two agree because HashOfInt64 (the
/// splitmix64 finalizer) is a bijection on 64-bit values.
template <typename KeyFn>
int64_t CountDistinctInts(size_t n, const std::vector<uint64_t>& null_words,
                          int64_t lo, int64_t hi, KeyFn key) {
  const uint64_t span = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
  if (span >= std::max<uint64_t>(uint64_t{8} * n, uint64_t{1} << 16)) {
    DistinctHashCounter distinct;
    for (size_t r = 0; r < n; ++r) {
      if (!NullAt(null_words, r)) distinct.Insert(HashOfInt64(key(r)));
    }
    return distinct.count();
  }
  std::vector<uint64_t> seen(span / 64 + 1, 0);
  int64_t count = 0;
  for (size_t r = 0; r < n; ++r) {
    if (NullAt(null_words, r)) continue;
    const uint64_t off =
        static_cast<uint64_t>(key(r)) - static_cast<uint64_t>(lo);
    uint64_t& word = seen[off >> 6];
    const uint64_t bit = uint64_t{1} << (off & 63);
    count += (word & bit) == 0 ? 1 : 0;
    word |= bit;
  }
  return count;
}

// Row-at-a-time statistics through Values: mixed-type (variant) and
// all-NULL columns.
void RowByRowStats(const Column& column, size_t n, ColumnStats* st) {
  DistinctHashCounter distinct;
  bool first = true;
  for (size_t r = 0; r < n; ++r) {
    if (column.IsNull(r)) continue;
    distinct.Insert(column.HashAt(r));
    const Value v = column.GetValue(r);
    if (first || v.Compare(st->min_value) < 0) st->min_value = v;
    if (first || v.Compare(st->max_value) > 0) st->max_value = v;
    first = false;
  }
  st->distinct_count = distinct.count();
}

void Int64Stats(const Column& column, size_t n, ColumnStats* st) {
  const int64_t* v = column.i64_data();
  const std::vector<uint64_t>& nulls = column.null_words();
  int64_t min = 0, max = 0;
  if (!MinMax(v, n, nulls, &min, &max)) return;
  const bool date = column.type() == TypeId::kDate;
  st->min_value = date ? Value::Date(min) : Value::Int64(min);
  st->max_value = date ? Value::Date(max) : Value::Int64(max);
  st->distinct_count =
      CountDistinctInts(n, nulls, min, max, [v](size_t r) { return v[r]; });
}

void DoubleStats(const Column& column, size_t n, ColumnStats* st) {
  const double* v = column.f64_data();
  const std::vector<uint64_t>& nulls = column.null_words();
  double min = 0, max = 0;
  if (!MinMax(v, n, nulls, &min, &max)) return;
  st->min_value = Value::Double(min);
  st->max_value = Value::Double(max);
  if (AllIntegral(v, n, nulls)) {
    st->distinct_count = CountDistinctInts(
        n, nulls, static_cast<int64_t>(min), static_cast<int64_t>(max),
        [v](size_t r) { return static_cast<int64_t>(v[r]); });
    return;
  }
  DistinctHashCounter distinct;
  for (size_t r = 0; r < n; ++r) {
    if (!NullAt(nulls, r)) distinct.Insert(HashOfDouble(v[r]));
  }
  st->distinct_count = distinct.count();
}

// Each distinct code once: the cached entry hash for NDV (a code-addressed
// dictionary may hold one string under two codes; the hash counter folds
// them) and string_view compares for min/max (equal strings are identical
// Values, so visiting order cannot matter).
void StringStats(const Column& column, size_t n, ColumnStats* st) {
  const StringDict& dict = *column.dict();
  const uint32_t* codes = column.code_data();
  const std::vector<uint64_t>& nulls = column.null_words();
  std::vector<uint64_t> seen(dict.size() / 64 + 1, 0);
  for (size_t r = 0; r < n; ++r) {
    if (NullAt(nulls, r)) continue;
    seen[codes[r] >> 6] |= uint64_t{1} << (codes[r] & 63);
  }
  DistinctHashCounter distinct;
  bool first = true;
  std::string_view min, max;
  for (size_t w = 0; w < seen.size(); ++w) {
    for (uint64_t bits = seen[w]; bits != 0; bits &= bits - 1) {
      const uint32_t code =
          static_cast<uint32_t>(w * 64 + __builtin_ctzll(bits));
      distinct.Insert(dict.HashOf(code));
      const std::string_view s = dict.entry(code);
      if (first || s < min) min = s;
      if (first || s > max) max = s;
      first = false;
    }
  }
  if (first) return;
  st->min_value = Value::String(std::string(min));
  st->max_value = Value::String(std::string(max));
  st->distinct_count = distinct.count();
}

}  // namespace

void Table::ComputeStats() {
  stats_.assign(schema_.num_fields(), ColumnStats{});
  for (size_t c = 0; c < schema_.num_fields(); ++c) {
    const Column& column = cols_[c];
    ColumnStats* st = &stats_[c];
    switch (column.type()) {
      case TypeId::kInt64:
      case TypeId::kDate:
        Int64Stats(column, num_rows_, st);
        break;
      case TypeId::kDouble:
        DoubleStats(column, num_rows_, st);
        break;
      case TypeId::kString:
        if (column.dict() != nullptr) {
          StringStats(column, num_rows_, st);
          break;
        }
        [[fallthrough]];  // no dictionary: every row is NULL
      case TypeId::kNull:
        RowByRowStats(column, num_rows_, st);
        break;
    }
  }
}

size_t Table::FootprintBytes() const {
  size_t bytes = 0;
  for (const Column& c : cols_) bytes += c.FootprintBytes();
  return bytes;
}

std::vector<TablePtr> ShardRoundRobin(const Table& table, int n) {
  PUSHSIP_DCHECK(n >= 1);
  const size_t num_shards = static_cast<size_t>(n);
  std::vector<TablePtr> shards;
  shards.reserve(num_shards);
  std::vector<uint32_t> rows;
  rows.reserve(table.num_rows() / num_shards + 1);
  for (size_t s = 0; s < num_shards; ++s) {
    auto shard = std::make_shared<Table>(table.name(), table.schema());
    shard->SetPrimaryKey(table.primary_key());
    for (const Table::ForeignKey& fk : table.foreign_keys()) {
      shard->AddForeignKey(fk.col, fk.ref_table, fk.ref_col);
    }
    rows.clear();
    for (size_t r = s; r < table.num_rows(); r += num_shards) {
      rows.push_back(static_cast<uint32_t>(r));
    }
    shard->Reserve(rows.size());
    shard->AppendGather(table, rows.data(), rows.size());
    shard->ComputeStats();
    shards.push_back(std::move(shard));
  }
  return shards;
}

}  // namespace pushsip
