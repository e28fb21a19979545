// Column and StringDict: typed column vectors with null bitmaps — the
// storage under the columnar Batch (common/tuple.h).
//
// A Column stores one physical type (INT64, DOUBLE, DATE, or
// dictionary-encoded STRING) in a flat vector plus an optional null
// bitmap, so hot kernels (filters, key hashing, wire encode) run tight
// typed loops instead of walking Value variants row by row. Columns built
// row-at-a-time from mixed-type Values (test fixtures, wire v1 decode of
// ragged legacy data) degrade to a per-row Value fallback representation;
// everything the engine itself produces stays typed.
//
// Dictionary lifetime. String columns hold a shared_ptr<StringDict>, an
// append-only code -> string store. Dictionaries are shared widely — every
// scan slice and every scale-out shard of a table column references the
// table's dictionary, join gathers and routed exchange partitions adopt
// the source dictionary, and exchange decoders keep one
// dictionary per (sender, column) stream so codes stay valid across batch
// boundaries (the cross-batch dictionary wire encoding depends on this).
// Sharing is safe without locks because a StringDict only ever grows, its
// entry storage is address-stable (deques), and a batch only references
// codes that were fully written before the batch was handed off; a column
// mutates only a dictionary it created itself (`dict_owned_`), converting
// to a private dictionary first when fed strings from a foreign one.
#ifndef PUSHSIP_COMMON_COLUMN_H_
#define PUSHSIP_COMMON_COLUMN_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/value.h"

namespace pushsip {

/// \brief Append-only shared dictionary of a string column.
///
/// Codes are dense uint32 indices. Encoder-side dictionaries grow through
/// Intern() (dedup via an index map); decoder-side dictionaries are
/// code-addressed through SetEntry() and skip the index entirely. Entry
/// addresses and cached hashes are stable across growth (deque storage),
/// which is what makes cross-thread read-sharing of old codes safe.
class StringDict {
 public:
  StringDict() = default;
  StringDict(const StringDict&) = delete;
  StringDict& operator=(const StringDict&) = delete;

  /// Returns the code of `s`, appending it if new. Only the owner of the
  /// dictionary may call this (single writer).
  uint32_t Intern(std::string_view s);

  /// Installs `s` at `code`, growing the dictionary as needed (codes may
  /// arrive with holes — a wire stream ships only the entries its surviving
  /// rows reference). Decoder-side only; does not maintain the intern index.
  void SetEntry(uint32_t code, std::string s);

  const std::string& entry(uint32_t code) const { return entries_[code]; }

  /// Looks up the code of `s`; false when absent (or in a code-addressed
  /// decoder dictionary, which keeps no index).
  bool Find(std::string_view s, uint32_t* code) const {
    const auto it = index_.find(s);
    if (it == index_.end()) return false;
    *code = it->second;
    return true;
  }
  /// Cached Value-compatible hash of the entry at `code`.
  uint64_t HashOf(uint32_t code) const { return hashes_[code]; }

  /// One past the highest installed code.
  uint32_t size() const { return static_cast<uint32_t>(entries_.size()); }

  /// True once SetEntry() has been used: codes are wire-assigned and the
  /// intern index is not maintained, so a failed Find() is inconclusive.
  bool code_addressed() const { return code_addressed_; }

  size_t FootprintBytes() const;

 private:
  std::deque<std::string> entries_;
  std::deque<uint64_t> hashes_;
  // Intern() index; string_view keys point into entries_ (stable).
  std::unordered_map<std::string_view, uint32_t> index_;
  bool code_addressed_ = false;
};

/// \brief One typed column vector with an optional null bitmap.
class Column {
 public:
  /// An untyped empty column: accepts NULLs indefinitely and adopts the
  /// physical type of the first non-null value appended.
  Column() = default;
  /// A typed empty column (kNull means untyped).
  explicit Column(TypeId type);
  /// A string column that appends into (and owns) `dict`; pass nullptr to
  /// create a fresh private dictionary on first append.
  static Column StringWithDict(std::shared_ptr<StringDict> dict,
                               bool owned = false);

  /// Logical type; kNull while the column has only ever seen NULLs.
  TypeId type() const { return type_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// True when the column fell back to per-row Value storage (mixed-type
  /// input); typed kernels must take the generic path.
  bool is_variant() const { return rep_ == Rep::kVariant; }
  /// True when at least one row is NULL (variant columns scan).
  bool has_nulls() const;

  // --- appends (single-writer, like all Batch mutation) ---
  void AppendValue(const Value& v);
  void AppendNull();
  /// Appends row `row` of `src`, preserving its exact physical type.
  /// Same-dictionary string appends copy the code; foreign strings are
  /// re-interned into a private dictionary.
  void AppendFrom(const Column& src, size_t row);
  /// Appends rows [begin, end) of `src`. An empty destination (untyped, or
  /// a string column with no dictionary yet) adopts the source's type and
  /// dictionary read-only, making table slices zero-copy on the strings.
  void AppendRange(const Column& src, size_t begin, size_t end);
  /// Appends rows idx[0], ..., idx[n-1] of `src`, in that order (a gather),
  /// with one typed loop per representation; null bits are carried. Same
  /// dictionary rule as AppendRange: an empty destination adopts the
  /// source's type and dictionary read-only, so table shards and routed
  /// exchange partitions share the source's strings. Every other shape
  /// (type mismatch, a foreign dictionary, variant columns) falls back to
  /// per-row AppendFrom.
  void AppendGather(const Column& src, const uint32_t* idx, size_t n);
  /// Multi-source gather: appends row rows[k] of *srcs[which[k]], for k in
  /// [0, n) in order — the build side of a join, whose matches point into
  /// many retained batches. An empty destination adopts the type and
  /// dictionary of the first gathered source; when every source then
  /// shares this column's layout the rows are copied with one typed loop,
  /// otherwise (a foreign dictionary, variant columns, a type mismatch)
  /// every row goes through AppendFrom.
  void AppendGather(const std::vector<const Column*>& srcs,
                    const uint32_t* which, const uint32_t* rows, size_t n);
  void Reserve(size_t n);

  // --- typed appends (wire-decode hot path; no Value construction). The
  // column must already be typed (Column(TypeId) / StringWithDict) and the
  // value is non-null; AppendCode requires `code` valid in dict(). ---
  void AppendI64(int64_t v) {
    i64_.push_back(v);
    ++size_;
    GrowBitmap();
  }
  void AppendF64(double v) {
    f64_.push_back(v);
    ++size_;
    GrowBitmap();
  }
  void AppendCode(uint32_t code) {
    codes_.push_back(code);
    ++size_;
    GrowBitmap();
  }

  /// Number of NULL rows.
  size_t NullCount() const;

  // --- typed reads (DCHECKed against rep) ---
  bool IsNull(size_t i) const {
    if (rep_ == Rep::kVariant) return var_[i].is_null();
    if (rep_ == Rep::kNone) return true;
    return !nulls_.empty() && ((nulls_[i >> 6] >> (i & 63)) & 1) != 0;
  }
  int64_t I64At(size_t i) const { return i64_[i]; }
  double F64At(size_t i) const { return f64_[i]; }
  uint32_t CodeAt(size_t i) const { return codes_[i]; }
  std::string_view StringAt(size_t i) const {
    return dict_->entry(codes_[i]);
  }
  const int64_t* i64_data() const { return i64_.data(); }
  const double* f64_data() const { return f64_.data(); }
  const uint32_t* code_data() const { return codes_.data(); }
  const std::shared_ptr<StringDict>& dict() const { return dict_; }
  const std::vector<uint64_t>& null_words() const { return nulls_; }

  /// Materializes row `i` as a Value (compat / cold paths).
  Value GetValue(size_t i) const;

  /// Hash of row `i`, identical to GetValue(i).Hash().
  uint64_t HashAt(size_t i) const;
  /// Appends the hash of every row to `out` (tight typed loops).
  void HashAll(std::vector<uint64_t>* out) const;
  /// Combines the hash of every row into `hashes[r]` with the multi-column
  /// key mix (same formula as Tuple::HashColumns).
  void HashCombine(std::vector<uint64_t>* hashes) const;

  /// Value::Compare semantics (NULLs first and equal to each other).
  int CompareAt(size_t i, const Column& other, size_t j) const;
  /// SQL join-key equality: false when either side is NULL.
  bool KeyEqualAt(size_t i, const Column& other, size_t j) const;

  /// Keeps exactly the rows at the (strictly increasing) indices in `sel`.
  void CompactInPlace(const std::vector<uint32_t>& sel);

  /// Approximate heap footprint for state accounting. Shared dictionaries
  /// are charged only to the column that owns them.
  size_t FootprintBytes() const;

  /// Logical bytes of the live rows (typed width x rows, plus referenced
  /// string bytes) — what crossing a link costs, independent of vector
  /// capacity left behind by compaction.
  size_t PayloadBytes() const;

 private:
  enum class Rep : uint8_t {
    kNone,     // untyped: only NULLs so far, no storage
    kI64,      // kInt64 / kDate
    kF64,      // kDouble
    kStr,      // dictionary codes
    kVariant,  // per-row Values (mixed-type fallback)
  };

  void SetNullBit(size_t i);
  void GrowBitmap();
  /// Untyped -> typed: backfills `size_` default slots, all-null bitmap.
  void Promote(TypeId t);
  void ConvertToVariant();
  /// Re-interns existing codes into a fresh private dictionary so appends
  /// never mutate a dictionary someone else owns.
  void EnsureOwnDict();
  /// The bulk appends' dictionary rule (AppendRange, AppendGather): an
  /// empty destination takes `src`'s type and, read-only, its dictionary.
  void AdoptIfEmpty(const Column& src);
  /// True when rows of `src` can be copied as raw typed slots: same typed
  /// representation and, for strings, the same dictionary.
  bool SameLayout(const Column& src) const;

  TypeId type_ = TypeId::kNull;
  Rep rep_ = Rep::kNone;
  size_t size_ = 0;
  std::vector<int64_t> i64_;
  std::vector<double> f64_;
  std::vector<uint32_t> codes_;
  std::shared_ptr<StringDict> dict_;
  bool dict_owned_ = false;
  std::vector<Value> var_;
  // Null bitmap, 64-bit words, bit set = NULL. Empty iff no NULL has been
  // appended (variant columns track NULLs in the Values instead).
  std::vector<uint64_t> nulls_;
};

}  // namespace pushsip

#endif  // PUSHSIP_COMMON_COLUMN_H_
