#include "common/tuple.h"

#include "common/status.h"

namespace pushsip {

Tuple Tuple::Concat(const Tuple& left, const Tuple& right) {
  std::vector<Value> values = left.values_;
  values.insert(values.end(), right.values_.begin(), right.values_.end());
  return Tuple(std::move(values));
}

uint64_t Tuple::HashColumns(const std::vector<int>& cols) const {
  // Single-column key hashes ARE the raw value hash: AIP summaries insert
  // and probe Value::Hash() directly, and the batch key-hash lane lets one
  // per-row hash serve semijoin probes, shuffle routing, and hash-table
  // keys alike — so all single-column consumers must agree on the formula.
  if (cols.size() == 1) {
    return values_[static_cast<size_t>(cols[0])].Hash();
  }
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const int c : cols) {
    const uint64_t vh = values_[static_cast<size_t>(c)].Hash();
    h ^= vh + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

bool Tuple::EqualsOn(const std::vector<int>& cols, const Tuple& other,
                     const std::vector<int>& other_cols) const {
  PUSHSIP_DCHECK(cols.size() == other_cols.size());
  for (size_t i = 0; i < cols.size(); ++i) {
    const Value& a = values_[static_cast<size_t>(cols[i])];
    const Value& b = other.values_[static_cast<size_t>(other_cols[i])];
    if (a.is_null() || b.is_null()) return false;  // SQL join semantics
    if (a.Compare(b) != 0) return false;
  }
  return true;
}

int Tuple::Compare(const Tuple& other) const {
  const size_t n = std::min(values_.size(), other.values_.size());
  for (size_t i = 0; i < n; ++i) {
    const int c = values_[i].Compare(other.values_[i]);
    if (c != 0) return c;
  }
  if (values_.size() < other.values_.size()) return -1;
  return values_.size() > other.values_.size() ? 1 : 0;
}

size_t Tuple::FootprintBytes() const {
  size_t bytes = sizeof(Tuple) + values_.capacity() * sizeof(Value);
  for (const Value& v : values_) {
    if (v.type() == TypeId::kString) {
      bytes += v.AsString().capacity();
    }
  }
  return bytes;
}

std::string Tuple::ToString() const {
  std::string out = "[";
  for (size_t i = 0; i < values_.size(); ++i) {
    if (i) out += ", ";
    out += values_[i].ToString();
  }
  out += "]";
  return out;
}

void Batch::AddColumn(Column c) {
  PUSHSIP_DCHECK(cols_.empty() || c.size() == num_rows_);
  if (cols_.empty()) num_rows_ = c.size();
  cols_.push_back(std::move(c));
}

void Batch::SetArity(size_t arity) {
  PUSHSIP_DCHECK(cols_.empty() && num_rows_ == 0);
  cols_.resize(arity);
}

void Batch::Reserve(size_t rows) {
  for (Column& c : cols_) c.Reserve(rows);
}

void Batch::AppendRow(const Tuple& t) {
  if (cols_.empty() && num_rows_ == 0) SetArity(t.size());
  PUSHSIP_DCHECK(t.size() == cols_.size());
  for (size_t i = 0; i < cols_.size(); ++i) cols_[i].AppendValue(t.at(i));
  ++num_rows_;
}

void Batch::AppendRow(const std::vector<Value>& values) {
  if (cols_.empty() && num_rows_ == 0) SetArity(values.size());
  PUSHSIP_DCHECK(values.size() == cols_.size());
  for (size_t i = 0; i < cols_.size(); ++i) cols_[i].AppendValue(values[i]);
  ++num_rows_;
}

void Batch::AppendRowFrom(const Batch& src, size_t row) {
  if (cols_.empty() && num_rows_ == 0) SetArity(src.num_cols());
  PUSHSIP_DCHECK(src.num_cols() == cols_.size());
  for (size_t i = 0; i < cols_.size(); ++i) {
    cols_[i].AppendFrom(src.cols_[i], row);
  }
  ++num_rows_;
}

void Batch::AppendGather(const Batch& src, const uint32_t* idx, size_t n) {
  if (cols_.empty() && num_rows_ == 0) SetArity(src.num_cols());
  PUSHSIP_DCHECK(src.num_cols() == cols_.size());
  for (size_t i = 0; i < cols_.size(); ++i) {
    cols_[i].AppendGather(src.cols_[i], idx, n);
  }
  num_rows_ += n;
}

Batch Batch::FromRows(const std::vector<Tuple>& rows) {
  Batch b;
  if (!rows.empty()) {
    b.SetArity(rows.front().size());
    b.Reserve(rows.size());
  }
  for (const Tuple& t : rows) b.AppendRow(t);
  return b;
}

Tuple Batch::MaterializeRow(size_t r) const {
  std::vector<Value> values;
  values.reserve(cols_.size());
  for (const Column& c : cols_) values.push_back(c.GetValue(r));
  return Tuple(std::move(values));
}

std::vector<Tuple> Batch::MaterializeRows() const {
  std::vector<Tuple> rows;
  rows.reserve(num_rows_);
  for (size_t r = 0; r < num_rows_; ++r) rows.push_back(MaterializeRow(r));
  return rows;
}

uint64_t Batch::RowHashColumns(size_t r,
                               const std::vector<int>& cols) const {
  if (cols.size() == 1) {
    return cols_[static_cast<size_t>(cols[0])].HashAt(r);
  }
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const int c : cols) {
    const uint64_t vh = cols_[static_cast<size_t>(c)].HashAt(r);
    h ^= vh + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

bool Batch::RowsEqualOn(const Batch& a, size_t ra,
                        const std::vector<int>& a_cols, const Batch& b,
                        size_t rb, const std::vector<int>& b_cols) {
  PUSHSIP_DCHECK(a_cols.size() == b_cols.size());
  for (size_t i = 0; i < a_cols.size(); ++i) {
    const Column& ca = a.cols_[static_cast<size_t>(a_cols[i])];
    const Column& cb = b.cols_[static_cast<size_t>(b_cols[i])];
    if (!ca.KeyEqualAt(ra, cb, rb)) return false;
  }
  return true;
}

bool Batch::RowEqualsTupleOn(size_t r, const std::vector<int>& cols,
                             const Tuple& key,
                             const std::vector<int>& key_cols) const {
  PUSHSIP_DCHECK(cols.size() == key_cols.size());
  for (size_t i = 0; i < cols.size(); ++i) {
    const Column& c = cols_[static_cast<size_t>(cols[i])];
    const Value& kv = key.at(static_cast<size_t>(key_cols[i]));
    if (c.IsNull(r) || kv.is_null()) return false;
    if (c.GetValue(r).Compare(kv) != 0) return false;
  }
  return true;
}

int Batch::CompareRows(size_t r, const Batch& other, size_t ro) const {
  const size_t n = std::min(cols_.size(), other.cols_.size());
  for (size_t i = 0; i < n; ++i) {
    const int c = cols_[i].CompareAt(r, other.cols_[i], ro);
    if (c != 0) return c;
  }
  if (cols_.size() < other.cols_.size()) return -1;
  return cols_.size() > other.cols_.size() ? 1 : 0;
}

std::string Batch::RowToString(size_t r) const {
  std::string out = "[";
  for (size_t i = 0; i < cols_.size(); ++i) {
    if (i) out += ", ";
    out += cols_[i].GetValue(r).ToString();
  }
  out += "]";
  return out;
}

size_t Batch::FootprintBytes() const {
  size_t bytes = sizeof(Batch) + hashes_.capacity() * sizeof(uint64_t);
  for (const Column& c : cols_) bytes += c.FootprintBytes();
  return bytes;
}

size_t Batch::PayloadBytes() const {
  size_t bytes = 0;
  for (const Column& c : cols_) bytes += c.PayloadBytes();
  return bytes;
}

void Batch::ComputeKeyHashes(const std::vector<int>& cols,
                             std::vector<uint64_t>* out) const {
  out->clear();
  if (cols.size() == 1) {
    // Single-column lane IS the raw value hash (see Tuple::HashColumns).
    cols_[static_cast<size_t>(cols[0])].HashAll(out);
    return;
  }
  out->assign(num_rows_, 0x9e3779b97f4a7c15ULL);
  for (const int c : cols) {
    cols_[static_cast<size_t>(c)].HashCombine(out);
  }
}

const std::vector<uint64_t>& Batch::KeyHashes(
    const std::vector<int>& cols, std::vector<uint64_t>* scratch) const {
  if (const std::vector<uint64_t>* cached = CachedKeyHashes(cols)) {
    return *cached;
  }
  ComputeKeyHashes(cols, scratch);
  if (hash_cols_.empty()) {
    // First consumer installs the lane (stealing the scratch storage);
    // later mismatching consumers keep their scratch so one popular lane
    // survives the whole pipeline.
    hash_cols_ = cols;
    hashes_ = std::move(*scratch);
    return hashes_;
  }
  return *scratch;
}

const std::vector<uint64_t>* Batch::CachedKeyHashes(
    const std::vector<int>& cols) const {
  if (hash_cols_.empty() || hash_cols_ != cols ||
      hashes_.size() != num_rows_) {
    return nullptr;
  }
  return &hashes_;
}

void Batch::ClearKeyHashes() {
  hash_cols_.clear();
  hashes_.clear();
}

void Batch::CompactInPlace(const std::vector<uint32_t>& sel) {
  const bool lane = !hash_cols_.empty() && hashes_.size() == num_rows_;
  for (Column& c : cols_) c.CompactInPlace(sel);
  if (lane) {
    for (size_t i = 0; i < sel.size(); ++i) {
      const size_t from = sel[i];
      if (from != i) hashes_[i] = hashes_[from];
    }
    hashes_.resize(sel.size());
  } else {
    ClearKeyHashes();
  }
  num_rows_ = sel.size();
}

}  // namespace pushsip
