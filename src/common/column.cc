#include "common/column.h"

#include <algorithm>

#include "common/status.h"

namespace pushsip {

uint32_t StringDict::Intern(std::string_view s) {
  const auto it = index_.find(s);
  if (it != index_.end()) return it->second;
  const uint32_t code = static_cast<uint32_t>(entries_.size());
  entries_.emplace_back(s);
  hashes_.push_back(HashOfStringBytes(s.data(), s.size()));
  index_.emplace(std::string_view(entries_.back()), code);
  return code;
}

void StringDict::SetEntry(uint32_t code, std::string s) {
  code_addressed_ = true;
  if (code >= entries_.size()) {
    entries_.resize(code + 1);
    hashes_.resize(code + 1, 0);
  }
  hashes_[code] = HashOfStringBytes(s.data(), s.size());
  entries_[code] = std::move(s);
}

size_t StringDict::FootprintBytes() const {
  size_t bytes = sizeof(StringDict) +
                 entries_.size() * (sizeof(std::string) + sizeof(uint64_t));
  for (const std::string& s : entries_) bytes += s.capacity();
  bytes += index_.size() * (sizeof(std::string_view) + sizeof(uint32_t) + 16);
  return bytes;
}

Column::Column(TypeId type) {
  if (type == TypeId::kNull) return;
  type_ = type;
  switch (type) {
    case TypeId::kInt64:
    case TypeId::kDate:
      rep_ = Rep::kI64;
      break;
    case TypeId::kDouble:
      rep_ = Rep::kF64;
      break;
    case TypeId::kString:
      rep_ = Rep::kStr;
      break;
    case TypeId::kNull:
      break;
  }
}

Column Column::StringWithDict(std::shared_ptr<StringDict> dict, bool owned) {
  Column c(TypeId::kString);
  c.dict_ = std::move(dict);
  c.dict_owned_ = owned;
  return c;
}

bool Column::has_nulls() const {
  if (rep_ == Rep::kNone) return size_ > 0;
  if (rep_ == Rep::kVariant) {
    for (const Value& v : var_) {
      if (v.is_null()) return true;
    }
    return false;
  }
  for (const uint64_t w : nulls_) {
    if (w != 0) return true;
  }
  return false;
}

void Column::SetNullBit(size_t i) {
  // Bitmap is materialized lazily: the common all-non-null column never
  // allocates it. Once present it always covers every row.
  if (nulls_.size() * 64 <= i) nulls_.resize(i / 64 + 1, 0);
  nulls_[i >> 6] |= uint64_t{1} << (i & 63);
}

void Column::GrowBitmap() {
  // Keeps a materialized bitmap covering all rows after appends of
  // non-null values (new bits stay 0).
  if (!nulls_.empty() && nulls_.size() * 64 < size_) {
    nulls_.resize((size_ + 63) / 64, 0);
  }
}

void Column::Promote(TypeId t) {
  PUSHSIP_DCHECK(rep_ == Rep::kNone);
  type_ = t;
  switch (t) {
    case TypeId::kInt64:
    case TypeId::kDate:
      rep_ = Rep::kI64;
      i64_.assign(size_, 0);
      break;
    case TypeId::kDouble:
      rep_ = Rep::kF64;
      f64_.assign(size_, 0);
      break;
    case TypeId::kString:
      rep_ = Rep::kStr;
      codes_.assign(size_, 0);
      break;
    case TypeId::kNull:
      return;
  }
  // Every pre-existing row was NULL.
  if (size_ > 0) {
    nulls_.assign((size_ + 63) / 64, ~uint64_t{0});
    const size_t tail = size_ & 63;
    if (tail != 0) nulls_.back() = (uint64_t{1} << tail) - 1;
  }
}

void Column::ConvertToVariant() {
  PUSHSIP_DCHECK(rep_ != Rep::kVariant);
  std::vector<Value> values;
  values.reserve(size_);
  for (size_t i = 0; i < size_; ++i) values.push_back(GetValue(i));
  var_ = std::move(values);
  rep_ = Rep::kVariant;
  i64_.clear();
  f64_.clear();
  codes_.clear();
  dict_.reset();
  dict_owned_ = false;
  nulls_.clear();
}

void Column::EnsureOwnDict() {
  if (dict_owned_ && dict_ != nullptr) return;
  auto own = std::make_shared<StringDict>();
  if (dict_ != nullptr) {
    for (uint32_t& code : codes_) {
      code = own->Intern(dict_->entry(code));
    }
  }
  dict_ = std::move(own);
  dict_owned_ = true;
}

void Column::AppendNull() {
  switch (rep_) {
    case Rep::kNone:
      ++size_;
      return;
    case Rep::kVariant:
      var_.push_back(Value::Null());
      ++size_;
      return;
    case Rep::kI64:
      i64_.push_back(0);
      break;
    case Rep::kF64:
      f64_.push_back(0);
      break;
    case Rep::kStr:
      codes_.push_back(0);
      break;
  }
  SetNullBit(size_);
  ++size_;
}

void Column::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  if (rep_ == Rep::kNone) Promote(v.type());
  switch (rep_) {
    case Rep::kI64:
      if (v.type() != type_) break;
      i64_.push_back(v.AsInt64());
      ++size_;
      GrowBitmap();
      return;
    case Rep::kF64:
      if (v.type() != TypeId::kDouble) break;
      f64_.push_back(v.AsDouble());
      ++size_;
      GrowBitmap();
      return;
    case Rep::kStr: {
      if (v.type() != TypeId::kString) break;
      EnsureOwnDict();
      codes_.push_back(dict_->Intern(v.AsString()));
      ++size_;
      GrowBitmap();
      return;
    }
    case Rep::kVariant:
      var_.push_back(v);
      ++size_;
      return;
    case Rep::kNone:
      return;  // unreachable: Promote() handled it
  }
  // Physical type mismatch (mixed-type input): fall back to Values rather
  // than silently coercing — coercion would change wire bytes and hashes.
  ConvertToVariant();
  var_.push_back(v);
  ++size_;
}

void Column::AppendFrom(const Column& src, size_t row) {
  if (src.IsNull(row)) {
    AppendNull();
    return;
  }
  if (rep_ == Rep::kNone) Promote(src.rep_ == Rep::kVariant
                                      ? src.var_[row].type()
                                      : src.type_);
  if (rep_ == Rep::kVariant || src.rep_ == Rep::kVariant ||
      (src.rep_ != Rep::kVariant &&
       (src.rep_ != rep_ || src.type_ != type_))) {
    AppendValue(src.GetValue(row));
    return;
  }
  switch (rep_) {
    case Rep::kI64:
      i64_.push_back(src.i64_[row]);
      break;
    case Rep::kF64:
      f64_.push_back(src.f64_[row]);
      break;
    case Rep::kStr: {
      if (dict_ == nullptr && codes_.empty()) {
        // First string: adopt the source dictionary, read-only.
        dict_ = src.dict_;
        dict_owned_ = false;
      }
      if (dict_.get() == src.dict_.get()) {
        codes_.push_back(src.codes_[row]);
      } else {
        EnsureOwnDict();
        codes_.push_back(dict_->Intern(src.StringAt(row)));
      }
      break;
    }
    default:
      return;
  }
  ++size_;
  GrowBitmap();
}

void Column::AdoptIfEmpty(const Column& src) {
  if (size_ != 0) return;
  if (rep_ == Rep::kNone && src.rep_ != Rep::kNone &&
      src.rep_ != Rep::kVariant) {
    // Empty untyped destination: become a typed copy of the source.
    type_ = src.type_;
    rep_ = src.rep_;
  }
  if (rep_ == Rep::kStr && src.rep_ == Rep::kStr && dict_ == nullptr) {
    dict_ = src.dict_;
    dict_owned_ = false;
  }
}

bool Column::SameLayout(const Column& src) const {
  return rep_ == src.rep_ && type_ == src.type_ && rep_ != Rep::kVariant &&
         rep_ != Rep::kNone &&
         (rep_ != Rep::kStr || dict_.get() == src.dict_.get());
}

void Column::AppendRange(const Column& src, size_t begin, size_t end) {
  PUSHSIP_DCHECK(begin <= end && end <= src.size_);
  if (begin == end) return;
  AdoptIfEmpty(src);
  if (!SameLayout(src)) {
    for (size_t i = begin; i < end; ++i) AppendFrom(src, i);
    return;
  }
  switch (rep_) {
    case Rep::kI64:
      i64_.insert(i64_.end(), src.i64_.begin() + begin,
                  src.i64_.begin() + end);
      break;
    case Rep::kF64:
      f64_.insert(f64_.end(), src.f64_.begin() + begin,
                  src.f64_.begin() + end);
      break;
    case Rep::kStr:
      codes_.insert(codes_.end(), src.codes_.begin() + begin,
                    src.codes_.begin() + end);
      break;
    default:
      break;
  }
  const size_t old_size = size_;
  size_ += end - begin;
  // Carry the source's null bits for the copied range.
  if (!src.nulls_.empty()) {
    for (size_t i = begin; i < end; ++i) {
      if (src.IsNull(i)) SetNullBit(old_size + (i - begin));
    }
  }
  GrowBitmap();
}

namespace {

// dst += src[idx[0]], ..., src[idx[n-1]].
template <typename T>
void GatherInto(std::vector<T>* dst, const std::vector<T>& src,
                const uint32_t* idx, size_t n) {
  const size_t base = dst->size();
  dst->resize(base + n);
  T* out = dst->data() + base;
  const T* in = src.data();
  for (size_t k = 0; k < n; ++k) out[k] = in[idx[k]];
}

// dst += (srcs[which[k]]->*lane)[rows[k]] for k in [0, n).
template <typename T>
void GatherMultiInto(std::vector<T>* dst,
                     const std::vector<const Column*>& srcs,
                     const std::vector<T> Column::*lane,
                     const uint32_t* which, const uint32_t* rows, size_t n) {
  std::vector<const T*> bases;
  bases.reserve(srcs.size());
  for (const Column* src : srcs) bases.push_back((src->*lane).data());
  const size_t base = dst->size();
  dst->resize(base + n);
  T* out = dst->data() + base;
  for (size_t k = 0; k < n; ++k) out[k] = bases[which[k]][rows[k]];
}

}  // namespace

void Column::AppendGather(const Column& src, const uint32_t* idx, size_t n) {
  if (n == 0) return;
  AdoptIfEmpty(src);
  if (!SameLayout(src)) {
    for (size_t k = 0; k < n; ++k) AppendFrom(src, idx[k]);
    return;
  }
  switch (rep_) {
    case Rep::kI64:
      GatherInto(&i64_, src.i64_, idx, n);
      break;
    case Rep::kF64:
      GatherInto(&f64_, src.f64_, idx, n);
      break;
    case Rep::kStr:
      GatherInto(&codes_, src.codes_, idx, n);
      break;
    default:
      break;
  }
  const size_t old_size = size_;
  size_ += n;
  // Carry the source's null bits for the gathered rows.
  if (!src.nulls_.empty()) {
    for (size_t k = 0; k < n; ++k) {
      if (src.IsNull(idx[k])) SetNullBit(old_size + k);
    }
  }
  GrowBitmap();
}

void Column::AppendGather(const std::vector<const Column*>& srcs,
                          const uint32_t* which, const uint32_t* rows,
                          size_t n) {
  if (n == 0) return;
  AdoptIfEmpty(*srcs[which[0]]);
  bool typed = true;
  for (const Column* src : srcs) typed = typed && SameLayout(*src);
  if (!typed) {
    for (size_t k = 0; k < n; ++k) AppendFrom(*srcs[which[k]], rows[k]);
    return;
  }
  switch (rep_) {
    case Rep::kI64:
      GatherMultiInto(&i64_, srcs, &Column::i64_, which, rows, n);
      break;
    case Rep::kF64:
      GatherMultiInto(&f64_, srcs, &Column::f64_, which, rows, n);
      break;
    case Rep::kStr:
      GatherMultiInto(&codes_, srcs, &Column::codes_, which, rows, n);
      break;
    default:
      break;
  }
  const size_t old_size = size_;
  size_ += n;
  // Carry the sources' null bits for the gathered rows.
  for (size_t k = 0; k < n; ++k) {
    const Column& src = *srcs[which[k]];
    if (!src.nulls_.empty() && src.IsNull(rows[k])) SetNullBit(old_size + k);
  }
  GrowBitmap();
}

void Column::Reserve(size_t n) {
  switch (rep_) {
    case Rep::kI64:
      i64_.reserve(n);
      break;
    case Rep::kF64:
      f64_.reserve(n);
      break;
    case Rep::kStr:
      codes_.reserve(n);
      break;
    case Rep::kVariant:
      var_.reserve(n);
      break;
    case Rep::kNone:
      break;
  }
}

Value Column::GetValue(size_t i) const {
  switch (rep_) {
    case Rep::kNone:
      return Value::Null();
    case Rep::kVariant:
      return var_[i];
    case Rep::kI64:
      if (IsNull(i)) return Value::Null();
      return type_ == TypeId::kDate ? Value::Date(i64_[i])
                                    : Value::Int64(i64_[i]);
    case Rep::kF64:
      if (IsNull(i)) return Value::Null();
      return Value::Double(f64_[i]);
    case Rep::kStr:
      if (IsNull(i)) return Value::Null();
      return Value::String(dict_->entry(codes_[i]));
  }
  return Value::Null();
}

uint64_t Column::HashAt(size_t i) const {
  switch (rep_) {
    case Rep::kNone:
      return HashOfNull();
    case Rep::kVariant:
      return var_[i].Hash();
    case Rep::kI64:
      if (IsNull(i)) return HashOfNull();
      return HashOfInt64(i64_[i]);
    case Rep::kF64:
      if (IsNull(i)) return HashOfNull();
      return HashOfDouble(f64_[i]);
    case Rep::kStr:
      if (IsNull(i)) return HashOfNull();
      return dict_->HashOf(codes_[i]);
  }
  return 0;
}

void Column::HashAll(std::vector<uint64_t>* out) const {
  const size_t base = out->size();
  out->resize(base + size_);
  uint64_t* dst = out->data() + base;
  const bool nn = nulls_.empty();
  switch (rep_) {
    case Rep::kI64:
      if (nn) {
        for (size_t i = 0; i < size_; ++i) dst[i] = HashOfInt64(i64_[i]);
      } else {
        for (size_t i = 0; i < size_; ++i) {
          dst[i] = IsNull(i) ? HashOfNull() : HashOfInt64(i64_[i]);
        }
      }
      return;
    case Rep::kF64:
      if (nn) {
        for (size_t i = 0; i < size_; ++i) dst[i] = HashOfDouble(f64_[i]);
      } else {
        for (size_t i = 0; i < size_; ++i) {
          dst[i] = IsNull(i) ? HashOfNull() : HashOfDouble(f64_[i]);
        }
      }
      return;
    case Rep::kStr: {
      // Per-entry hashes are precomputed at intern/install time, so the
      // per-row cost is one indexed load.
      const StringDict& d = *dict_;
      if (nn) {
        for (size_t i = 0; i < size_; ++i) dst[i] = d.HashOf(codes_[i]);
      } else {
        for (size_t i = 0; i < size_; ++i) {
          dst[i] = IsNull(i) ? HashOfNull() : d.HashOf(codes_[i]);
        }
      }
      return;
    }
    case Rep::kVariant:
      for (size_t i = 0; i < size_; ++i) dst[i] = var_[i].Hash();
      return;
    case Rep::kNone:
      for (size_t i = 0; i < size_; ++i) dst[i] = HashOfNull();
      return;
  }
}

void Column::HashCombine(std::vector<uint64_t>* hashes) const {
  PUSHSIP_DCHECK(hashes->size() == size_);
  uint64_t* h = hashes->data();
  // Same mix as Tuple::HashColumns so row and columnar key hashing agree.
  const auto combine = [](uint64_t acc, uint64_t vh) {
    return acc ^ (vh + 0x9e3779b97f4a7c15ULL + (acc << 6) + (acc >> 2));
  };
  for (size_t i = 0; i < size_; ++i) h[i] = combine(h[i], HashAt(i));
}

int Column::CompareAt(size_t i, const Column& other, size_t j) const {
  const bool ln = IsNull(i), rn = other.IsNull(j);
  if (ln || rn) return static_cast<int>(rn) - static_cast<int>(ln);
  if (rep_ == other.rep_ && rep_ == Rep::kI64) {
    return i64_[i] < other.i64_[j] ? -1 : (i64_[i] > other.i64_[j] ? 1 : 0);
  }
  if (rep_ == other.rep_ && rep_ == Rep::kStr) {
    if (dict_.get() == other.dict_.get() && codes_[i] == other.codes_[j]) {
      return 0;
    }
    const int c = StringAt(i).compare(other.StringAt(j));
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  return GetValue(i).Compare(other.GetValue(j));
}

bool Column::KeyEqualAt(size_t i, const Column& other, size_t j) const {
  if (IsNull(i) || other.IsNull(j)) return false;  // SQL join semantics
  return CompareAt(i, other, j) == 0;
}

void Column::CompactInPlace(const std::vector<uint32_t>& sel) {
  const size_t n = sel.size();
  switch (rep_) {
    case Rep::kI64:
      for (size_t i = 0; i < n; ++i) i64_[i] = i64_[sel[i]];
      i64_.resize(n);
      break;
    case Rep::kF64:
      for (size_t i = 0; i < n; ++i) f64_[i] = f64_[sel[i]];
      f64_.resize(n);
      break;
    case Rep::kStr:
      for (size_t i = 0; i < n; ++i) codes_[i] = codes_[sel[i]];
      codes_.resize(n);
      break;
    case Rep::kVariant:
      for (size_t i = 0; i < n; ++i) {
        if (sel[i] != i) var_[i] = std::move(var_[sel[i]]);
      }
      var_.resize(n);
      break;
    case Rep::kNone:
      break;
  }
  if (!nulls_.empty()) {
    std::vector<uint64_t> compacted((n + 63) / 64, 0);
    for (size_t i = 0; i < n; ++i) {
      const size_t from = sel[i];
      if ((nulls_[from >> 6] >> (from & 63)) & 1) {
        compacted[i >> 6] |= uint64_t{1} << (i & 63);
      }
    }
    nulls_ = std::move(compacted);
  }
  size_ = n;
}

size_t Column::NullCount() const {
  if (rep_ == Rep::kNone) return size_;
  if (rep_ == Rep::kVariant) {
    size_t n = 0;
    for (const Value& v : var_) n += v.is_null() ? 1 : 0;
    return n;
  }
  size_t n = 0;
  for (const uint64_t w : nulls_) {
    n += static_cast<size_t>(__builtin_popcountll(w));
  }
  return n;
}

size_t Column::FootprintBytes() const {
  size_t bytes = sizeof(Column) + i64_.capacity() * sizeof(int64_t) +
                 f64_.capacity() * sizeof(double) +
                 codes_.capacity() * sizeof(uint32_t) +
                 nulls_.capacity() * sizeof(uint64_t);
  if (dict_owned_ && dict_ != nullptr) bytes += dict_->FootprintBytes();
  for (const Value& v : var_) bytes += v.FootprintBytes();
  return bytes;
}

size_t Column::PayloadBytes() const {
  switch (rep_) {
    case Rep::kNone:
      return size_;  // one null marker per row
    case Rep::kI64:
      return i64_.size() * sizeof(int64_t) + nulls_.size() * sizeof(uint64_t);
    case Rep::kF64:
      return f64_.size() * sizeof(double) + nulls_.size() * sizeof(uint64_t);
    case Rep::kStr: {
      size_t bytes = codes_.size() * sizeof(uint32_t) +
                     nulls_.size() * sizeof(uint64_t);
      for (const uint32_t code : codes_) bytes += dict_->entry(code).size();
      return bytes;
    }
    case Rep::kVariant: {
      size_t bytes = 0;
      for (const Value& v : var_) bytes += sizeof(Value) + v.FootprintBytes();
      return bytes;
    }
  }
  return 0;
}

}  // namespace pushsip
