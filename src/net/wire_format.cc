#include "net/wire_format.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <string_view>

namespace pushsip {

namespace {

constexpr char kBatchTag = 'B';
constexpr char kBatchFrameTag = 'X';
constexpr char kBloomTag = 'F';
constexpr char kFilterMsgTag = 'A';

/// Every header's second byte. Decoders reject any other value (version 1
/// was the retired row-major encoding).
constexpr uint8_t kWireVersion =
    static_cast<uint8_t>(WireFormatVersion::kColumnar);

// Batch payload: per-column encodings.
enum ColTag : uint8_t {
  kColMixed = 0,            ///< per-value self-describing (mixed types)
  kColInt64 = 1,            ///< zigzag varints
  kColDate = 2,             ///< zigzag varints
  kColDouble = 3,           ///< raw 8-byte doubles
  kColStringDict = 4,       ///< per-batch dictionary + varint indices
  kColStringPlain = 5,      ///< varint length + bytes per value
  kColNull = 6,             ///< every value NULL; no payload
  kColStringDictStream = 7, ///< cross-batch dictionary delta + varint codes
};

// Decode-side sanity caps: a corrupt count must not turn into a huge
// up-front allocation. Growth past the cap happens via push_back, which a
// truncated stream cuts short long before it matters.
constexpr uint64_t kMaxReserveRows = 1u << 20;
constexpr uint64_t kMaxPlausibleCols = 1u << 16;

constexpr uint32_t kNoStreamCode = ~uint32_t{0};

void PutU8(uint8_t v, std::string* out) {
  out->push_back(static_cast<char>(v));
}

void PutU32(uint32_t v, std::string* out) {
  char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>(v >> (8 * i));
  out->append(buf, 4);
}

void PutU64(uint64_t v, std::string* out) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>(v >> (8 * i));
  out->append(buf, 8);
}

void PutDouble(double v, std::string* out) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits, out);
}

void PutVarint(uint64_t v, std::string* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);
}

int64_t ZigZagDecode(uint64_t u) {
  return static_cast<int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

/// Bounds-checked sequential reader over a serialized message.
class WireReader {
 public:
  explicit WireReader(const std::string& bytes) : bytes_(bytes) {}

  Result<uint8_t> ReadU8() {
    if (pos_ + 1 > bytes_.size()) return Truncated();
    return static_cast<uint8_t>(bytes_[pos_++]);
  }

  Result<uint32_t> ReadU32() {
    if (pos_ + 4 > bytes_.size()) return Truncated();
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(bytes_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  Result<uint64_t> ReadU64() {
    if (pos_ + 8 > bytes_.size()) return Truncated();
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  Result<uint64_t> ReadVarint() {
    uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (pos_ >= bytes_.size()) return Truncated();
      const uint8_t byte = static_cast<uint8_t>(bytes_[pos_++]);
      if (shift == 63 && byte > 1) {
        // The 10th byte contributes one bit; anything else would be
        // silently discarded — corrupt data, not a value.
        return Status::InvalidArgument("overlong varint on the wire");
      }
      v |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return v;
    }
    return Status::InvalidArgument("overlong varint on the wire");
  }

  /// Bytes not yet consumed — decode-side sanity bound for counts that
  /// would otherwise drive large allocations before touching the input.
  size_t remaining() const { return bytes_.size() - pos_; }

  Result<double> ReadDouble() {
    PUSHSIP_ASSIGN_OR_RETURN(const uint64_t bits, ReadU64());
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  Result<std::string> ReadString(size_t len) {
    if (pos_ + len > bytes_.size() || pos_ + len < pos_) return Truncated();
    std::string s = bytes_.substr(pos_, len);
    pos_ += len;
    return s;
  }

  /// Validates the message tag and the wire version byte.
  Status ExpectHeader(char tag) {
    PUSHSIP_ASSIGN_OR_RETURN(const uint8_t t, ReadU8());
    PUSHSIP_ASSIGN_OR_RETURN(const uint8_t ver, ReadU8());
    if (t != static_cast<uint8_t>(tag)) {
      return Status::InvalidArgument("bad wire message header");
    }
    if (ver != kWireVersion) {
      return Status::InvalidArgument("unsupported wire version " +
                                     std::to_string(ver));
    }
    return Status::OK();
  }

  bool AtEnd() const { return pos_ == bytes_.size(); }

 private:
  Status Truncated() const {
    return Status::InvalidArgument("truncated wire message");
  }

  const std::string& bytes_;
  size_t pos_ = 0;
};

/// Self-describing value: type tag, then 8 fixed bytes or a u32 length
/// plus bytes. Only the mixed-type column (kColMixed) uses it.
void AppendValue(const Value& v, std::string* out) {
  PutU8(static_cast<uint8_t>(v.type()), out);
  switch (v.type()) {
    case TypeId::kNull:
      break;
    case TypeId::kInt64:
    case TypeId::kDate:
      PutU64(static_cast<uint64_t>(v.AsInt64()), out);
      break;
    case TypeId::kDouble:
      PutDouble(v.AsDouble(), out);
      break;
    case TypeId::kString:
      PutU32(static_cast<uint32_t>(v.AsString().size()), out);
      out->append(v.AsString());
      break;
  }
}

Result<Value> ReadValue(WireReader* r) {
  PUSHSIP_ASSIGN_OR_RETURN(const uint8_t tag, r->ReadU8());
  switch (static_cast<TypeId>(tag)) {
    case TypeId::kNull:
      return Value::Null();
    case TypeId::kInt64: {
      PUSHSIP_ASSIGN_OR_RETURN(const uint64_t v, r->ReadU64());
      return Value::Int64(static_cast<int64_t>(v));
    }
    case TypeId::kDate: {
      PUSHSIP_ASSIGN_OR_RETURN(const uint64_t v, r->ReadU64());
      return Value::Date(static_cast<int64_t>(v));
    }
    case TypeId::kDouble: {
      PUSHSIP_ASSIGN_OR_RETURN(const double v, r->ReadDouble());
      return Value::Double(v);
    }
    case TypeId::kString: {
      PUSHSIP_ASSIGN_OR_RETURN(const uint32_t len, r->ReadU32());
      PUSHSIP_ASSIGN_OR_RETURN(std::string s, r->ReadString(len));
      return Value::String(std::move(s));
    }
  }
  return Status::InvalidArgument("unknown value type tag on the wire");
}

// ---------------------------------------------------------------------------
// Batch payload: column-major with per-column compression, encoded
// directly from the Batch's typed column vectors (no row materialization).

/// Appends the null bitmap preamble: u8 has_nulls, then (when any) an
/// LSB-first bitmap with bit r set iff row r is NULL in this column.
void AppendNullBitmapCol(const Column& col, size_t n, size_t null_count,
                         std::string* out) {
  PutU8(null_count > 0 ? 1 : 0, out);
  if (null_count == 0) return;
  std::string bitmap((n + 7) / 8, '\0');
  for (size_t r = 0; r < n; ++r) {
    if (col.IsNull(r)) {
      bitmap[r >> 3] |= static_cast<char>(1u << (r & 7));
    }
  }
  out->append(bitmap);
}

/// Shared typed encodings for everything except string columns (whose
/// layout differs between the standalone batch and the stream encoder).
/// Returns false when the column needs the mixed per-value fallback.
bool AppendTypedColumn(const Column& col, size_t n, std::string* out) {
  if (col.is_variant()) return false;
  const size_t null_count = col.NullCount();
  if (null_count == n) {
    PutU8(kColNull, out);
    return true;
  }
  switch (col.type()) {
    case TypeId::kInt64:
    case TypeId::kDate: {
      PutU8(col.type() == TypeId::kInt64 ? kColInt64 : kColDate, out);
      AppendNullBitmapCol(col, n, null_count, out);
      const int64_t* data = col.i64_data();
      if (null_count == 0) {
        for (size_t r = 0; r < n; ++r) {
          PutVarint(ZigZagEncode(data[r]), out);
        }
      } else {
        for (size_t r = 0; r < n; ++r) {
          if (!col.IsNull(r)) PutVarint(ZigZagEncode(data[r]), out);
        }
      }
      return true;
    }
    case TypeId::kDouble: {
      PutU8(kColDouble, out);
      AppendNullBitmapCol(col, n, null_count, out);
      const double* data = col.f64_data();
      for (size_t r = 0; r < n; ++r) {
        if (null_count == 0 || !col.IsNull(r)) PutDouble(data[r], out);
      }
      return true;
    }
    case TypeId::kString:
      return false;  // caller picks a string layout
    case TypeId::kNull:
      break;
  }
  PUSHSIP_DCHECK(false);
  return true;
}

void AppendMixedColumn(const Column& col, size_t n, std::string* out) {
  PutU8(kColMixed, out);
  for (size_t r = 0; r < n; ++r) AppendValue(col.GetValue(r), out);
}

/// Self-contained string column: per-batch dictionary when at least half
/// the values repeat (the dictionary ships only referenced strings, in
/// first-reference order), plain length-prefixed strings otherwise.
/// `order_out`, when given, receives the dictionary strings shipped (for
/// the encoder's re-ship accounting); left empty for the plain layout.
void AppendStringColumnPerBatch(const Column& col, size_t n,
                                std::string* out,
                                std::vector<std::string_view>* order_out) {
  const size_t null_count = col.NullCount();
  const size_t non_null = n - null_count;
  // Remap referenced dictionary codes to dense batch-local indices.
  std::unordered_map<uint32_t, uint32_t> remap;
  std::vector<std::string_view> order;
  remap.reserve(64);
  for (size_t r = 0; r < n; ++r) {
    if (col.IsNull(r)) continue;
    const uint32_t code = col.CodeAt(r);
    if (remap.emplace(code, static_cast<uint32_t>(order.size())).second) {
      order.push_back(col.dict()->entry(code));
    }
  }
  if (order.size() * 2 <= non_null) {
    PutU8(kColStringDict, out);
    AppendNullBitmapCol(col, n, null_count, out);
    PutVarint(order.size(), out);
    for (const std::string_view s : order) {
      PutVarint(s.size(), out);
      out->append(s);
    }
    for (size_t r = 0; r < n; ++r) {
      if (!col.IsNull(r)) PutVarint(remap.at(col.CodeAt(r)), out);
    }
    if (order_out != nullptr) *order_out = std::move(order);
  } else {
    PutU8(kColStringPlain, out);
    AppendNullBitmapCol(col, n, null_count, out);
    for (size_t r = 0; r < n; ++r) {
      if (col.IsNull(r)) continue;
      const std::string_view s = col.StringAt(r);
      PutVarint(s.size(), out);
      out->append(s);
    }
  }
}

/// The batch body both entry points share: row count, layout byte, column
/// count, then each column. `append_string(col, c, out)` picks the string
/// column layout (per-batch for SerializeBatch, the stream dictionary for
/// WireStreamEncoder); mixed-type columns take the per-value fallback.
/// Returns how many columns took that fallback.
template <typename AppendString>
int64_t AppendBatchBody(const Batch& batch, AppendString&& append_string,
                        std::string* out) {
  const size_t n = batch.size();
  PutVarint(n, out);
  if (n == 0) return 0;
  // Layout byte kept for format stability; batches are always rectangular
  // now, so only the uniform columnar layout is ever written.
  PutU8(1, out);
  PutVarint(batch.num_cols(), out);
  int64_t transposes = 0;
  for (size_t c = 0; c < batch.num_cols(); ++c) {
    const Column& col = batch.col(c);
    if (AppendTypedColumn(col, n, out)) continue;
    if (col.is_variant()) {
      ++transposes;
      AppendMixedColumn(col, n, out);
      continue;
    }
    append_string(col, c, out);
  }
  return transposes;
}

/// Reads the null-bitmap preamble into `*is_null` words (empty when the
/// column declares no NULLs); bit layout matches Column::null_words().
Status ReadNullBitmap(WireReader* r, size_t n,
                      std::vector<uint8_t>* is_null) {
  is_null->clear();
  PUSHSIP_ASSIGN_OR_RETURN(const uint8_t has_nulls, r->ReadU8());
  if (has_nulls > 1) {
    return Status::InvalidArgument("bad null-bitmap flag on the wire");
  }
  if (has_nulls == 0) return Status::OK();
  PUSHSIP_ASSIGN_OR_RETURN(const std::string bitmap,
                           r->ReadString((n + 7) / 8));
  is_null->assign(n, 0);
  for (size_t i = 0; i < n; ++i) {
    (*is_null)[i] =
        (static_cast<uint8_t>(bitmap[i >> 3]) >> (i & 7)) & 1;
  }
  return Status::OK();
}

/// `stream_dicts` holds the per-(sender, column) dictionaries a stream
/// decoder threads through the body decode; nullptr for standalone batches
/// (then only self-contained stream columns — base 0 — decode).
Result<Column> ReadColumn(
    WireReader* r, size_t n, size_t col_index,
    std::vector<std::shared_ptr<StringDict>>* stream_dicts) {
  PUSHSIP_ASSIGN_OR_RETURN(const uint8_t tag, r->ReadU8());
  const size_t reserve = std::min<uint64_t>(n, kMaxReserveRows);
  std::vector<uint8_t> is_null;
  switch (tag) {
    case kColMixed: {
      Column col;
      col.Reserve(reserve);
      for (size_t i = 0; i < n; ++i) {
        PUSHSIP_ASSIGN_OR_RETURN(Value v, ReadValue(r));
        col.AppendValue(v);
      }
      return col;
    }
    case kColNull: {
      Column col;
      for (size_t i = 0; i < n; ++i) col.AppendNull();
      return col;
    }
    case kColInt64:
    case kColDate: {
      PUSHSIP_RETURN_NOT_OK(ReadNullBitmap(r, n, &is_null));
      Column col(tag == kColInt64 ? TypeId::kInt64 : TypeId::kDate);
      col.Reserve(reserve);
      for (size_t i = 0; i < n; ++i) {
        if (!is_null.empty() && is_null[i]) {
          col.AppendNull();
          continue;
        }
        PUSHSIP_ASSIGN_OR_RETURN(const uint64_t u, r->ReadVarint());
        col.AppendI64(ZigZagDecode(u));
      }
      return col;
    }
    case kColDouble: {
      PUSHSIP_RETURN_NOT_OK(ReadNullBitmap(r, n, &is_null));
      Column col(TypeId::kDouble);
      col.Reserve(reserve);
      for (size_t i = 0; i < n; ++i) {
        if (!is_null.empty() && is_null[i]) {
          col.AppendNull();
          continue;
        }
        PUSHSIP_ASSIGN_OR_RETURN(const double v, r->ReadDouble());
        col.AppendF64(v);
      }
      return col;
    }
    case kColStringDict: {
      PUSHSIP_RETURN_NOT_OK(ReadNullBitmap(r, n, &is_null));
      PUSHSIP_ASSIGN_OR_RETURN(const uint64_t dict_size, r->ReadVarint());
      if (dict_size > n) {
        return Status::InvalidArgument(
            "string dictionary larger than the batch");
      }
      auto dict = std::make_shared<StringDict>();
      for (uint64_t d = 0; d < dict_size; ++d) {
        PUSHSIP_ASSIGN_OR_RETURN(const uint64_t len, r->ReadVarint());
        PUSHSIP_ASSIGN_OR_RETURN(std::string s, r->ReadString(len));
        dict->SetEntry(static_cast<uint32_t>(d), std::move(s));
      }
      Column col = Column::StringWithDict(std::move(dict));
      col.Reserve(reserve);
      for (size_t i = 0; i < n; ++i) {
        if (!is_null.empty() && is_null[i]) {
          col.AppendNull();
          continue;
        }
        PUSHSIP_ASSIGN_OR_RETURN(const uint64_t idx, r->ReadVarint());
        if (idx >= dict_size) {
          return Status::InvalidArgument(
              "string dictionary index out of range");
        }
        col.AppendCode(static_cast<uint32_t>(idx));
      }
      return col;
    }
    case kColStringDictStream: {
      PUSHSIP_RETURN_NOT_OK(ReadNullBitmap(r, n, &is_null));
      PUSHSIP_ASSIGN_OR_RETURN(const uint64_t base, r->ReadVarint());
      PUSHSIP_ASSIGN_OR_RETURN(const uint64_t num_new, r->ReadVarint());
      if (num_new > r->remaining()) {
        return Status::InvalidArgument(
            "dictionary update larger than the bytes on the wire");
      }
      std::shared_ptr<StringDict> dict;
      if (stream_dicts != nullptr) {
        if (stream_dicts->size() <= col_index) {
          stream_dicts->resize(col_index + 1);
        }
        auto& slot = (*stream_dicts)[col_index];
        if (slot == nullptr) slot = std::make_shared<StringDict>();
        dict = slot;
      } else {
        // A standalone batch can only hold self-contained stream columns
        // (first frame of a stream); continuations need decoder state.
        if (base != 0) {
          return Status::InvalidArgument(
              "dictionary stream continuation without stream state");
        }
        dict = std::make_shared<StringDict>();
      }
      if (base != dict->size()) {
        return Status::InvalidArgument(
            "dictionary stream out of sync with decoder state");
      }
      for (uint64_t d = 0; d < num_new; ++d) {
        PUSHSIP_ASSIGN_OR_RETURN(const uint64_t len, r->ReadVarint());
        PUSHSIP_ASSIGN_OR_RETURN(std::string s, r->ReadString(len));
        dict->SetEntry(static_cast<uint32_t>(base + d), std::move(s));
      }
      const uint64_t limit = base + num_new;
      Column col = Column::StringWithDict(std::move(dict));
      col.Reserve(reserve);
      for (size_t i = 0; i < n; ++i) {
        if (!is_null.empty() && is_null[i]) {
          col.AppendNull();
          continue;
        }
        PUSHSIP_ASSIGN_OR_RETURN(const uint64_t code, r->ReadVarint());
        if (code >= limit) {
          return Status::InvalidArgument(
              "stream dictionary code out of range");
        }
        col.AppendCode(static_cast<uint32_t>(code));
      }
      return col;
    }
    case kColStringPlain: {
      PUSHSIP_RETURN_NOT_OK(ReadNullBitmap(r, n, &is_null));
      Column col(TypeId::kString);
      col.Reserve(reserve);
      for (size_t i = 0; i < n; ++i) {
        if (!is_null.empty() && is_null[i]) {
          col.AppendNull();
          continue;
        }
        PUSHSIP_ASSIGN_OR_RETURN(const uint64_t len, r->ReadVarint());
        PUSHSIP_ASSIGN_OR_RETURN(std::string s, r->ReadString(len));
        col.AppendValue(Value::String(std::move(s)));
      }
      return col;
    }
    default:
      return Status::InvalidArgument("unknown column tag on the wire");
  }
}

Result<Batch> ReadBatchBody(
    WireReader* r, std::vector<std::shared_ptr<StringDict>>* stream_dicts) {
  PUSHSIP_ASSIGN_OR_RETURN(const uint64_t num_rows, r->ReadVarint());
  Batch batch;
  if (num_rows == 0) return batch;
  PUSHSIP_ASSIGN_OR_RETURN(const uint8_t layout, r->ReadU8());
  if (layout != 1) {
    // Layout 0 was the ragged per-row fallback; batches are rectangular
    // and ragged payloads no longer deserialize.
    return Status::InvalidArgument("ragged batch on the wire");
  }
  PUSHSIP_ASSIGN_OR_RETURN(const uint64_t num_cols, r->ReadVarint());
  if (num_cols == 0 || num_cols > kMaxPlausibleCols) {
    return Status::InvalidArgument("implausible column count on the wire");
  }
  // Row count must be bounded by the input actually present: every encoded
  // column costs at least ceil(rows/8) payload bytes (null bitmap /
  // varints / values) except all-NULL columns, which the slack term covers
  // for any realistically sized batch. A corrupt varint row count can
  // therefore never force a large allocation from a tiny frame.
  const uint64_t value_budget =
      64 * static_cast<uint64_t>(r->remaining()) + 4096;
  if (num_rows > value_budget || num_rows * num_cols > value_budget) {
    return Status::InvalidArgument(
        "batch row count implausible for the bytes on the wire");
  }
  for (uint64_t c = 0; c < num_cols; ++c) {
    PUSHSIP_ASSIGN_OR_RETURN(Column col,
                             ReadColumn(r, num_rows, c, stream_dicts));
    batch.AddColumn(std::move(col));
  }
  return batch;
}

// Bloom bodies: an encoding byte, then either the dense word array or
// varint set-bit-position deltas, whichever is smaller.
enum BloomEncoding : uint8_t {
  kBloomDense = 0,
  kBloomSparse = 1,
};

void AppendBloomBody(const BloomFilter& filter, std::string* out) {
  PutU64(filter.num_bits(), out);
  PutU32(static_cast<uint32_t>(filter.num_hashes()), out);
  PutU64(filter.inserted_count(), out);
  const std::vector<uint64_t>& words = filter.words();
  // Try the sparse encoding: varint count, then varint deltas between
  // successive set bit positions (first delta = first position).
  std::string sparse;
  uint64_t count = 0;
  uint64_t prev = 0;
  for (size_t w = 0; w < words.size(); ++w) {
    uint64_t word = words[w];
    while (word != 0) {
      const int bit = std::countr_zero(word);
      word &= word - 1;
      const uint64_t pos = w * 64 + static_cast<uint64_t>(bit);
      PutVarint(pos - prev, &sparse);
      prev = pos;
      ++count;
    }
  }
  std::string count_prefix;
  PutVarint(count, &count_prefix);
  if (1 + count_prefix.size() + sparse.size() < 1 + words.size() * 8) {
    PutU8(kBloomSparse, out);
    out->append(count_prefix);
    out->append(sparse);
    return;
  }
  PutU8(kBloomDense, out);
  for (const uint64_t w : words) PutU64(w, out);
}

Result<BloomFilter> ReadBloomBody(WireReader* r) {
  PUSHSIP_ASSIGN_OR_RETURN(const uint64_t num_bits, r->ReadU64());
  PUSHSIP_ASSIGN_OR_RETURN(const uint32_t num_hashes, r->ReadU32());
  PUSHSIP_ASSIGN_OR_RETURN(const uint64_t inserted, r->ReadU64());
  if (num_bits == 0 || num_bits % 64 != 0 || num_bits > (1ULL << 36)) {
    return Status::InvalidArgument("implausible bloom geometry on the wire");
  }
  PUSHSIP_ASSIGN_OR_RETURN(const uint8_t encoding, r->ReadU8());
  if (encoding > kBloomSparse) {
    return Status::InvalidArgument("unknown bloom encoding on the wire");
  }
  std::vector<uint64_t> words(num_bits / 64);
  if (encoding == kBloomSparse) {
    PUSHSIP_ASSIGN_OR_RETURN(const uint64_t count, r->ReadVarint());
    if (count > num_bits) {
      return Status::InvalidArgument("bloom set-bit count exceeds geometry");
    }
    uint64_t pos = 0;
    for (uint64_t i = 0; i < count; ++i) {
      PUSHSIP_ASSIGN_OR_RETURN(const uint64_t delta, r->ReadVarint());
      if (i > 0 && delta == 0) {
        return Status::InvalidArgument("non-increasing bloom bit position");
      }
      // Overflow-safe range check: pos + delta must stay below num_bits
      // (a wrapped sum would slip past both guards and set wrong bits).
      if (delta > num_bits - 1 - pos) {
        return Status::InvalidArgument("bloom bit position out of range");
      }
      pos += delta;
      words[pos / 64] |= 1ULL << (pos % 64);
    }
  } else {
    for (uint64_t& w : words) {
      PUSHSIP_ASSIGN_OR_RETURN(w, r->ReadU64());
    }
  }
  return BloomFilter::FromParts(static_cast<size_t>(num_bits),
                                static_cast<int>(num_hashes),
                                static_cast<size_t>(inserted),
                                std::move(words));
}

void AppendHeader(char tag, std::string* out) {
  PutU8(static_cast<uint8_t>(tag), out);
  PutU8(kWireVersion, out);
}

void AppendBatchFrameHeader(uint32_t sender, uint32_t epoch, uint64_t seq,
                            bool replayable, std::string* out) {
  AppendHeader(kBatchFrameTag, out);
  PutU32(sender, out);
  PutU32(epoch, out);
  PutU64(seq, out);
  PutU8(replayable ? 1 : 0, out);
}

}  // namespace

std::string SerializeBatch(const Batch& batch, WireFormatVersion) {
  std::string out;
  // Rough pre-size: header + ~16 bytes per value.
  out.reserve(10 + batch.size() * 32);
  AppendHeader(kBatchTag, &out);
  AppendBatchBody(
      batch,
      [](const Column& col, size_t, std::string* o) {
        AppendStringColumnPerBatch(col, col.size(), o, nullptr);
      },
      &out);
  return out;
}

Result<Batch> DeserializeBatch(const std::string& bytes) {
  WireReader r(bytes);
  PUSHSIP_RETURN_NOT_OK(r.ExpectHeader(kBatchTag));
  PUSHSIP_ASSIGN_OR_RETURN(Batch batch, ReadBatchBody(&r, nullptr));
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after batch");
  }
  return batch;
}

std::string AssembleBatchFrame(uint32_t sender, uint32_t epoch, uint64_t seq,
                               bool replayable, const std::string& body) {
  std::string out;
  out.reserve(19 + body.size());
  AppendBatchFrameHeader(sender, epoch, seq, replayable, &out);
  out.append(body);
  return out;
}

// ---------------------------------------------------------------------------
// Stream encoder / decoder.

struct WireStreamEncoder::ColState {
  /// Stream code space: strings interned in first-reference order, so the
  /// entries of each frame's update are exactly the contiguous tail
  /// [shipped, size) and ship without explicit codes.
  std::shared_ptr<StringDict> stream_dict = std::make_shared<StringDict>();
  /// Identity of the last source dictionary, for the code-to-code cache.
  const StringDict* src_dict = nullptr;
  std::vector<uint32_t> src_to_stream;
  uint32_t shipped = 0;
  /// Scratch: per-row stream codes of the batch being encoded.
  std::vector<uint32_t> row_codes;
};

WireStreamEncoder::WireStreamEncoder(bool stream_dicts)
    : stream_dicts_(stream_dicts) {}

WireStreamEncoder::~WireStreamEncoder() = default;

void WireStreamEncoder::Reset() {
  cols_.clear();
}

void WireStreamEncoder::EncodeStringColumn(const Column& col,
                                           size_t col_index,
                                           std::string* out) {
  if (cols_.size() <= col_index) cols_.resize(col_index + 1);
  if (cols_[col_index] == nullptr) {
    cols_[col_index] = std::make_unique<ColState>();
  }
  ColState& st = *cols_[col_index];
  const size_t n = col.size();
  const size_t null_count = col.NullCount();

  if (!stream_dicts_) {
    // Self-contained per-batch layout; account what streaming would save.
    std::vector<std::string_view> order;
    AppendStringColumnPerBatch(col, n, out, &order);
    for (const std::string_view s : order) {
      uint32_t code;
      if (st.stream_dict->Find(s, &code)) {
        ++dict_reships_;
      } else {
        st.stream_dict->Intern(s);
      }
    }
    dict_entries_shipped_ += static_cast<int64_t>(order.size());
    return;
  }

  // Map source dictionary codes to stream codes, interning strings first
  // referenced by this batch. The code-to-code cache makes the steady
  // state one array lookup per row; it survives as long as the source
  // dictionary identity does (a changed source just re-warms the cache —
  // stream codes, and therefore the bytes already shipped, stay valid).
  const StringDict* src = col.dict().get();
  if (src != st.src_dict) {
    st.src_dict = src;
    st.src_to_stream.assign(src->size(), kNoStreamCode);
  } else if (st.src_to_stream.size() < src->size()) {
    st.src_to_stream.resize(src->size(), kNoStreamCode);
  }
  st.row_codes.resize(n);
  for (size_t r = 0; r < n; ++r) {
    if (null_count > 0 && col.IsNull(r)) continue;
    const uint32_t sc = col.CodeAt(r);
    uint32_t mapped = st.src_to_stream[sc];
    if (mapped == kNoStreamCode) {
      mapped = st.stream_dict->Intern(src->entry(sc));
      st.src_to_stream[sc] = mapped;
    }
    st.row_codes[r] = mapped;
  }

  PutU8(kColStringDictStream, out);
  AppendNullBitmapCol(col, n, null_count, out);
  const uint32_t size_now = st.stream_dict->size();
  PutVarint(st.shipped, out);              // base: decoder's dict size
  PutVarint(size_now - st.shipped, out);   // new entries, contiguous codes
  for (uint32_t c = st.shipped; c < size_now; ++c) {
    const std::string& s = st.stream_dict->entry(c);
    PutVarint(s.size(), out);
    out->append(s);
  }
  dict_entries_shipped_ += static_cast<int64_t>(size_now - st.shipped);
  st.shipped = size_now;
  for (size_t r = 0; r < n; ++r) {
    if (null_count == 0 || !col.IsNull(r)) PutVarint(st.row_codes[r], out);
  }
}

void WireStreamEncoder::AppendBody(const Batch& batch, std::string* out) {
  encode_transposes_ += AppendBatchBody(
      batch,
      [this](const Column& col, size_t c, std::string* o) {
        EncodeStringColumn(col, c, o);
      },
      out);
}

std::string WireStreamEncoder::SerializeBody(const Batch& batch) {
  std::string out;
  out.reserve(8 + batch.size() * 32);
  AppendBody(batch, &out);
  return out;
}

std::string WireStreamEncoder::SerializeFrame(uint32_t sender, uint32_t epoch,
                                              uint64_t seq, bool replayable,
                                              const Batch& batch) {
  std::string out;
  out.reserve(27 + batch.size() * 32);
  AppendBatchFrameHeader(sender, epoch, seq, replayable, &out);
  AppendBody(batch, &out);
  return out;
}

Result<BatchFrame> WireStreamDecoder::DecodeFrame(const std::string& bytes) {
  WireReader r(bytes);
  PUSHSIP_RETURN_NOT_OK(r.ExpectHeader(kBatchFrameTag));
  BatchFrame frame;
  PUSHSIP_ASSIGN_OR_RETURN(frame.sender, r.ReadU32());
  PUSHSIP_ASSIGN_OR_RETURN(frame.epoch, r.ReadU32());
  PUSHSIP_ASSIGN_OR_RETURN(frame.seq, r.ReadU64());
  PUSHSIP_ASSIGN_OR_RETURN(const uint8_t replayable, r.ReadU8());
  if (replayable > 1) {
    return Status::InvalidArgument("bad replayable flag in batch frame");
  }
  frame.replayable = replayable != 0;

  SenderState& st = senders_[frame.sender];
  if (!st.seen || frame.epoch > st.epoch) {
    // New stream epoch: the (restarted or migrated) sender's encoder
    // starts with empty dictionaries, so this side must too.
    st.seen = true;
    st.epoch = frame.epoch;
    st.dicts.clear();
  } else if (frame.epoch < st.epoch) {
    // A straggler from before a restart. Its dictionary context is gone;
    // the receiver discards pre-restart frames anyway, so skip the body.
    frame.stale = true;
    return frame;
  }
  PUSHSIP_ASSIGN_OR_RETURN(frame.batch, ReadBatchBody(&r, &st.dicts));
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after batch frame");
  }
  return frame;
}

std::string SerializeBloomFilter(const BloomFilter& filter) {
  std::string out;
  out.reserve(22 + filter.SizeBytes());
  AppendHeader(kBloomTag, &out);
  AppendBloomBody(filter, &out);
  return out;
}

Result<BloomFilter> DeserializeBloomFilter(const std::string& bytes) {
  WireReader r(bytes);
  PUSHSIP_RETURN_NOT_OK(r.ExpectHeader(kBloomTag));
  PUSHSIP_ASSIGN_OR_RETURN(BloomFilter f, ReadBloomBody(&r));
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after bloom filter");
  }
  return f;
}

std::string SerializeFilterMessage(AttrId attr, const BloomFilter& filter) {
  std::string out;
  out.reserve(26 + filter.SizeBytes());
  AppendHeader(kFilterMsgTag, &out);
  PutU32(static_cast<uint32_t>(attr), &out);
  AppendBloomBody(filter, &out);
  return out;
}

Result<FilterMessage> DeserializeFilterMessage(const std::string& bytes) {
  WireReader r(bytes);
  PUSHSIP_RETURN_NOT_OK(r.ExpectHeader(kFilterMsgTag));
  PUSHSIP_ASSIGN_OR_RETURN(const uint32_t attr, r.ReadU32());
  PUSHSIP_ASSIGN_OR_RETURN(BloomFilter f, ReadBloomBody(&r));
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after filter message");
  }
  FilterMessage msg;
  msg.attr = static_cast<AttrId>(static_cast<int32_t>(attr));
  msg.filter = std::move(f);
  return msg;
}

}  // namespace pushsip
