#include "net/wire_format.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <string_view>

namespace pushsip {

namespace {

constexpr char kBatchTag = 'B';
constexpr char kBatchFrameTag = 'X';
constexpr char kBloomTag = 'F';
constexpr char kFilterMsgTag = 'A';

/// Every header's second byte. Decoders reject any other value (version 1
/// was the retired row-major encoding, version 2 the varint-only columns
/// and fixed-width frame header, version 3 the same columns plus a
/// per-value mixed-type column and a batch layout byte).
constexpr uint8_t kWireVersion =
    static_cast<uint8_t>(WireFormatVersion::kColumnar);

// Batch payload: per-column encodings. "int payload" is the integer
// kernel's output (AppendIntPayload).
// Tag 0 was the retired mixed-type column and is refused like any unknown
// tag.
enum ColTag : uint8_t {
  kColInt64 = 1,            ///< int payload
  kColDate = 2,             ///< int payload
  kColDouble = 3,           ///< scale byte, then int payload or raw doubles
  kColStringDict = 4,       ///< per-batch dictionary + int payload indices
  kColStringPlain = 5,      ///< varint length + bytes per value
  kColNull = 6,             ///< every value NULL; no payload
  kColStringDictStream = 7, ///< cross-batch dictionary delta + payload codes
};

// Int payload mode byte: a bit width 0..kMaxPackedWidth selects
// frame-of-reference bit-packing; kIntVarints selects one varint per value.
// The width cap lets one unaligned 8-byte load cover any packed value
// (7 bits of in-byte offset + 56 bits of value).
constexpr uint8_t kMaxPackedWidth = 56;
constexpr uint8_t kIntVarints = 0xff;

// DOUBLE column scale byte: s in 0..kMaxDecimalScale means every value is
// exactly k / 10^s and the k ship as an int payload; kRawDoubles means
// 8 raw bytes per value.
constexpr uint8_t kMaxDecimalScale = 4;
constexpr uint8_t kRawDoubles = 0xff;
constexpr double kPow10[kMaxDecimalScale + 1] = {1, 10, 100, 1000, 10000};
/// 2^53: below it every integer is an exact double.
constexpr double kExactIntLimit = 9007199254740992.0;

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

size_t VarintSize(uint64_t v) {
  return (static_cast<size_t>(std::bit_width(v | 1)) + 6) / 7;
}

void StoreLE64(uint64_t v, char* p) {
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  std::memcpy(p, &v, sizeof(v));
}

uint64_t LoadLE64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
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
    PUSHSIP_ASSIGN_OR_RETURN(const char* p, ReadBytes(len));
    return std::string(p, len);
  }

  /// Consumes `len` bytes and returns where they start in the message.
  Result<const char*> ReadBytes(size_t len) {
    if (len > remaining()) return Truncated();
    const char* p = bytes_.data() + pos_;
    pos_ += len;
    return p;
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

// ---------------------------------------------------------------------------
// The integer-payload kernel. Every integer-like column payload (INT64 and
// DATE values, scaled DOUBLE mantissas, dictionary codes) is one mode byte
// and then either
//   * packed (mode = bit width w <= kMaxPackedWidth): varint(zigzag(min)),
//     then ceil(n*w/8) bytes holding value - min in w bits each, LSB-first;
//     w = 0 (every value equal) ships no value bytes at all; or
//   * varints (mode = kIntVarints): one varint per value, zigzagged when
//     the values are signed.
// The encoder measures both sizes in one pass and ships the smaller, so a
// payload is never more than the mode byte larger than plain varints.
// The reader knows n, so a payload of no values is empty and one of a
// single value is just its varint, with no mode byte: tiny batches — a
// pruned stream ships many — pay nothing for the choice.

/// Appends `values[0..n)` as an int payload. `zigzag` marks signed values
/// (dictionary codes are not, and ship as plain varints).
void AppendIntPayload(const int64_t* values, size_t n, bool zigzag,
                      std::string* out) {
  const auto varint_of = [zigzag](int64_t v) {
    return zigzag ? ZigZagEncode(v) : static_cast<uint64_t>(v);
  };
  if (n <= 1) {
    if (n == 1) PutVarint(varint_of(values[0]), out);
    return;
  }
  int64_t min = values[0];
  int64_t max = min;
  size_t varint_bytes = 0;
  for (size_t i = 0; i < n; ++i) {
    const int64_t v = values[i];
    min = std::min(min, v);
    max = std::max(max, v);
    varint_bytes += VarintSize(varint_of(v));
  }
  const uint64_t base = static_cast<uint64_t>(min);
  const int width = std::bit_width(static_cast<uint64_t>(max) - base);
  const size_t packed_bytes = (n * static_cast<size_t>(width) + 7) / 8;
  if (width > kMaxPackedWidth ||
      VarintSize(ZigZagEncode(min)) + packed_bytes > varint_bytes) {
    PutU8(kIntVarints, out);
    for (size_t i = 0; i < n; ++i) PutVarint(varint_of(values[i]), out);
    return;
  }
  PutU8(static_cast<uint8_t>(width), out);
  PutVarint(ZigZagEncode(min), out);
  if (width == 0) return;
  // Pack a 64-bit word at a time; a value straddling two words leaves its
  // high bits in the next accumulator.
  const size_t start = out->size();
  out->resize(start + packed_bytes);
  char* p = out->data() + start;
  const unsigned w = static_cast<unsigned>(width);
  uint64_t acc = 0;
  unsigned filled = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t d = static_cast<uint64_t>(values[i]) - base;
    acc |= d << filled;
    filled += w;
    if (filled >= 64) {
      StoreLE64(acc, p);
      p += 8;
      filled -= 64;
      acc = filled > 0 ? d >> (w - filled) : 0;
    }
  }
  for (; filled > 0; filled -= std::min(filled, 8u)) {
    *p++ = static_cast<char>(acc);
    acc >>= 8;
  }
}

/// Reads an int payload of `n` values, calling `emit(int64_t)` for each in
/// order. Fails closed on truncation and on unknown mode bytes; never
/// reads past the message.
template <typename Emit>
Status ReadIntPayload(WireReader* r, size_t n, bool zigzag, Emit&& emit) {
  if (n == 0) return Status::OK();
  uint8_t mode = kIntVarints;  // a single value is a bare varint
  if (n > 1) {
    PUSHSIP_ASSIGN_OR_RETURN(mode, r->ReadU8());
  }
  if (mode == kIntVarints) {
    for (size_t i = 0; i < n; ++i) {
      PUSHSIP_ASSIGN_OR_RETURN(const uint64_t u, r->ReadVarint());
      emit(zigzag ? ZigZagDecode(u) : static_cast<int64_t>(u));
    }
    return Status::OK();
  }
  if (mode > kMaxPackedWidth) {
    return Status::InvalidArgument("unknown integer payload mode on the wire");
  }
  PUSHSIP_ASSIGN_OR_RETURN(const uint64_t zz_min, r->ReadVarint());
  const uint64_t base = static_cast<uint64_t>(ZigZagDecode(zz_min));
  const size_t w = mode;
  if (w == 0) {
    for (size_t i = 0; i < n; ++i) emit(static_cast<int64_t>(base));
    return Status::OK();
  }
  // n is bounded by the row-count budget, far below SIZE_MAX / 56.
  const size_t nbytes = (n * w + 7) / 8;
  PUSHSIP_ASSIGN_OR_RETURN(const char* p, r->ReadBytes(nbytes));
  const uint64_t mask = (uint64_t{1} << w) - 1;
  // Value i starts at bit i*w; its 8-byte load stays inside the payload
  // for every i up to `fast`. The last few values copy what is left.
  const size_t fast =
      nbytes >= 8 ? std::min(n, (nbytes - 8) * 8 / w + 1) : 0;
  size_t bit = 0;
  for (size_t i = 0; i < fast; ++i, bit += w) {
    const uint64_t word = LoadLE64(p + (bit >> 3));
    emit(static_cast<int64_t>(base + ((word >> (bit & 7)) & mask)));
  }
  for (size_t i = fast; i < n; ++i, bit += w) {
    char tail[8] = {};
    const size_t at = bit >> 3;
    std::memcpy(tail, p + at, std::min<size_t>(8, nbytes - at));
    const uint64_t word = LoadLE64(tail);
    emit(static_cast<int64_t>(base + ((word >> (bit & 7)) & mask)));
  }
  return Status::OK();
}

/// The smallest scale s in 0..kMaxDecimalScale at which every value is
/// exactly k / 10^s: v*10^s is below 2^53 in magnitude, and with
/// k = nearbyint(v*10^s) the decoder's expression (s == 0 ? double(k) :
/// double(k) / 10^s) reproduces v's bit pattern, so -0.0, NaNs and
/// infinities never qualify. Fills `mantissas` with the k; returns -1
/// when no scale works. Arbitrary doubles fail on their first value at
/// every scale.
int FindDecimalScale(const double* values, size_t n,
                     std::vector<int64_t>* mantissas) {
  mantissas->resize(n);
  for (int s = 0; s <= kMaxDecimalScale; ++s) {
    size_t i = 0;
    for (; i < n; ++i) {
      const double scaled = values[i] * kPow10[s];
      if (!(std::fabs(scaled) < kExactIntLimit)) break;
      // Through int64_t, as the decoder sees k: -0.0 becomes +0.0 here.
      const int64_t k = static_cast<int64_t>(std::nearbyint(scaled));
      const double back = s == 0 ? static_cast<double>(k)
                                 : static_cast<double>(k) / kPow10[s];
      if (std::bit_cast<uint64_t>(back) !=
          std::bit_cast<uint64_t>(values[i])) {
        break;
      }
      (*mantissas)[i] = k;
    }
    if (i == n) return s;
  }
  return -1;
}

/// The non-NULL slots of `data` (`col`'s typed vector), in row order:
/// `data` itself when the column has no NULLs, else a gather into
/// `scratch`.
template <typename T>
const T* NonNullValues(const Column& col, const T* data, size_t n,
                       size_t null_count, std::vector<T>* scratch) {
  if (null_count == 0) return data;
  scratch->clear();
  scratch->reserve(n - null_count);
  for (size_t r = 0; r < n; ++r) {
    if (!col.IsNull(r)) scratch->push_back(data[r]);
  }
  return scratch->data();
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
/// Returns false, writing nothing, for a string column with a non-NULL row.
bool AppendTypedColumn(const Column& col, size_t n, std::string* out) {
  const size_t null_count = col.NullCount();
  if (null_count == n) {
    PutU8(kColNull, out);
    return true;
  }
  const size_t non_null = n - null_count;
  switch (col.type()) {
    case TypeId::kInt64:
    case TypeId::kDate: {
      PutU8(col.type() == TypeId::kInt64 ? kColInt64 : kColDate, out);
      AppendNullBitmapCol(col, n, null_count, out);
      std::vector<int64_t> scratch;
      AppendIntPayload(
          NonNullValues(col, col.i64_data(), n, null_count, &scratch),
          non_null, /*zigzag=*/true, out);
      return true;
    }
    case TypeId::kDouble: {
      PutU8(kColDouble, out);
      AppendNullBitmapCol(col, n, null_count, out);
      std::vector<double> scratch;
      const double* values =
          NonNullValues(col, col.f64_data(), n, null_count, &scratch);
      std::vector<int64_t> mantissas;
      const int scale = FindDecimalScale(values, non_null, &mantissas);
      if (scale >= 0) {
        PutU8(static_cast<uint8_t>(scale), out);
        AppendIntPayload(mantissas.data(), non_null, /*zigzag=*/true, out);
      } else {
        PutU8(kRawDoubles, out);
        for (size_t i = 0; i < non_null; ++i) PutDouble(values[i], out);
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

/// Self-contained string column: per-batch dictionary when at least half
/// the values repeat (the dictionary ships only referenced strings, in
/// first-reference order), plain length-prefixed strings otherwise.
void AppendStringColumnPerBatch(const Column& col, size_t n,
                                std::string* out) {
  const size_t null_count = col.NullCount();
  const size_t non_null = n - null_count;
  // Remap referenced dictionary codes to dense batch-local indices.
  std::unordered_map<uint32_t, uint32_t> remap;
  std::vector<std::string_view> order;
  std::vector<int64_t> indices;
  remap.reserve(64);
  indices.reserve(non_null);
  for (size_t r = 0; r < n; ++r) {
    if (col.IsNull(r)) continue;
    const uint32_t code = col.CodeAt(r);
    const auto [it, added] =
        remap.emplace(code, static_cast<uint32_t>(order.size()));
    if (added) order.push_back(col.dict()->entry(code));
    indices.push_back(it->second);
  }
  if (order.size() * 2 <= non_null) {
    PutU8(kColStringDict, out);
    AppendNullBitmapCol(col, n, null_count, out);
    PutVarint(order.size(), out);
    for (const std::string_view s : order) {
      PutVarint(s.size(), out);
      out->append(s);
    }
    AppendIntPayload(indices.data(), indices.size(), /*zigzag=*/false, out);
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

/// The batch body both entry points share: row count, column count, then
/// each column. `append_string(col, c, out)` picks the string column
/// layout (per-batch for SerializeBatch, the stream dictionary for
/// WireStreamEncoder).
template <typename AppendString>
void AppendBatchBody(const Batch& batch, AppendString&& append_string,
                     std::string* out) {
  const size_t n = batch.size();
  PutVarint(n, out);
  if (n == 0) return;
  PutVarint(batch.num_cols(), out);
  for (size_t c = 0; c < batch.num_cols(); ++c) {
    const Column& col = batch.col(c);
    if (!AppendTypedColumn(col, n, out)) append_string(col, c, out);
  }
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

/// Reads the int payload of an `n`-row column whose NULL rows `is_null`
/// flags (empty: none): `put(v)` appends each non-NULL value to `col` in
/// row order, and NULL rows get AppendNull.
template <typename Put>
Status ReadIntColumn(WireReader* r, size_t n,
                     const std::vector<uint8_t>& is_null, bool zigzag,
                     Column* col, Put&& put) {
  if (is_null.empty()) return ReadIntPayload(r, n, zigzag, put);
  size_t non_null = 0;
  for (const uint8_t b : is_null) non_null += b == 0;
  size_t row = 0;
  PUSHSIP_RETURN_NOT_OK(ReadIntPayload(r, non_null, zigzag, [&](int64_t v) {
    // The k-th value belongs to the k-th non-NULL row, so this stays < n.
    for (; is_null[row]; ++row) col->AppendNull();
    ++row;
    put(v);
  }));
  for (; row < n; ++row) col->AppendNull();
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
      PUSHSIP_RETURN_NOT_OK(ReadIntColumn(
          r, n, is_null, /*zigzag=*/true, &col,
          [&col](int64_t v) { col.AppendI64(v); }));
      return col;
    }
    case kColDouble: {
      PUSHSIP_RETURN_NOT_OK(ReadNullBitmap(r, n, &is_null));
      PUSHSIP_ASSIGN_OR_RETURN(const uint8_t scale, r->ReadU8());
      Column col(TypeId::kDouble);
      col.Reserve(reserve);
      if (scale <= kMaxDecimalScale) {
        // Exactly the encoder's check expression (FindDecimalScale).
        const double pow10 = kPow10[scale];
        PUSHSIP_RETURN_NOT_OK(ReadIntColumn(
            r, n, is_null, /*zigzag=*/true, &col, [&](int64_t k) {
              col.AppendF64(scale == 0 ? static_cast<double>(k)
                                       : static_cast<double>(k) / pow10);
            }));
        return col;
      }
      if (scale != kRawDoubles) {
        return Status::InvalidArgument("unknown double scale on the wire");
      }
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
      bool out_of_range = false;
      PUSHSIP_RETURN_NOT_OK(ReadIntColumn(
          r, n, is_null, /*zigzag=*/false, &col, [&](int64_t idx) {
            const bool ok = static_cast<uint64_t>(idx) < dict_size;
            out_of_range |= !ok;
            col.AppendCode(ok ? static_cast<uint32_t>(idx) : 0);
          }));
      if (out_of_range) {
        return Status::InvalidArgument("string dictionary index out of range");
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
      bool out_of_range = false;
      PUSHSIP_RETURN_NOT_OK(ReadIntColumn(
          r, n, is_null, /*zigzag=*/false, &col, [&](int64_t code) {
            const bool ok = static_cast<uint64_t>(code) < limit;
            out_of_range |= !ok;
            col.AppendCode(ok ? static_cast<uint32_t>(code) : 0);
          }));
      if (out_of_range) {
        return Status::InvalidArgument("stream dictionary code out of range");
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
  PUSHSIP_ASSIGN_OR_RETURN(const uint64_t num_cols, r->ReadVarint());
  if (num_cols == 0 || num_cols > kMaxPlausibleCols) {
    return Status::InvalidArgument("implausible column count on the wire");
  }
  // The row count must be bounded by the input actually present, or a
  // corrupt varint row count could force a huge allocation from a tiny
  // frame. Column cost cannot bound it: an all-NULL column and a width-0
  // packed column (every value equal) cost O(1) bytes whatever the row
  // count. So the bound is on the values the decoder will materialize:
  // rows x columns may not exceed 64 per remaining byte plus a fixed
  // slack, which caps the allocation at a constant multiple of the input.
  // A batch of mostly constant columns beyond that size is refused.
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

/// Frame header: tag, version, varint sender, epoch and seq, then the
/// replayable flag byte — 7 bytes for small values, at most 23.
constexpr size_t kMaxFrameHeaderBytes = 2 + 5 + 5 + 10 + 1;
/// Batch body prefix: varint row count, varint column count.
constexpr size_t kMaxBodyPrefixBytes = 10 + 3;
/// Encoder pre-size per row: a guess, not a bound. A Q17 row packs to
/// about 4.5 bytes; wider rows grow the buffer.
constexpr size_t kReserveBytesPerRow = 8;

void AppendBatchFrameHeader(uint32_t sender, uint32_t epoch, uint64_t seq,
                            bool replayable, std::string* out) {
  AppendHeader(kBatchFrameTag, out);
  PutVarint(sender, out);
  PutVarint(epoch, out);
  PutVarint(seq, out);
  PutU8(replayable ? 1 : 0, out);
}

}  // namespace

std::string SerializeBatch(const Batch& batch, WireFormatVersion) {
  std::string out;
  out.reserve(2 + kMaxBodyPrefixBytes + batch.size() * kReserveBytesPerRow);
  AppendHeader(kBatchTag, &out);
  AppendBatchBody(
      batch,
      [](const Column& col, size_t, std::string* o) {
        AppendStringColumnPerBatch(col, col.size(), o);
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
  out.reserve(kMaxFrameHeaderBytes + body.size());
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
  /// The last source dictionary, for the code-to-code cache. Holding it
  /// keeps its address from being reused by a later batch's dictionary,
  /// which would otherwise pass for the cached one.
  std::shared_ptr<const StringDict> src_dict;
  std::vector<uint32_t> src_to_stream;
  uint32_t shipped = 0;
  /// Scratch: the stream codes of the encoded batch's non-NULL rows.
  std::vector<int64_t> codes;
};

WireStreamEncoder::WireStreamEncoder() = default;

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

  // Map source dictionary codes to stream codes, interning strings first
  // referenced by this batch. The code-to-code cache makes the steady
  // state one array lookup per row; it survives as long as the source
  // dictionary identity does (a changed source just re-warms the cache —
  // stream codes, and therefore the bytes already shipped, stay valid).
  const StringDict* src = col.dict().get();
  if (src != st.src_dict.get()) {
    st.src_dict = col.dict();
    st.src_to_stream.assign(src->size(), kNoStreamCode);
  } else if (st.src_to_stream.size() < src->size()) {
    st.src_to_stream.resize(src->size(), kNoStreamCode);
  }
  st.codes.clear();
  st.codes.reserve(n - null_count);
  for (size_t r = 0; r < n; ++r) {
    if (null_count > 0 && col.IsNull(r)) continue;
    const uint32_t sc = col.CodeAt(r);
    uint32_t mapped = st.src_to_stream[sc];
    if (mapped == kNoStreamCode) {
      mapped = st.stream_dict->Intern(src->entry(sc));
      st.src_to_stream[sc] = mapped;
    }
    st.codes.push_back(mapped);
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
  AppendIntPayload(st.codes.data(), st.codes.size(), /*zigzag=*/false, out);
}

void WireStreamEncoder::AppendBody(const Batch& batch, std::string* out) {
  AppendBatchBody(
      batch,
      [this](const Column& col, size_t c, std::string* o) {
        EncodeStringColumn(col, c, o);
      },
      out);
}

std::string WireStreamEncoder::SerializeBody(const Batch& batch) {
  std::string out;
  out.reserve(kMaxBodyPrefixBytes + batch.size() * kReserveBytesPerRow);
  AppendBody(batch, &out);
  return out;
}

std::string WireStreamEncoder::SerializeFrame(uint32_t sender, uint32_t epoch,
                                              uint64_t seq, bool replayable,
                                              const Batch& batch) {
  std::string out;
  out.reserve(kMaxFrameHeaderBytes + kMaxBodyPrefixBytes +
              batch.size() * kReserveBytesPerRow);
  AppendBatchFrameHeader(sender, epoch, seq, replayable, &out);
  AppendBody(batch, &out);
  return out;
}

Result<BatchFrame> WireStreamDecoder::DecodeFrame(const std::string& bytes) {
  WireReader r(bytes);
  PUSHSIP_RETURN_NOT_OK(r.ExpectHeader(kBatchFrameTag));
  BatchFrame frame;
  PUSHSIP_ASSIGN_OR_RETURN(const uint64_t sender, r.ReadVarint());
  PUSHSIP_ASSIGN_OR_RETURN(const uint64_t epoch, r.ReadVarint());
  if (sender > UINT32_MAX || epoch > UINT32_MAX) {
    return Status::InvalidArgument("batch frame sender or epoch too large");
  }
  frame.sender = static_cast<uint32_t>(sender);
  frame.epoch = static_cast<uint32_t>(epoch);
  PUSHSIP_ASSIGN_OR_RETURN(frame.seq, r.ReadVarint());
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
  // Header, geometry (8 + 4 + 8) and encoding byte; dense words at most.
  out.reserve(2 + 20 + 1 + filter.SizeBytes());
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
  out.reserve(2 + 4 + 20 + 1 + filter.SizeBytes());
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
