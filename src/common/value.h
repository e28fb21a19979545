// Value: the runtime representation of a single SQL scalar.
#ifndef PUSHSIP_COMMON_VALUE_H_
#define PUSHSIP_COMMON_VALUE_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace pushsip {

/// Physical type of a Value / column.
enum class TypeId : uint8_t {
  kNull = 0,
  kInt64,
  kDouble,
  kString,
  kDate,  ///< days since 1970-01-01, stored as int64
};

/// Returns a printable name for a TypeId.
const char* TypeName(TypeId t);

// --- canonical scalar hash primitives ---
//
// Every hash consumer in the engine (AIP summaries, shuffle routing, join
// and group-by keys, the batch key-hash lane) must agree on one formula per
// logical value, whether the value lives in a row Tuple or a typed column
// vector. These free functions are that single source of truth;
// Value::Hash() and Column::HashAt() both delegate here.

/// splitmix64 finalizer.
inline uint64_t HashMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

inline uint64_t HashOfNull() { return HashMix64(0xdeadbeefULL); }

inline uint64_t HashOfInt64(int64_t v) {
  return HashMix64(static_cast<uint64_t>(v));
}

/// True when `v` is integral and inside int64's range; stores the integer
/// in *out. The range check keeps the conversion defined for NaN,
/// infinities and huge magnitudes, which are not integral here.
inline bool DoubleAsInt64(double v, int64_t* out) {
  if (!(v >= -0x1p63 && v < 0x1p63)) return false;
  *out = static_cast<int64_t>(v);
  return static_cast<double>(*out) == v;
}

/// Integral doubles (DoubleAsInt64) hash as their integer value so that
/// Int64(3) and Double(3.0), which Compare() as equal, hash equally.
uint64_t HashOfDouble(double v);

/// FNV-1a over the bytes, then mixed.
uint64_t HashOfStringBytes(const char* data, size_t len);

/// \brief A single scalar value (NULL, INT64, DOUBLE, DATE, or STRING).
///
/// Values are small (40 bytes + string payload) and used row-at-a-time in the
/// push engine. Comparison follows SQL semantics except that NULLs order
/// first and compare equal to each other (the engine uses comparisons only
/// for grouping/join keys, where that is the desired behaviour; predicate
/// evaluation handles NULL separately).
class Value {
 public:
  Value() : type_(TypeId::kNull), i64_(0), f64_(0) {}

  static Value Null() { return Value(); }
  static Value Int64(int64_t v) {
    Value out;
    out.type_ = TypeId::kInt64;
    out.i64_ = v;
    return out;
  }
  static Value Double(double v) {
    Value out;
    out.type_ = TypeId::kDouble;
    out.f64_ = v;
    return out;
  }
  static Value String(std::string v) {
    Value out;
    out.type_ = TypeId::kString;
    out.str_ = std::move(v);
    return out;
  }
  /// Days since epoch.
  static Value Date(int64_t days) {
    Value out;
    out.type_ = TypeId::kDate;
    out.i64_ = days;
    return out;
  }
  /// Parses "YYYY-MM-DD" into a date value (proleptic Gregorian).
  static Result<Value> DateFromString(const std::string& ymd);

  TypeId type() const { return type_; }
  bool is_null() const { return type_ == TypeId::kNull; }

  int64_t AsInt64() const {
    PUSHSIP_DCHECK(type_ == TypeId::kInt64 || type_ == TypeId::kDate);
    return i64_;
  }
  double AsDouble() const {
    if (type_ == TypeId::kInt64 || type_ == TypeId::kDate) {
      return static_cast<double>(i64_);
    }
    PUSHSIP_DCHECK(type_ == TypeId::kDouble);
    return f64_;
  }
  const std::string& AsString() const {
    PUSHSIP_DCHECK(type_ == TypeId::kString);
    return str_;
  }

  /// Three-way comparison: negative / zero / positive. NULLs sort first;
  /// numeric types compare by numeric value regardless of physical type.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// Stable 64-bit hash; equal values (per Compare) hash equally.
  uint64_t Hash() const;

  /// Approximate heap + inline footprint in bytes (for state accounting).
  size_t FootprintBytes() const {
    return sizeof(Value) + (type_ == TypeId::kString ? str_.capacity() : 0);
  }

  /// Renders the value for debugging / result printing.
  std::string ToString() const;

 private:
  TypeId type_;
  int64_t i64_;
  double f64_;
  std::string str_;
};

}  // namespace pushsip

#endif  // PUSHSIP_COMMON_VALUE_H_
