#include "common/value.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>

namespace pushsip {

const char* TypeName(TypeId t) {
  switch (t) {
    case TypeId::kNull:
      return "NULL";
    case TypeId::kInt64:
      return "INT64";
    case TypeId::kDouble:
      return "DOUBLE";
    case TypeId::kString:
      return "STRING";
    case TypeId::kDate:
      return "DATE";
  }
  return "?";
}

namespace {
// Days from civil date, Howard Hinnant's algorithm (public domain).
int64_t DaysFromCivil(int64_t y, unsigned m, unsigned d) {
  y -= m <= 2;
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + static_cast<int64_t>(doe) - 719468;
}

void CivilFromDays(int64_t z, int64_t* y, unsigned* m, unsigned* d) {
  z += 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t yy = static_cast<int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  *d = doy - (153 * mp + 2) / 5 + 1;
  *m = mp + (mp < 10 ? 3 : -9);
  *y = yy + (*m <= 2);
}
}  // namespace

Result<Value> Value::DateFromString(const std::string& ymd) {
  int y = 0, m = 0, d = 0;
  if (std::sscanf(ymd.c_str(), "%d-%d-%d", &y, &m, &d) != 3 || m < 1 ||
      m > 12 || d < 1 || d > 31) {
    return Status::InvalidArgument("bad date literal: " + ymd);
  }
  return Value::Date(DaysFromCivil(y, static_cast<unsigned>(m),
                                   static_cast<unsigned>(d)));
}

int Value::Compare(const Value& other) const {
  const bool ln = is_null(), rn = other.is_null();
  if (ln || rn) return static_cast<int>(rn) - static_cast<int>(ln);
  const bool lnum = type_ != TypeId::kString;
  const bool rnum = other.type_ != TypeId::kString;
  if (lnum != rnum) return lnum ? -1 : 1;  // numbers sort before strings
  if (!lnum) {
    const int c = str_.compare(other.str_);
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  // Both numeric. Compare exactly when both integral.
  const bool li = type_ != TypeId::kDouble, ri = other.type_ != TypeId::kDouble;
  if (li && ri) {
    if (i64_ < other.i64_) return -1;
    return i64_ > other.i64_ ? 1 : 0;
  }
  const double a = AsDouble(), b = other.AsDouble();
  if (a < b) return -1;
  return a > b ? 1 : 0;
}

uint64_t HashOfDouble(double v) {
  int64_t as_int = 0;
  if (DoubleAsInt64(v, &as_int)) {
    return HashOfInt64(as_int);
  }
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return HashMix64(bits);
}

uint64_t HashOfStringBytes(const char* data, size_t len) {
  uint64_t h = 1469598103934665603ULL;
  for (size_t i = 0; i < len; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ULL;
  }
  return HashMix64(h);
}

uint64_t Value::Hash() const {
  switch (type_) {
    case TypeId::kNull:
      return HashOfNull();
    case TypeId::kInt64:
    case TypeId::kDate:
      return HashOfInt64(i64_);
    case TypeId::kDouble:
      return HashOfDouble(f64_);
    case TypeId::kString:
      return HashOfStringBytes(str_.data(), str_.size());
  }
  return 0;
}

std::string Value::ToString() const {
  char buf[64];
  switch (type_) {
    case TypeId::kNull:
      return "NULL";
    case TypeId::kInt64:
      std::snprintf(buf, sizeof(buf), "%" PRId64, i64_);
      return buf;
    case TypeId::kDouble:
      std::snprintf(buf, sizeof(buf), "%.6g", f64_);
      return buf;
    case TypeId::kDate: {
      int64_t y;
      unsigned m, d;
      CivilFromDays(i64_, &y, &m, &d);
      std::snprintf(buf, sizeof(buf), "%04" PRId64 "-%02u-%02u", y, m, d);
      return buf;
    }
    case TypeId::kString:
      return str_;
  }
  return "?";
}

}  // namespace pushsip
