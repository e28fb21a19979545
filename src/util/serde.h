// Tiny fixed-width little-endian encode/decode helpers for operator
// checkpoint metadata, the fragment-checkpoint container format, and the
// multi-process site report. These blobs never cross a version boundary
// (each is consumed by the build that wrote it), so fixed-width fields beat
// varints for simplicity; bounds are still checked on every read so a
// corrupt blob fails instead of crashing.
#ifndef PUSHSIP_UTIL_SERDE_H_
#define PUSHSIP_UTIL_SERDE_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "common/status.h"

namespace pushsip {
namespace serde {

inline void AppendU8(uint8_t v, std::string* out) {
  out->push_back(static_cast<char>(v));
}

inline void AppendU32(uint32_t v, std::string* out) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

inline void AppendU64(uint64_t v, std::string* out) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

inline void AppendI64(int64_t v, std::string* out) {
  AppendU64(static_cast<uint64_t>(v), out);
}

inline void AppendF64(double v, std::string* out) {
  uint64_t bits;
  std::memcpy(&bits, &v, 8);
  AppendU64(bits, out);
}

inline void AppendBytes(const std::string& bytes, std::string* out) {
  AppendU64(bytes.size(), out);
  out->append(bytes);
}

/// Bounds-checked sequential reader over one encoded blob.
class Reader {
 public:
  explicit Reader(const std::string& bytes) : bytes_(bytes) {}

  Status ReadU8(uint8_t* v) {
    if (pos_ + 1 > bytes_.size()) return Truncated();
    *v = static_cast<uint8_t>(bytes_[pos_++]);
    return Status::OK();
  }
  Status ReadU32(uint32_t* v) {
    if (pos_ + 4 > bytes_.size()) return Truncated();
    std::memcpy(v, bytes_.data() + pos_, 4);
    pos_ += 4;
    return Status::OK();
  }
  Status ReadU64(uint64_t* v) {
    if (pos_ + 8 > bytes_.size()) return Truncated();
    std::memcpy(v, bytes_.data() + pos_, 8);
    pos_ += 8;
    return Status::OK();
  }
  Status ReadI64(int64_t* v) {
    uint64_t u = 0;
    PUSHSIP_RETURN_NOT_OK(ReadU64(&u));
    *v = static_cast<int64_t>(u);
    return Status::OK();
  }
  Status ReadF64(double* v) {
    uint64_t bits = 0;
    PUSHSIP_RETURN_NOT_OK(ReadU64(&bits));
    std::memcpy(v, &bits, 8);
    return Status::OK();
  }
  Status ReadBytes(std::string* out) {
    uint64_t n = 0;
    PUSHSIP_RETURN_NOT_OK(ReadU64(&n));
    // pos_ <= size always holds, so this cannot wrap for a huge n.
    if (n > bytes_.size() - pos_) return Truncated();
    out->assign(bytes_.data() + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  bool AtEnd() const { return pos_ == bytes_.size(); }

 private:
  Status Truncated() const {
    return Status::IOError("serde: truncated blob");
  }

  const std::string& bytes_;
  size_t pos_ = 0;
};

}  // namespace serde
}  // namespace pushsip

#endif  // PUSHSIP_UTIL_SERDE_H_
