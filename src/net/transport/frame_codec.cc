#include "net/transport/frame_codec.h"

#include <cstring>

namespace pushsip {

namespace {

constexpr uint32_t kHelloMagic = 0x50534950;  // "PSIP"
constexpr size_t kHeaderAfterLen = 1 + 4;     // kind + channel

void AppendU32(uint32_t v, std::string* out) {
  char b[4];
  b[0] = static_cast<char>(v & 0xff);
  b[1] = static_cast<char>((v >> 8) & 0xff);
  b[2] = static_cast<char>((v >> 16) & 0xff);
  b[3] = static_cast<char>((v >> 24) & 0xff);
  out->append(b, 4);
}

uint32_t ReadU32(const char* p) {
  return static_cast<uint32_t>(static_cast<uint8_t>(p[0])) |
         static_cast<uint32_t>(static_cast<uint8_t>(p[1])) << 8 |
         static_cast<uint32_t>(static_cast<uint8_t>(p[2])) << 16 |
         static_cast<uint32_t>(static_cast<uint8_t>(p[3])) << 24;
}

bool ValidKind(uint8_t k) {
  return k >= static_cast<uint8_t>(TransportMsgKind::kHello) &&
         k <= static_cast<uint8_t>(TransportMsgKind::kFilter);
}

}  // namespace

void AppendTransportMsg(const TransportMsg& msg, std::string* out) {
  const uint32_t len =
      static_cast<uint32_t>(kHeaderAfterLen + msg.payload.size());
  out->reserve(out->size() + 4 + len);
  AppendU32(len, out);
  out->push_back(static_cast<char>(msg.kind));
  AppendU32(msg.channel, out);
  out->append(msg.payload);
}

std::string EncodeTransportFrameHeader(TransportMsgKind kind,
                                       uint32_t channel,
                                       size_t payload_size) {
  std::string out;
  out.reserve(4 + kHeaderAfterLen);
  AppendU32(static_cast<uint32_t>(kHeaderAfterLen + payload_size), &out);
  out.push_back(static_cast<char>(kind));
  AppendU32(channel, &out);
  return out;
}

std::string EncodeTransportMsg(const TransportMsg& msg) {
  std::string out;
  AppendTransportMsg(msg, &out);
  return out;
}

void TransportFrameDecoder::Feed(const char* data, size_t n) {
  // Compact the decoded prefix before growing — keeps the buffer bounded
  // by one frame plus one read's worth of bytes.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(data, n);
}

Result<bool> TransportFrameDecoder::Next(TransportMsg* out) {
  if (!poisoned_.ok()) return poisoned_;
  const size_t avail = buffer_.size() - consumed_;
  if (avail < 4) return false;
  const char* base = buffer_.data() + consumed_;
  const uint32_t len = ReadU32(base);
  if (len < kHeaderAfterLen || len > max_frame_bytes_) {
    poisoned_ = Status::InvalidArgument(
        "transport frame: bad length " + std::to_string(len));
    return poisoned_;
  }
  if (avail < 4 + static_cast<size_t>(len)) return false;  // partial frame
  const uint8_t kind = static_cast<uint8_t>(base[4]);
  if (!ValidKind(kind)) {
    poisoned_ = Status::InvalidArgument(
        "transport frame: unknown kind " + std::to_string(kind));
    return poisoned_;
  }
  out->kind = static_cast<TransportMsgKind>(kind);
  out->channel = ReadU32(base + 5);
  out->payload.assign(base + 4 + kHeaderAfterLen, len - kHeaderAfterLen);
  consumed_ += 4 + static_cast<size_t>(len);
  return true;
}

std::string EncodeHello(const TransportHello& hello) {
  std::string out;
  AppendU32(kHelloMagic, &out);
  AppendU32(kTransportProtocol, &out);
  AppendU32(static_cast<uint32_t>(hello.site), &out);
  AppendU32(hello.window, &out);
  return out;
}

Result<TransportHello> DecodeHello(const std::string& payload) {
  if (payload.size() != 16) {
    return Status::InvalidArgument("hello: bad size " +
                                   std::to_string(payload.size()));
  }
  const char* p = payload.data();
  if (ReadU32(p) != kHelloMagic) {
    return Status::InvalidArgument("hello: bad magic");
  }
  const uint32_t protocol = ReadU32(p + 4);
  if (protocol != kTransportProtocol) {
    return Status::InvalidArgument("hello: unsupported protocol " +
                                   std::to_string(protocol));
  }
  TransportHello hello;
  hello.site = static_cast<int32_t>(ReadU32(p + 8));
  hello.window = ReadU32(p + 12);
  if (hello.site < 0) return Status::InvalidArgument("hello: bad site");
  return hello;
}

std::string EncodeCredit(uint32_t credits) {
  std::string out;
  AppendU32(credits, &out);
  return out;
}

Result<uint32_t> DecodeCredit(const std::string& payload) {
  if (payload.size() != 4) {
    return Status::InvalidArgument("credit: bad size");
  }
  return ReadU32(payload.data());
}

std::string EncodeFinish(int slot) {
  std::string out;
  auto v = static_cast<uint32_t>(slot);
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
  return out;
}

Result<int> DecodeFinish(const std::string& payload) {
  uint64_t slot = 0;
  for (size_t i = 0; i < payload.size() && i < 5; ++i) {
    const auto byte = static_cast<uint8_t>(payload[i]);
    slot |= static_cast<uint64_t>(byte & 0x7f) << (7 * i);
    if ((byte & 0x80) != 0) continue;
    if (i + 1 != payload.size()) {
      return Status::InvalidArgument("finish: trailing bytes");
    }
    if (slot > static_cast<uint64_t>(INT32_MAX)) {
      return Status::InvalidArgument("finish: slot out of range");
    }
    return static_cast<int>(slot);
  }
  return Status::InvalidArgument(payload.size() < 5
                                     ? "finish: missing or truncated slot"
                                     : "finish: slot out of range");
}

}  // namespace pushsip
