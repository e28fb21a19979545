// Transport framing: the length-prefixed message layer a TCP connection
// carries. One connection multiplexes every exchange channel between a site
// pair plus the control plane (handshake, credits, AIP filter shipments):
//
//   [u32 frame_len LE] [u8 kind] [u32 channel_id LE] [payload ...]
//
// frame_len counts everything after itself (kind + channel + payload), so
// a reader needs 4 bytes to know the frame size and frame_len + 4 bytes to
// decode — partial reads simply wait for more. kData payloads are wire-v2
// BatchFrame encodings (WireStreamEncoder frames), passed through opaquely.
//
// The decoder is incremental and hostile-input-safe: arbitrary split or
// coalesced TCP segments reassemble exactly; truncation waits; corrupt
// lengths or kinds poison the decoder with an error status (the connection
// is torn down) — it never crashes, over-reads, or allocates more than
// max_frame_bytes for one frame.
#ifndef PUSHSIP_NET_TRANSPORT_FRAME_CODEC_H_
#define PUSHSIP_NET_TRANSPORT_FRAME_CODEC_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace pushsip {

/// What a transport frame carries.
enum class TransportMsgKind : uint8_t {
  kHello = 1,   ///< handshake: magic, protocol, site id, credit window
  kData = 2,    ///< one serialized BatchFrame for `channel`
  kFinish = 3,  ///< one sender's end-of-stream for `channel`
  kCredit = 4,  ///< receiver grants `payload` (u32 LE) credits on `channel`
  kFilter = 5,  ///< AIP shipment: label + FilterMessage (channel unused)
};

struct TransportMsg {
  TransportMsgKind kind = TransportMsgKind::kData;
  uint32_t channel = 0;
  std::string payload;
};

/// Appends the frame encoding of `msg` to `out`.
void AppendTransportMsg(const TransportMsg& msg, std::string* out);
std::string EncodeTransportMsg(const TransportMsg& msg);

/// The 9-byte frame header (length prefix + kind + channel) for a payload
/// of `payload_size` bytes. Lets a sender gather-write header and payload
/// (writev) instead of concatenating them into a fresh buffer.
std::string EncodeTransportFrameHeader(TransportMsgKind kind,
                                       uint32_t channel, size_t payload_size);

/// \brief Incremental decoder: feed bytes as they arrive, pull messages out.
class TransportFrameDecoder {
 public:
  explicit TransportFrameDecoder(size_t max_frame_bytes = 64u << 20)
      : max_frame_bytes_(max_frame_bytes) {}

  /// Buffers `n` more wire bytes. Cheap to call with any split.
  void Feed(const char* data, size_t n);

  /// Decodes the next complete message into `out`. Returns true when a
  /// message was produced, false when more bytes are needed, and an error
  /// status on malformed input — after which the decoder is poisoned and
  /// every further call fails (the caller must drop the connection).
  Result<bool> Next(TransportMsg* out);

  size_t buffered_bytes() const { return buffer_.size() - consumed_; }

 private:
  const size_t max_frame_bytes_;
  std::string buffer_;
  size_t consumed_ = 0;  // decoded prefix, compacted lazily
  Status poisoned_ = Status::OK();
};

// --- hello payload ---------------------------------------------------------

/// The one hello layout this build speaks: 16 bytes of [u32 magic]
/// [u32 protocol][i32 site][u32 window]. Protocol 1 was the 17-byte layout
/// that also carried a wire-version bitmask; DecodeHello rejects it.
constexpr uint32_t kTransportProtocol = 2;

/// Handshake message, sent first (and answered in kind) on every new
/// connection; EncodeHello stamps kTransportProtocol. `window` is the
/// per-channel credit window the *sender of the hello* grants as a
/// receiver.
struct TransportHello {
  int32_t site = -1;
  uint32_t window = 0;
};

std::string EncodeHello(const TransportHello& hello);
Result<TransportHello> DecodeHello(const std::string& payload);

/// Payload helpers for kCredit frames.
std::string EncodeCredit(uint32_t credits);
Result<uint32_t> DecodeCredit(const std::string& payload);

}  // namespace pushsip

#endif  // PUSHSIP_NET_TRANSPORT_FRAME_CODEC_H_
