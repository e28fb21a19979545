// Wire format for cross-site dataflow: Batches (exchange operators) and
// Bloom-filter messages (cross-site AIP shipping) are serialized to byte
// strings, moved across a SimLink or a TCP connection, and deserialized at
// the receiving site.
//
// Every message starts with a one-byte tag plus a version byte (always 4)
// so a receiver can reject garbage, or bytes of another encoding, instead
// of crashing. Sizes reported by the serializers are what the link is
// charged — the same bytes a real socket carries.
//
// There is one batch encoding, column-major: a body is the row count, the
// column count, then one type tag per column, a null bitmap only when the
// column has NULLs, and the column's values, with dictionary encoding for
// low-cardinality string columns. Since the in-memory Batch is itself
// columnar and every column holds one type, encode/decode walks each
// column's typed vector directly, with no per-row values; there is no
// self-describing per-value layout, so a decoder parses only typed
// columns.
//
// Every integer-like payload — INT64 and DATE values, the mantissas of
// decimal DOUBLE columns, per-batch and stream dictionary codes — goes
// through one integer kernel. Per column and batch it ships the non-NULL
// values either frame-of-reference bit-packed (the minimum, then each
// value minus it in w <= 56 bits; w = 0 when every value is equal costs
// O(1) bytes) or as varints (zigzagged when signed), whichever is smaller;
// one mode byte says which. A DOUBLE column ships as mantissas k at the
// smallest scale s in 0..4 for which every value v satisfies |v*10^s| <
// 2^53 and, with k = nearbyint(v*10^s), the bits of (s == 0 ? double(k) :
// double(k) / 10^s) equal v's — the decoder evaluates exactly that
// expression. Otherwise (any -0.0, NaN, infinity or inexact decimal) the
// column keeps 8 raw bytes per value.
//
// Batches have two entry points:
//   * Exchange frames: WireStreamEncoder/WireStreamDecoder pairs add
//     *cross-batch* string dictionaries — the encoder ships each distinct
//     string once per (stream, column) and later frames carry only
//     dictionary codes. Stream state is keyed by the frame's (sender,
//     epoch): a fragment restart or migration bumps the epoch, which
//     resets both sides. A fresh encoder's first frame is self-contained.
//     The frame header carries sender, epoch and seq as varints (7 bytes
//     for small values); a sender or epoch above UINT32_MAX is refused.
//   * Standalone batches: SerializeBatch/DeserializeBatch, where every
//     batch carries its own dictionary. Checkpoint snapshots, held-frame
//     snapshots and canonical answer bytes use this form.
#ifndef PUSHSIP_NET_WIRE_FORMAT_H_
#define PUSHSIP_NET_WIRE_FORMAT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/schema.h"
#include "common/tuple.h"
#include "util/bloom_filter.h"

namespace pushsip {

/// The wire version carried in every message header's version byte.
enum class WireFormatVersion : uint8_t {
  kColumnar = 4,  ///< column-major, bit-packed / varint + dictionary
};

/// Serializes a whole standalone batch (tag + version + payload).
/// `version` has one value; it stays so callers that name it (perfbench/
/// load.cc) keep compiling.
std::string SerializeBatch(
    const Batch& batch,
    WireFormatVersion version = WireFormatVersion::kColumnar);

/// Parses a standalone batch; fails on truncation, a bad tag or version,
/// or unknown value types.
Result<Batch> DeserializeBatch(const std::string& bytes);

/// One exchange message: a batch plus the provenance header the failure
/// protocol needs. `sender` identifies the producing stream within its
/// channel; `epoch` counts the producing fragment's (re)starts. When
/// `replayable` is set the producer is a restartable fragment: it is
/// single-threaded and `seq` is the deterministic position of the batch in
/// its stream (the scan's raw-row window index), strictly increasing but
/// not necessarily contiguous — fully pruned windows are skipped.
/// Receivers drop any replayable frame whose (epoch, seq) they have
/// already passed, which makes replay after a fragment restart exact.
/// Non-replayable producers (multi-threaded compute fragments) never
/// re-send, so their frames carry an informational arrival seq that takes
/// no part in deduplication.
struct BatchFrame {
  uint32_t sender = 0;
  uint32_t epoch = 0;
  uint64_t seq = 0;
  bool replayable = false;
  /// Set by WireStreamDecoder when the frame's epoch is older than the
  /// stream's current epoch: the body was skipped (its dictionary state is
  /// gone) and the receiver must discard the frame — which it would anyway,
  /// by the epoch dedup rule.
  bool stale = false;
  Batch batch;
};

/// Stamps a frame header in front of a body from
/// WireStreamEncoder::SerializeBody: a broadcast exchange encodes the batch
/// body once and sends it under a per-destination header.
std::string AssembleBatchFrame(uint32_t sender, uint32_t epoch, uint64_t seq,
                               bool replayable, const std::string& body);

/// \brief Stateful encoder for one exchange stream (one sender's frames
/// toward one destination, or one shared broadcast body).
///
/// String columns are re-interned into a per-column *stream dictionary*;
/// each frame ships only the entries first referenced by its rows (pruned
/// rows' strings never ship) and rows carry stream codes, so a distinct
/// string crosses the wire exactly once per stream. Not thread-safe: the
/// owner serializes encode+enqueue under its own lock (frame order on the
/// wire must match encode order, or decoder dictionaries desynchronize).
class WireStreamEncoder {
 public:
  WireStreamEncoder();
  ~WireStreamEncoder();  // out-of-line: ColState is private to the .cc

  /// Serializes a full frame (header + body) advancing the stream state.
  std::string SerializeFrame(uint32_t sender, uint32_t epoch, uint64_t seq,
                             bool replayable, const Batch& batch);
  /// Body-only variant for broadcast senders that stamp several headers in
  /// front of one encoded body (AssembleBatchFrame).
  std::string SerializeBody(const Batch& batch);

  /// Drops all stream dictionary state. Call when the stream's epoch bumps
  /// (fragment restart / migration): the decoder resets on the new epoch,
  /// so every dictionary entry must ship again.
  void Reset();

  /// Dictionary entries emitted, cumulative across Reset: the distinct
  /// strings of each epoch's stream.
  int64_t dict_entries_shipped() const { return dict_entries_shipped_; }

 private:
  struct ColState;

  void EncodeStringColumn(const Column& col, size_t col_index,
                          std::string* out);
  void AppendBody(const Batch& batch, std::string* out);

  std::vector<std::unique_ptr<ColState>> cols_;
  int64_t dict_entries_shipped_ = 0;
};

/// \brief Stateful decoder for the exchange frames of one receiver.
///
/// Keeps one shared StringDict per (sender, column); stream-encoded columns
/// install their shipped entries into it and decoded batches reference it
/// directly (code-copy, no string materialization). Epoch transitions:
/// a newer epoch resets the sender's dictionaries (the restarted sender's
/// encoder also starts empty); an older epoch marks the frame stale and
/// skips the body. Frames of one sender must be decoded in arrival order.
/// Not thread-safe.
class WireStreamDecoder {
 public:
  Result<BatchFrame> DecodeFrame(const std::string& bytes);

 private:
  struct SenderState {
    bool seen = false;
    uint32_t epoch = 0;
    std::vector<std::shared_ptr<StringDict>> dicts;
  };

  std::unordered_map<uint32_t, SenderState> senders_;
};

/// Serializes a Bloom filter: the dense bit-word array, or varint deltas
/// of the set bit positions whenever that is smaller (lightly filled
/// filters — the common case for AIP summaries sized from optimistic NDV
/// estimates — shrink several-fold).
std::string SerializeBloomFilter(const BloomFilter& filter);
Result<BloomFilter> DeserializeBloomFilter(const std::string& bytes);

/// An AIP set shipped to a remote fragment: the Bloom summary plus the
/// attribute it filters, so the receiving site can locate the scan column
/// to attach it to.
struct FilterMessage {
  AttrId attr = kInvalidAttr;
  BloomFilter filter{16};
};

std::string SerializeFilterMessage(AttrId attr, const BloomFilter& filter);
Result<FilterMessage> DeserializeFilterMessage(const std::string& bytes);

}  // namespace pushsip

#endif  // PUSHSIP_NET_WIRE_FORMAT_H_
