// Exchange operators: the cut points of a fragmented plan. An
// ExchangeSender terminates a fragment, serializes every batch, and hands
// each frame to the ChannelSender its site's transport endpoint opened
// toward the consumer (a SimLink transmit plus enqueue, a real TCP
// connection, or a same-site loopback), which delivers it to the
// consumer's channel; the paired ExchangeReceiver is a source operator of
// the consuming fragment that deserializes and re-emits the stream on its
// own site's thread.
//
// Modes (Carnot/Exchange-style):
//   * kForward    — one channel, the whole stream (site-boundary cut)
//   * kBroadcast  — every batch to every channel (replicate small inputs)
//   * kHashPartition — rows routed by key hash (co-partitioned joins/aggs)
//
// Wire encoding. Each sender owns one WireStreamEncoder per outgoing
// stream (per destination, or one shared stream for broadcast), so
// low-cardinality string columns ship their dictionary entries once per
// stream instead of once per batch; the receiver's WireStreamDecoder keeps
// the matching per-(sender, column) dictionaries. Stream state is keyed by
// the frame epoch: a restart/migration bumps it, resetting both sides.
//
// Failure protocol. Every message is a BatchFrame tagged with
// (sender-slot, epoch, seq): the slot identifies the producing stream
// within its channel, the epoch counts the producing fragment's
// (re)starts, and the seq is strictly increasing per sender — for
// replayable fragments it is the scan's deterministic raw-row window
// index, so a restarted fragment re-produces every frame under its
// original seq. Receivers keep a per-sender high-water mark and discard
// any frame at or below it (duplicates replayed after a restart) as well
// as frames from a superseded epoch; gaps are legal (fully pruned
// windows are skipped). Receivers poll with a timeout instead of blocking
// forever, so a dead upstream fragment surfaces as kUnavailable — the
// signal the multi-site driver answers with a restart — rather than a
// hang.
#ifndef PUSHSIP_DIST_EXCHANGE_H_
#define PUSHSIP_DIST_EXCHANGE_H_

#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/scan.h"
#include "exec/source.h"
#include "net/transport/channel.h"
#include "net/transport/transport.h"
#include "net/wire_format.h"

namespace pushsip {

class FragmentCheckpointer;

/// Routing policy of an ExchangeSender.
enum class ExchangeMode {
  kForward,        ///< single channel
  kBroadcast,      ///< all channels get every batch
  kHashPartition,  ///< channel = hash(key columns) % num channels
};

const char* ExchangeModeName(ExchangeMode mode);

/// One outgoing edge of an ExchangeSender: the consumer's channel (which
/// hands out the sender's slot), its cluster-wide id, and the edge toward
/// it. OpenEdges opens the edge on the sending site's endpoint.
struct ExchangeDestination {
  std::shared_ptr<ExchangeChannel> channel;
  uint32_t channel_id = 0;
  std::shared_ptr<ChannelSender> edge = nullptr;
};

/// \brief Terminal operator of a producing fragment.
class ExchangeSender : public Operator {
 public:
  /// `hash_cols` index `schema`; required (non-empty) for kHashPartition.
  ExchangeSender(ExecContext* ctx, std::string name, Schema schema,
                 ExchangeMode mode, std::vector<int> hash_cols,
                 std::vector<ExchangeDestination> destinations);

  /// Stamps frame seqs with `scan`'s deterministic raw-row window index
  /// instead of a per-destination arrival counter. Required for a fragment
  /// to be restartable: only window seqs survive a replay unchanged. The
  /// scan must drive this sender synchronously (same fragment) and use
  /// ScanOptions::window_batches.
  void BindSeqSource(const TableScan* scan) { seq_source_ = scan; }
  const TableScan* seq_source() const { return seq_source_; }

  /// Opens every destination's edge on `endpoint`, the sending site's
  /// transport, toward the channel's recorded consumer site. The assembly
  /// opens them on the site's sim endpoint; WireTransport reopens them when
  /// it moves the site onto another. Call before the query runs.
  Status OpenEdges(Transport& endpoint);

  /// Advances the epoch and rewinds the arrival seq counters; part of the
  /// fragment-restart reset.
  void ResetForReplay() override;

  /// Takes over `prev`'s logical stream: same per-channel sender slots (so
  /// consumers apply their existing per-sender high-water marks to this
  /// sender's frames) at `prev`'s epoch + 1 (so leftovers of the superseded
  /// attempt are dropped exactly). The migration handshake: a fragment
  /// rebuilt on another site adopts the stream of the fragment it replaces.
  /// Both senders must have the same destination count, in the same order.
  void AdoptStream(const ExchangeSender& prev);

  ExchangeMode mode() const { return mode_; }
  /// Output-schema indexes the kHashPartition route hashes (else empty).
  const std::vector<int>& hash_cols() const { return hash_cols_; }
  uint32_t epoch() const { return epoch_.load(); }
  int64_t bytes_sent() const { return bytes_sent_.load(); }
  int64_t batches_sent() const { return batches_sent_.load(); }
  /// Rows sent to destination `i` (replays included) — the observed
  /// per-channel cardinality the adaptive runtime feeds back into consumer
  /// fragments' exchange estimates.
  int64_t rows_sent(size_t i) const { return rows_sent_[i].load(); }
  const std::vector<ExchangeDestination>& destinations() const {
    return destinations_;
  }

  /// Cumulative seconds this sender spent blocked on backpressure: its
  /// edges' queue-capacity waits and credit stalls.
  double stall_seconds() const override {
    double total = 0;
    for (const ExchangeDestination& dest : destinations_) {
      total += dest.edge->stall_seconds();
    }
    return total;
  }

  void AddProfileDetail(obs::OperatorProfile* profile) const override;

 protected:
  Status DoPush(int port, Batch&& batch) override;
  Status DoFinish(int port) override;

 private:
  /// One outgoing wire stream: the encoder plus the lock that keeps encode
  /// order equal to enqueue order (the cross-batch dictionary protocol
  /// requires in-order frames per stream). Forward and hash-partition
  /// senders run one stream per destination; broadcast runs one shared
  /// stream and stamps per-destination headers on its body.
  struct Stream {
    std::mutex mu;
    WireStreamEncoder encoder;
  };

  /// Serializes and transmits one frame. When `body` is non-null it is the
  /// batch payload already encoded by the shared broadcast stream
  /// (broadcast encodes once and stamps per-destination headers); otherwise
  /// the batch is encoded here under the destination stream's lock.
  Status Send(size_t dest_index, const Batch& batch,
              const std::string* body = nullptr);
  /// Sends the bytes over the destination's edge (which bills its link)
  /// and bumps the send-side counters.
  Status TransmitFrame(size_t dest_index, std::string bytes, size_t rows);
  /// Epoch transitions: drops every stream's dictionary state and rewinds
  /// the edges (the new epoch's frames replay the stream).
  void ResetStreams();

  ExchangeMode mode_;
  std::vector<int> hash_cols_;
  std::vector<ExchangeDestination> destinations_;
  std::vector<int> sender_slots_;  // per destination
  /// One stream per destination (forward / hash-partition modes), or the
  /// single shared stream of broadcast mode, whose mutex also orders the
  /// whole encode-and-fan-out section.
  std::vector<std::unique_ptr<Stream>> streams_;
  /// Per-destination arrival counters for non-bound senders. Atomic:
  /// compute fragments push into their terminal sender from several
  /// receiver threads at once. These seqs are informational only — the
  /// frames carry replayable=false, so receivers never dedup on them
  /// (arrival order past the counter is not enqueue order).
  std::vector<std::atomic<uint64_t>> arrival_seq_;
  std::vector<std::atomic<int64_t>> rows_sent_;  // per destination
  const TableScan* seq_source_ = nullptr;
  std::atomic<uint32_t> epoch_{0};
  std::atomic<int64_t> bytes_sent_{0};
  std::atomic<int64_t> batches_sent_{0};
};

/// Liveness/teardown knobs of an ExchangeReceiver.
struct ReceiverOptions {
  /// Give up with kUnavailable after this long without any message — the
  /// heartbeat that turns a silently dead upstream into a detectable
  /// failure. Must comfortably exceed the slowest legitimate inter-batch
  /// gap *including* a full fragment restart + replay. 0 disables; the
  /// default (negative) inherits ExecContext::exchange_idle_timeout_sec,
  /// so one per-query knob tunes every receiver (slow-site tests shorten
  /// it without changing production defaults).
  double idle_timeout_sec = -1.0;
  /// Wake-up cadence while waiting; also bounds teardown latency.
  int poll_ms = 25;
  /// Buffer every accepted frame and emit the whole stream sorted by
  /// (sender slot, seq) at end-of-stream. Arrival interleave across
  /// senders is scheduler- (and network-) dependent; the sorted order is
  /// not, so a query whose receivers all merge deterministically produces
  /// bit-identical output across backends — what the sim-vs-TCP parity
  /// check asserts. Costs the stream's full buffering; off by default.
  bool ordered_merge = false;
  /// Chaos knob: after this many accepted frames the receiver fails once
  /// with kUnavailable, dropping the triggering frame exactly as a site
  /// crash mid-stream would — the deterministic way to kill a stateful
  /// consumer fragment mid-join-build on either transport. Fires at most
  /// once per receiver (a recovered attempt runs clean). 0 disables.
  int64_t fail_after_frames = 0;
};

/// \brief Source operator of a consuming fragment: drains one channel,
/// discarding duplicate/stale frames per the failure protocol above.
class ExchangeReceiver : public SourceOperator {
 public:
  ExchangeReceiver(ExecContext* ctx, std::string name, Schema schema,
                   std::shared_ptr<ExchangeChannel> channel,
                   ReceiverOptions options = {})
      : SourceOperator(ctx, std::move(name), std::move(schema)),
        channel_(std::move(channel)),
        options_(options) {}

  /// Dequeues, deduplicates, deserializes, and pushes batches until end of
  /// stream, a timeout, or cancellation.
  Status Run() override;

  const ReceiverOptions& options() const { return options_; }
  /// Sets ReceiverOptions::fail_after_frames on a built receiver (chaos
  /// arming of one site's copy of a fragment); call before the query runs.
  void ArmFailAfterFrames(int64_t frames) {
    options_.fail_after_frames = frames;
  }

  /// Registers this receiver with its fragment's checkpointer. Frame
  /// incorporation (dedup bookkeeping + emit/hold) then runs under the
  /// checkpointer's shared lock, so an exclusive checkpoint observes a
  /// consistent cut: every accepted frame's effect is either fully inside
  /// the snapshot (progress, held frames, downstream operator state) or
  /// fully outside it.
  void SetCheckpointer(FragmentCheckpointer* cp) { checkpointer_ = cp; }

  /// Serializes this receiver's replay state — the per-sender progress map
  /// plus any held (ordered-merge) frames, each batch as a standalone wire
  /// frame — into `out`. Caller must hold the checkpoint cut (exclusive
  /// lock); the receiver thread is parked on LockShared at that moment.
  Status SnapshotReplayState(std::string* out) const;

  /// Restores progress/held state from a SnapshotReplayState blob. Each
  /// sender's epoch floor is the recorded epoch + 1: every producer is
  /// relaunched at a fresh epoch during recovery, and anything still in
  /// flight from the superseded epoch must be dropped, not deduped by seq.
  /// Also arms decode-error tolerance: frames cut mid-stream by the restore
  /// may reference dictionary state the fresh decoder never saw, and are
  /// discarded (the producer re-sends at its new epoch). Call only while
  /// the receiver is not running.
  Status RestoreReplayState(const std::string& blob);

  /// Drops progress/held/decoder state for a from-scratch replay with no
  /// checkpoint (the pre-existing stateless recovery path).
  void ClearReplayState();

  /// Frames accepted and emitted downstream.
  int64_t batches_received() const { return batches_received_.load(); }
  /// Frames dropped as duplicates (replay of an already-passed seq) or as
  /// leftovers of a superseded epoch.
  int64_t batches_discarded() const { return batches_discarded_.load(); }
  /// Cumulative seconds Run spent waiting for a frame, as measured (a wait
  /// that ends with a frame counts too) — a starving receiver points at a
  /// slow or dead upstream site.
  double stall_seconds() const override {
    return static_cast<double>(stall_micros_.load()) / 1e6;
  }

  void AddProfileDetail(obs::OperatorProfile* profile) const override;

 private:
  /// Replay high-water mark of one sender slot.
  struct SenderProgress {
    uint32_t epoch = 0;
    int64_t high_water = -1;
  };
  /// One buffered frame of an ordered_merge receiver.
  struct HeldFrame {
    uint32_t sender = 0;
    uint64_t seq = 0;
    Batch batch;
  };

  std::shared_ptr<ExchangeChannel> channel_;
  ReceiverOptions options_;
  /// Stream-dictionary decode state, per sender slot. Run() is the only
  /// caller (one thread per receiver), matching the decoder's contract.
  WireStreamDecoder decoder_;
  std::unordered_map<uint32_t, SenderProgress> progress_;
  /// Ordered-merge hold buffer. A member (not a Run() local) so a
  /// checkpoint can capture it and a restore can rebuild it: for a
  /// det-merge receiver the held frames *are* the in-flight state that a
  /// mid-stream cut must preserve.
  std::vector<HeldFrame> held_;
  /// Fragment checkpoint coordinator; null when the fragment is not
  /// checkpointed.
  FragmentCheckpointer* checkpointer_ = nullptr;
  /// Set by RestoreReplayState: tolerate (discard + count) decode errors
  /// from frames of superseded epochs still in the transport pipeline.
  bool restored_ = false;
  /// Latch for ReceiverOptions::fail_after_frames — survives
  /// ResetForReplay-less restarts so the chaos kill fires exactly once.
  bool chaos_fired_ = false;
  std::atomic<int64_t> batches_received_{0};
  std::atomic<int64_t> batches_discarded_{0};
  std::atomic<int64_t> stall_micros_{0};
};

}  // namespace pushsip

#endif  // PUSHSIP_DIST_EXCHANGE_H_
