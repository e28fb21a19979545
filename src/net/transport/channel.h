// ExchangeChannel: the bounded MPSC queue of serialized batches feeding one
// ExchangeReceiver. It lives in net/transport (below dist/) because it is
// the delivery surface both transport backends share: local senders enqueue
// through SendBatch (blocking on the frame/byte caps — backpressure), and a
// network transport delivers remote frames through ForcePush, whose
// admission is governed by the credit window instead (the receiver granted
// the sender credits before those bytes ever crossed the wire, so the queue
// stays bounded by window size without blocking the loop thread).
//
// The drain hook closes the credit loop: each dequeue of a ForcePushed
// frame reports the frame's origin token back to the transport, which
// accumulates and grants credits to that sender.
#ifndef PUSHSIP_NET_TRANSPORT_CHANNEL_H_
#define PUSHSIP_NET_TRANSPORT_CHANNEL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <set>
#include <string>

namespace pushsip {

/// \brief A bounded MPSC queue of serialized batches feeding one receiver.
///
/// Senders block for queue capacity (backpressure); the simulated links are
/// charged by the senders before enqueueing, since each producing site
/// reaches the channel over its own link.
class ExchangeChannel {
 public:
  /// `capacity` caps queued frames, `max_bytes` caps queued payload bytes;
  /// SendBatch blocks on whichever is hit first (a single frame larger
  /// than `max_bytes` is still admitted when the queue is empty, so
  /// oversized batches stall rather than deadlock).
  explicit ExchangeChannel(size_t capacity = 64,
                           size_t max_bytes = kDefaultMaxBytes)
      : capacity_(capacity == 0 ? 1 : capacity),
        max_bytes_(max_bytes == 0 ? 1 : max_bytes) {}

  static constexpr size_t kDefaultMaxBytes = 16u << 20;  // 16 MiB

  /// Declares how many ExchangeSenders feed this channel; the receiver sees
  /// end-of-stream after that many SendFinish calls. Must be set before the
  /// query runs.
  void set_num_senders(int n) { num_senders_ = n; }
  int num_senders() const { return num_senders_; }

  /// The site hosting this channel's receiver — recorded at assembly so a
  /// multi-process runtime can tell local edges (direct enqueue) from
  /// remote ones (transport). -1 = unassigned (single-process queries
  /// never consult it).
  void set_consumer_site(int site) { consumer_site_ = site; }
  int consumer_site() const { return consumer_site_; }

  /// Hands out the next per-channel sender slot; ExchangeSender calls this
  /// once per destination so concurrent streams into one channel are
  /// distinguishable in the frame header.
  int AllocSenderSlot() { return next_slot_.fetch_add(1); }

  /// Enqueues one serialized batch, blocking while the queue is at its
  /// frame or byte cap. Returns false if the channel was cancelled while
  /// blocked. When `stalled_sec` is non-null it accumulates the seconds
  /// this call spent blocked on capacity (the sender-side flow-control
  /// stall signal).
  bool SendBatch(std::string bytes, double* stalled_sec = nullptr);

  /// Transport delivery path: enqueues without consulting the caps — the
  /// remote sender's credit window already bounds what can be in flight —
  /// and tags the frame with `token` (an opaque origin id) so the drain
  /// hook can grant that sender a credit when the frame is consumed.
  /// Returns false after cancellation. Never blocks.
  bool ForcePush(std::string bytes, uint64_t token);

  /// Installs the dequeue observer: called (outside the channel lock) with
  /// the token and payload size of every consumed frame whose token is
  /// non-zero. At most one hook; installing replaces.
  void SetDrainHook(std::function<void(uint64_t token, size_t bytes)> hook);

  /// Signals that the stream of sender `slot` (see AllocSenderSlot) is
  /// complete, whether the sender is in-process or its finish arrived over
  /// a transport. Idempotent per slot: a stateful recovery replays every
  /// producer of the failed fragment, including ones that had already
  /// finished, and their second finish must not end another consumer's
  /// stream before its remaining senders are done. DrainAndReopen forgets
  /// the finished slots.
  void SendFinish(int slot);

  /// Outcome of one bounded Receive call.
  enum class RecvStatus {
    kMessage,      ///< `bytes` holds the next message
    kEndOfStream,  ///< all senders finished and the queue is drained
    kTimeout,      ///< nothing arrived within the window
    kCancelled,    ///< the channel was cancelled
  };

  /// Dequeues the next message into `bytes`, waiting at most `timeout`.
  RecvStatus Receive(std::string* bytes, std::chrono::milliseconds timeout);

  /// Unbounded variant kept for direct channel users: true iff a message
  /// was dequeued; false at end of stream or after cancellation.
  bool Receive(std::string* bytes);

  /// Unblocks all senders and receivers; subsequent operations fail fast.
  void Cancel();

  /// Marks the consumer side complete: the receiver drained the stream and
  /// emitted its finish. Later sends are silently discarded (their credit
  /// tokens are drained immediately) instead of filling the bounded queue —
  /// a stateful-fragment recovery replays *every* producer, including those
  /// feeding consumers that already finished, and must not deadlock on
  /// their abandoned channels.
  void CloseConsumed();

  /// Rearms the channel for a stateful-fragment restore: discards every
  /// queued frame (draining their credit tokens), clears the finish count
  /// and the consumed mark. The restored receiver starts from its
  /// checkpointed high-waters and every producer is relaunched, so anything
  /// queued is either a pre-checkpoint duplicate or will be re-sent at the
  /// producers' next epoch.
  void DrainAndReopen();

  int64_t messages_sent() const { return messages_sent_.load(); }
  int64_t payload_bytes() const { return payload_bytes_.load(); }
  /// Instantaneous queue depth (tests: the backpressure invariant).
  size_t queued_frames() const;
  size_t queued_bytes() const;

 private:
  struct Item {
    std::string bytes;
    uint64_t token = 0;
  };

  bool PushLocked(std::string bytes, uint64_t token);

  const size_t capacity_;
  const size_t max_bytes_;
  int num_senders_ = 1;
  int consumer_site_ = -1;

  mutable std::mutex mu_;
  std::condition_variable can_send_;
  std::condition_variable can_recv_;
  std::deque<Item> queue_;
  size_t queue_bytes_ = 0;
  std::function<void(uint64_t, size_t)> drain_hook_;
  std::set<int> finished_slots_;
  bool cancelled_ = false;
  bool consumed_ = false;
  std::atomic<int> next_slot_{0};
  std::atomic<int64_t> messages_sent_{0};
  std::atomic<int64_t> payload_bytes_{0};
};

}  // namespace pushsip

#endif  // PUSHSIP_NET_TRANSPORT_CHANNEL_H_
