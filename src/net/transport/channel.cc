#include "net/transport/channel.h"

#include "util/stopwatch.h"

namespace pushsip {

bool ExchangeChannel::PushLocked(std::string bytes, uint64_t token) {
  const int64_t payload = static_cast<int64_t>(bytes.size());
  queue_bytes_ += bytes.size();
  queue_.push_back(Item{std::move(bytes), token});
  messages_sent_.fetch_add(1);
  payload_bytes_.fetch_add(payload);
  can_recv_.notify_one();
  return true;
}

bool ExchangeChannel::SendBatch(std::string bytes, double* stalled_sec) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto admissible = [this] {
    return consumed_ || queue_.empty() ||
           (queue_.size() < capacity_ && queue_bytes_ < max_bytes_);
  };
  if (!cancelled_ && !admissible()) {
    Stopwatch stall;
    can_send_.wait(lock, [&] { return cancelled_ || admissible(); });
    if (stalled_sec != nullptr) *stalled_sec += stall.ElapsedSeconds();
  }
  if (cancelled_) return false;
  // Consumer already finished: the frame can never be read, so drop it
  // (reporting success — the sender is a replaying producer whose other,
  // still-live consumers are the reason it is running at all).
  if (consumed_) return true;
  return PushLocked(std::move(bytes), /*token=*/0);
}

bool ExchangeChannel::ForcePush(std::string bytes, uint64_t token) {
  uint64_t drop_token = 0;
  size_t drop_size = 0;
  std::function<void(uint64_t, size_t)> hook;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (cancelled_) return false;
    if (consumed_) {
      // Dropped on the floor, but the remote sender's credit must still
      // come back or its window starves: drain the token immediately.
      drop_token = token;
      drop_size = bytes.size();
      if (token != 0) hook = drain_hook_;
    } else {
      return PushLocked(std::move(bytes), token);
    }
  }
  if (hook != nullptr) hook(drop_token, drop_size);
  return true;
}

void ExchangeChannel::SetDrainHook(
    std::function<void(uint64_t, size_t)> hook) {
  std::lock_guard<std::mutex> lock(mu_);
  drain_hook_ = std::move(hook);
}

void ExchangeChannel::SendFinish(int slot) {
  std::lock_guard<std::mutex> lock(mu_);
  finished_slots_.insert(slot);
  can_recv_.notify_all();
}

ExchangeChannel::RecvStatus ExchangeChannel::Receive(
    std::string* bytes, std::chrono::milliseconds timeout) {
  uint64_t token = 0;
  size_t size = 0;
  std::function<void(uint64_t, size_t)> hook;
  {
    std::unique_lock<std::mutex> lock(mu_);
    const bool ready = can_recv_.wait_for(lock, timeout, [this] {
      return cancelled_ || !queue_.empty() ||
             finished_slots_.size() >= static_cast<size_t>(num_senders_);
    });
    if (!ready) return RecvStatus::kTimeout;
    if (cancelled_) return RecvStatus::kCancelled;
    if (queue_.empty()) return RecvStatus::kEndOfStream;
    Item& front = queue_.front();
    *bytes = std::move(front.bytes);
    token = front.token;
    size = bytes->size();
    queue_bytes_ -= size;
    queue_.pop_front();
    can_send_.notify_one();
    if (token != 0) hook = drain_hook_;
  }
  // The hook runs outside the lock: it typically takes the transport's
  // mutex (and may write a credit frame to a socket), and lock nesting the
  // other way around would invert with ForcePush.
  if (hook != nullptr) hook(token, size);
  return RecvStatus::kMessage;
}

bool ExchangeChannel::Receive(std::string* bytes) {
  while (true) {
    const RecvStatus r = Receive(bytes, std::chrono::milliseconds(100));
    if (r == RecvStatus::kTimeout) continue;
    return r == RecvStatus::kMessage;
  }
}

void ExchangeChannel::CloseConsumed() {
  std::lock_guard<std::mutex> lock(mu_);
  consumed_ = true;
  // Anyone blocked on capacity can proceed (and have its frame discarded).
  can_send_.notify_all();
}

void ExchangeChannel::DrainAndReopen() {
  std::deque<Item> dropped;
  std::function<void(uint64_t, size_t)> hook;
  {
    std::lock_guard<std::mutex> lock(mu_);
    dropped.swap(queue_);
    queue_bytes_ = 0;
    finished_slots_.clear();
    consumed_ = false;
    hook = drain_hook_;
    can_send_.notify_all();
  }
  // Credit tokens of transport-delivered frames are drained outside the
  // lock, exactly as a normal consume would.
  if (hook != nullptr) {
    for (const Item& item : dropped) {
      if (item.token != 0) hook(item.token, item.bytes.size());
    }
  }
}

void ExchangeChannel::Cancel() {
  std::lock_guard<std::mutex> lock(mu_);
  cancelled_ = true;
  can_send_.notify_all();
  can_recv_.notify_all();
}

size_t ExchangeChannel::queued_frames() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

size_t ExchangeChannel::queued_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_bytes_;
}

}  // namespace pushsip
