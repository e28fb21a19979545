// EventLoop: a minimal epoll-based reactor owning one background thread.
//
// The TCP transport uses one loop per process-side transport: the loop
// thread multiplexes reads (accepted connections, the listen socket) while
// writes happen synchronously on the sending threads — mirroring the
// SimLink model where the producer owes the transfer time, not the receiver.
//
// Callbacks run on the loop thread only. Watch/Unwatch/Post are
// thread-safe; Unwatch guarantees the callback is not *entered* afterwards
// but an already-running invocation may complete concurrently, so callers
// keep their callback state alive (shared_ptr capture) until Stop().
#ifndef PUSHSIP_UTIL_EVENT_LOOP_H_
#define PUSHSIP_UTIL_EVENT_LOOP_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace pushsip {

class EventLoop {
 public:
  /// Invoked with the epoll event mask (EPOLLIN/EPOLLHUP/...).
  using FdCallback = std::function<void(uint32_t events)>;

  EventLoop() = default;
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Creates the epoll/eventfd pair and spawns the loop thread. Idempotent.
  Status Start();

  /// Stops and joins the loop thread; pending posted tasks are dropped.
  /// Watched fds are deregistered but not closed (the caller owns them).
  /// Safe to call repeatedly and without a prior Start().
  void Stop();

  /// Registers `fd` for level-triggered `events`; `cb` fires on the loop
  /// thread. One callback per fd — re-watching an fd replaces it.
  Status Watch(int fd, uint32_t events, FdCallback cb);

  /// Deregisters `fd`. No-op if it was never watched.
  void Unwatch(int fd);

  /// Runs `fn` on the loop thread soon. Dropped if the loop is stopped.
  void Post(std::function<void()> fn);

  bool running() const { return running_.load(); }

  /// True iff the caller *is* the loop thread (deadlock guards in callers).
  bool IsLoopThread() const {
    return running_.load() && std::this_thread::get_id() == thread_.get_id();
  }

 private:
  void Run();

  std::atomic<bool> running_{false};
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: Post()/Stop() nudge the epoll_wait
  std::thread thread_;

  std::mutex mu_;
  // shared_ptr so a callback being dispatched survives a concurrent
  // Unwatch of its fd.
  std::unordered_map<int, std::shared_ptr<FdCallback>> callbacks_;
  std::vector<std::function<void()>> posted_;
};

}  // namespace pushsip

#endif  // PUSHSIP_UTIL_EVENT_LOOP_H_
