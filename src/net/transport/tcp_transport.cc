#include "net/transport/tcp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/stopwatch.h"

namespace pushsip {

namespace {

constexpr size_t kReadChunk = 64 * 1024;

Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IOError("fcntl(O_NONBLOCK) failed");
  }
  return Status::OK();
}

Result<sockaddr_in> ResolveAddr(const std::string& host, uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad IPv4 address: " + host);
  }
  return addr;
}

/// Blocking read of exactly `n` bytes (handshake only — the fd is still in
/// blocking mode with SO_RCVTIMEO armed).
Status ReadExactly(int fd, char* buf, size_t n) {
  size_t got = 0;
  while (got < n) {
    const ssize_t r = read(fd, buf + got, n - got);
    if (r == 0) return Status::Unavailable("peer closed during handshake");
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(std::string("handshake read failed: ") +
                                 std::strerror(errno));
    }
    got += static_cast<size_t>(r);
  }
  return Status::OK();
}

Status WriteAllBlocking(int fd, const char* buf, size_t n) {
  size_t put = 0;
  while (put < n) {
    const ssize_t w = send(fd, buf + put, n - put, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(std::string("handshake write failed: ") +
                                 std::strerror(errno));
    }
    put += static_cast<size_t>(w);
  }
  return Status::OK();
}

}  // namespace

TcpTransport::Conn::~Conn() {
  if (fd >= 0) close(fd);
}

void TcpTransport::Conn::MarkDown() {
  up.store(false);
  // Wakes any thread blocked reading or writing this socket; the fd itself
  // stays valid until the last shared_ptr goes away.
  shutdown(fd, SHUT_RDWR);
}

TcpTransport::TcpTransport(TcpTransportOptions options)
    : options_(std::move(options)),
      outbound_(static_cast<size_t>(options_.num_sites)),
      inbound_(static_cast<size_t>(options_.num_sites)),
      outbound_ever_(static_cast<size_t>(options_.num_sites), 0),
      peer_window_(static_cast<size_t>(options_.num_sites),
                   options_.credit_window) {}

TcpTransport::~TcpTransport() { Shutdown(); }

Status TcpTransport::Listen() {
  if (listen_fd_ >= 0) return Status::OK();
  PUSHSIP_ASSIGN_OR_RETURN(
      sockaddr_in addr,
      ResolveAddr(options_.listen_host, options_.listen_port));
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::IOError("socket() failed");
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    close(fd);
    return Status::IOError(std::string("bind failed: ") +
                           std::strerror(errno));
  }
  if (listen(fd, 64) < 0) {
    close(fd);
    return Status::IOError("listen failed");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    close(fd);
    return Status::IOError("getsockname failed");
  }
  listen_port_ = ntohs(bound.sin_port);
  PUSHSIP_RETURN_NOT_OK(SetNonBlocking(fd));
  PUSHSIP_RETURN_NOT_OK(loop_.Start());
  listen_fd_ = fd;
  return loop_.Watch(listen_fd_, EPOLLIN, [this](uint32_t) {
    for (;;) {
      const int cfd =
          accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (cfd < 0) return;  // EAGAIN or a transient error; epoll re-arms
      const int nd = 1;
      setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &nd, sizeof(nd));
      auto conn = std::make_shared<Conn>(options_.max_frame_bytes);
      conn->fd = cfd;
      {
        std::lock_guard<std::mutex> lock(mu_);
        pending_.push_back(conn);
      }
      Status st = loop_.Watch(
          cfd, EPOLLIN, [this, conn](uint32_t) { HandleReadable(conn); });
      if (!st.ok()) conn->MarkDown();
    }
  });
}

void TcpTransport::SetPeers(std::vector<TcpPeer> peers) {
  options_.peers = std::move(peers);
}

Status TcpTransport::Start() {
  PUSHSIP_RETURN_NOT_OK(Listen());
  if (started_.exchange(true)) return Status::OK();
  for (const TcpPeer& peer : options_.peers) {
    if (peer.site == options_.local_site) continue;
    PUSHSIP_RETURN_NOT_OK(DialPeer(peer));
  }
  return Status::OK();
}

Status TcpTransport::DialPeer(const TcpPeer& peer) {
  if (peer.site < 0 || peer.site >= options_.num_sites) {
    return Status::InvalidArgument("peer has an out-of-range site id");
  }
  PUSHSIP_ASSIGN_OR_RETURN(sockaddr_in addr, ResolveAddr(peer.host,
                                                         peer.port));
  Stopwatch budget;
  int fd = -1;
  for (;;) {
    if (shutdown_.load()) return Status::Cancelled("transport shut down");
    fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return Status::IOError("socket() failed");
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      break;
    }
    close(fd);
    fd = -1;
    if (budget.ElapsedSeconds() > options_.dial_timeout_sec) {
      return Status::Unavailable("site " + std::to_string(peer.site) +
                                 " unreachable at " + peer.host + ":" +
                                 std::to_string(peer.port));
    }
    // The peer may simply not be listening yet (all sites start
    // concurrently) — back off briefly and retry within the budget.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  const int nd = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nd, sizeof(nd));
  timeval tv{};
  tv.tv_sec = 5;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));

  // Synchronous hello exchange before the loop ever sees this fd.
  TransportHello mine;
  mine.site = options_.local_site;
  mine.window = options_.credit_window;
  TransportMsg hello_msg;
  hello_msg.kind = TransportMsgKind::kHello;
  hello_msg.payload = EncodeHello(mine);
  const std::string encoded = EncodeTransportMsg(hello_msg);
  Status st = WriteAllBlocking(fd, encoded.data(), encoded.size());
  TransportHello theirs;
  if (st.ok()) {
    // Read the reply frame: 4-byte length, then the body.
    char lenbuf[4];
    st = ReadExactly(fd, lenbuf, 4);
    if (st.ok()) {
      TransportFrameDecoder dec(options_.max_frame_bytes);
      dec.Feed(lenbuf, 4);
      uint32_t frame_len = 0;
      std::memcpy(&frame_len, lenbuf, 4);
      std::string body;
      if (frame_len < 5 || frame_len > 4096) {
        st = Status::Unavailable("handshake reply has a bad frame length");
      } else {
        body.resize(frame_len);
        st = ReadExactly(fd, body.data(), frame_len);
      }
      if (st.ok()) {
        dec.Feed(body.data(), body.size());
        TransportMsg reply;
        Result<bool> got = dec.Next(&reply);
        if (!got.ok() || !*got ||
            reply.kind != TransportMsgKind::kHello) {
          st = Status::Unavailable("handshake reply is not a hello");
        } else {
          Result<TransportHello> parsed = DecodeHello(reply.payload);
          if (!parsed.ok()) {
            st = parsed.status();
          } else if (parsed->site != peer.site) {
            st = Status::Unavailable("peer identified as site " +
                                     std::to_string(parsed->site) +
                                     ", expected " +
                                     std::to_string(peer.site));
          } else {
            theirs = *parsed;
          }
        }
      }
    }
  }
  if (!st.ok()) {
    close(fd);
    return st;
  }
  tv.tv_sec = 0;
  tv.tv_usec = 0;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  PUSHSIP_RETURN_NOT_OK(SetNonBlocking(fd));

  auto conn = std::make_shared<Conn>(options_.max_frame_bytes);
  conn->id = next_conn_id_.fetch_add(1);
  conn->fd = fd;
  conn->peer_site = peer.site;
  conn->initiator = true;
  conn->up.store(true);
  AdoptOutbound(conn, theirs);
  return loop_.Watch(fd, EPOLLIN,
                     [this, conn](uint32_t) { HandleReadable(conn); });
}

void TcpTransport::AdoptOutbound(ConnPtr conn, const TransportHello& hello) {
  const int site = conn->peer_site;
  ConnPtr old;
  {
    std::lock_guard<std::mutex> lock(mu_);
    old = outbound_[site];
    outbound_[site] = conn;
    peer_window_[site] = std::max<uint32_t>(1, hello.window);
    // A fresh connection resets every open edge toward this site to the
    // peer's full window — the replay protocol makes redelivery safe.
    for (auto& [key, credits] : send_credits_) {
      if (static_cast<int>(key >> 32) == site) {
        credits = peer_window_[site];
      }
    }
    if (old != nullptr || outbound_ever_[site] != 0) {
      reconnects_.fetch_add(1);
      if (obs::Metrics::enabled()) {
        obs::MetricsRegistry::Default()
            .GetCounter("pushsip_transport_reconnects_total",
                        "TCP connections re-established after a drop")
            ->Inc();
      }
    }
    outbound_ever_[site] = 1;
  }
  credit_cv_.notify_all();
  if (old != nullptr) {
    old->MarkDown();
    loop_.Unwatch(old->fd);
  }
}

void TcpTransport::HandleReadable(const ConnPtr& conn) {
  char buf[kReadChunk];
  for (;;) {
    const ssize_t r = read(conn->fd, buf, sizeof(buf));
    if (r > 0) {
      conn->decoder.Feed(buf, static_cast<size_t>(r));
      TransportMsg msg;
      for (;;) {
        Result<bool> got = conn->decoder.Next(&msg);
        if (!got.ok()) {
          // Malformed stream: the codec poisoned itself; drop the carrier.
          DropConn(conn);
          return;
        }
        if (!*got) break;
        DispatchMsg(conn, std::move(msg));
      }
      continue;
    }
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (r < 0 && errno == EINTR) continue;
    DropConn(conn);  // EOF or a hard error
    return;
  }
}

void TcpTransport::DispatchMsg(const ConnPtr& conn, TransportMsg&& msg) {
  switch (msg.kind) {
    case TransportMsgKind::kHello:
      HandleHello(conn, msg.payload);
      return;
    case TransportMsgKind::kData:
    case TransportMsgKind::kFinish: {
      int slot = -1;
      if (msg.kind == TransportMsgKind::kFinish) {
        Result<int> decoded = DecodeFinish(msg.payload);
        if (!decoded.ok()) {
          DropConn(conn);
          return;
        }
        slot = *decoded;
      }
      std::shared_ptr<ExchangeChannel> channel;
      {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = bindings_.find(msg.channel);
        if (it != bindings_.end()) {
          channel = it->second;
        } else {
          // The peer finished assembly first and is already streaming;
          // hold the frame until this side binds the channel.
          early_frames_[msg.channel].push_back(
              {msg.kind, conn->peer_site, slot, std::move(msg.payload)});
          return;
        }
      }
      if (msg.kind == TransportMsgKind::kFinish) {
        channel->SendFinish(slot);
      } else {
        // Token = origin site + 1 so the drain hook can route the credit
        // grant back to the right inbound connection (0 = local frame).
        channel->ForcePush(
            std::move(msg.payload),
            static_cast<uint64_t>(conn->peer_site) + 1);
      }
      return;
    }
    case TransportMsgKind::kCredit: {
      Result<uint32_t> credits = DecodeCredit(msg.payload);
      if (!credits.ok()) {
        DropConn(conn);
        return;
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        send_credits_[EdgeKey(conn->peer_site, msg.channel)] += *credits;
      }
      credit_cv_.notify_all();
      return;
    }
    case TransportMsgKind::kFilter: {
      Result<FilterShipment> shipment = DecodeFilterShipment(msg.payload);
      if (!shipment.ok()) {
        DropConn(conn);
        return;
      }
      FilterHandler handler;
      {
        std::lock_guard<std::mutex> lock(mu_);
        handler = filter_handler_;
      }
      if (handler != nullptr) {
        handler(shipment->label, shipment->attr, std::move(shipment->filter));
      }
      return;
    }
  }
}

void TcpTransport::HandleHello(const ConnPtr& conn,
                               const std::string& payload) {
  Result<TransportHello> hello = DecodeHello(payload);
  if (!hello.ok() || conn->peer_site >= 0 ||
      hello->site >= options_.num_sites ||
      hello->site == options_.local_site) {
    DropConn(conn);
    return;
  }
  const int site = hello->site;
  conn->peer_site = site;
  // Up before the reply goes out — WriteFrame refuses down connections.
  conn->up.store(true);

  // Answer with our own hello (site id, receive window).
  TransportHello mine;
  mine.site = options_.local_site;
  mine.window = options_.credit_window;
  TransportMsg reply;
  reply.kind = TransportMsgKind::kHello;
  reply.payload = EncodeHello(mine);
  double secs = 0;
  if (!WriteFrame(conn, EncodeTransportMsg(reply), &secs).ok()) return;

  ConnPtr old;
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending_.erase(std::remove(pending_.begin(), pending_.end(), conn),
                   pending_.end());
    old = inbound_[site];
    inbound_[site] = conn;
    // Replacement connection: forget grant debts accrued on the old one
    // (the peer's sender restarts with a full window on its redial).
    for (auto& [key, n] : grant_pending_) {
      if (static_cast<int>(key >> 32) == site) n = 0;
    }
  }
  conn->up.store(true);
  if (old != nullptr) {
    old->MarkDown();
    loop_.Unwatch(old->fd);
  }
}

void TcpTransport::DropConn(const ConnPtr& conn) {
  conn->MarkDown();
  loop_.Unwatch(conn->fd);
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending_.erase(std::remove(pending_.begin(), pending_.end(), conn),
                   pending_.end());
    const int site = conn->peer_site;
    if (site >= 0 && site < options_.num_sites) {
      if (outbound_[site] == conn) outbound_[site] = nullptr;
      if (inbound_[site] == conn) inbound_[site] = nullptr;
    }
  }
  // Senders blocked on credits must observe the dead connection.
  credit_cv_.notify_all();
}

Status TcpTransport::BindChannel(uint32_t channel_id,
                                 std::shared_ptr<ExchangeChannel> channel) {
  channel->SetDrainHook(
      [this, channel_id](uint64_t token, size_t bytes) {
        if (token == 0) return;  // locally-produced frame: no credit owed
        OnChannelDrain(channel_id, static_cast<int>(token) - 1, bytes);
      });
  // Replay frames that beat the binding, in arrival order, and publish
  // the binding only once none is left: until then new frames queue
  // behind the held ones. A frame overtaking held frames of its sender
  // would raise the receiver's seq high-water and get them dropped as
  // duplicates.
  for (;;) {
    std::vector<EarlyFrame> held;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = early_frames_.find(channel_id);
      if (it == early_frames_.end()) {
        bindings_[channel_id] = channel;
        return Status::OK();
      }
      held = std::move(it->second);
      early_frames_.erase(it);
    }
    for (EarlyFrame& frame : held) {
      if (frame.kind == TransportMsgKind::kFinish) {
        channel->SendFinish(frame.slot);
      } else {
        channel->ForcePush(std::move(frame.payload),
                           static_cast<uint64_t>(frame.origin_site) + 1);
      }
    }
  }
}

void TcpTransport::OnChannelDrain(uint32_t channel_id, int origin_site,
                                  size_t bytes) {
  (void)bytes;
  if (origin_site < 0 || origin_site >= options_.num_sites) return;
  ConnPtr conn;
  uint32_t grant = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    uint32_t& pending = grant_pending_[EdgeKey(origin_site, channel_id)];
    ++pending;
    // Batch grants: one credit frame per quarter-window drained keeps the
    // control-plane chatter at ~4 frames per window instead of per-batch.
    const uint32_t batch =
        std::max<uint32_t>(1, options_.credit_window / 4);
    if (pending < batch) return;
    grant = pending;
    pending = 0;
    conn = inbound_[origin_site];
  }
  if (conn == nullptr || !conn->up.load()) return;  // reconnect resets all
  TransportMsg msg;
  msg.kind = TransportMsgKind::kCredit;
  msg.channel = channel_id;
  msg.payload = EncodeCredit(grant);
  double secs = 0;
  (void)WriteFrame(conn, EncodeTransportMsg(msg), &secs);
}

Status TcpTransport::WriteFrame(const ConnPtr& conn,
                                const std::string& encoded, double* seconds) {
  return WriteFrameV(conn, encoded, std::string_view(), seconds);
}

Status TcpTransport::WriteFrameV(const ConnPtr& conn, std::string_view header,
                                 std::string_view payload, double* seconds) {
  Stopwatch timer;
  std::lock_guard<std::mutex> lock(conn->write_mu);
  const size_t total = header.size() + payload.size();
  size_t put = 0;
  while (put < total) {
    if (!conn->up.load()) return Status::Unavailable("connection is down");
    // Gather whatever is still unsent of header then payload; sendmsg is
    // writev with MSG_NOSIGNAL.
    iovec iov[2];
    size_t iovcnt = 0;
    if (put < header.size()) {
      iov[iovcnt++] = {const_cast<char*>(header.data() + put),
                       header.size() - put};
      if (!payload.empty()) {
        iov[iovcnt++] = {const_cast<char*>(payload.data()), payload.size()};
      }
    } else {
      const size_t off = put - header.size();
      iov[iovcnt++] = {const_cast<char*>(payload.data() + off),
                       payload.size() - off};
    }
    msghdr mh{};
    mh.msg_iov = iov;
    mh.msg_iovlen = iovcnt;
    const ssize_t w = sendmsg(conn->fd, &mh, MSG_NOSIGNAL);
    if (w >= 0) {
      put += static_cast<size_t>(w);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (timer.ElapsedSeconds() > options_.write_timeout_sec) {
        conn->MarkDown();
        return Status::Unavailable("write timed out; marking link dead");
      }
      pollfd pfd{conn->fd, POLLOUT, 0};
      poll(&pfd, 1, 100);
      continue;
    }
    conn->MarkDown();
    return Status::Unavailable(std::string("write failed: ") +
                               std::strerror(errno));
  }
  const double secs = timer.ElapsedSeconds();
  if (seconds != nullptr) *seconds += secs;
  bytes_sent_.fetch_add(static_cast<int64_t>(total));
  wire_micros_.fetch_add(static_cast<int64_t>(secs * 1e6));
  return Status::OK();
}

TcpTransport::ConnPtr TcpTransport::OutboundFor(int site) {
  std::lock_guard<std::mutex> lock(mu_);
  return outbound_[site];
}

/// The sending half of one (channel, producer) edge over TCP: spend a
/// credit (blocking at zero), then write a kData frame on the outbound
/// connection to the consumer's site. The stream stays on the connection
/// it first wrote on until a failed send or Rewind (see ChannelSender):
/// when another fragment's restart on this site heals a dead connection,
/// the frames this stream wrote into the old socket may be lost, and
/// continuing on the new one would leave a silent gap.
class TcpChannelSender : public ChannelSender {
 public:
  TcpChannelSender(TcpTransport* transport, uint32_t channel_id, int to_site)
      : transport_(transport), channel_id_(channel_id), to_site_(to_site) {}

  Status SendFrame(std::string bytes, ExecContext* bill_to,
                   double* link_seconds) override {
    PUSHSIP_RETURN_NOT_OK(Released(AcquireCredit()));
    PUSHSIP_ASSIGN_OR_RETURN(TcpTransport::ConnPtr conn, StreamConn());
    // Gather-write the 9-byte frame header and the serialized batch: the
    // (potentially large) payload goes to the socket from its own buffer
    // instead of being copied into a concatenated frame first.
    const std::string header = EncodeTransportFrameHeader(
        TransportMsgKind::kData, channel_id_, bytes.size());
    double secs = 0;
    PUSHSIP_RETURN_NOT_OK(Released(
        transport_->WriteFrameV(conn, header, bytes, &secs)));
    const size_t sent = header.size() + bytes.size();
    if (link_seconds != nullptr) *link_seconds += secs;
    if (bill_to != nullptr) {
      bill_to->RecordLinkTraffic(static_cast<int64_t>(sent), secs);
    }
    bytes_sent_.fetch_add(static_cast<int64_t>(sent));
    if (obs::Metrics::enabled()) {
      // Registration is once per name; the registry hands back the same
      // counters on every frame, so the steady-state cost is two relaxed
      // adds behind one predictable branch.
      static obs::Counter* frames = obs::MetricsRegistry::Default().GetCounter(
          "pushsip_transport_frames_total", "Data frames sent over TCP");
      static obs::Counter* bytes_total =
          obs::MetricsRegistry::Default().GetCounter(
              "pushsip_transport_bytes_total",
              "Payload + header bytes sent over TCP");
      frames->Inc();
      bytes_total->Inc(static_cast<int64_t>(sent));
    }
    transport_->MaybeChaosKill();
    return Status::OK();
  }

  Status SendFinish(int slot) override {
    PUSHSIP_ASSIGN_OR_RETURN(TcpTransport::ConnPtr conn, StreamConn());
    TransportMsg msg;
    msg.kind = TransportMsgKind::kFinish;
    msg.channel = channel_id_;
    msg.payload = EncodeFinish(slot);
    double secs = 0;
    return Released(
        transport_->WriteFrame(conn, EncodeTransportMsg(msg), &secs));
  }

  void Rewind() override { stream_conn_.store(0); }

  double stall_seconds() const override {
    return static_cast<double>(stall_micros_.load()) / 1e6;
  }
  int64_t bytes_sent() const override { return bytes_sent_.load(); }

 private:
  /// The live outbound connection, pinning the stream to it on first use.
  /// kUnavailable (which releases the pin) when there is none, or when it
  /// replaced the one the stream already wrote on.
  Result<TcpTransport::ConnPtr> StreamConn() {
    TcpTransport::ConnPtr conn = transport_->OutboundFor(to_site_);
    if (conn == nullptr || !conn->up.load()) {
      return Released(Status::Unavailable("no live connection to site " +
                                          std::to_string(to_site_)));
    }
    uint64_t pinned = 0;
    if (!stream_conn_.compare_exchange_strong(pinned, conn->id) &&
        pinned != conn->id) {
      return Released(Status::Unavailable(
          "connection to site " + std::to_string(to_site_) +
          " was replaced mid-stream; frames on the old one may be lost"));
    }
    return conn;
  }

  /// A failed send is the caller's restart signal: the stream after it is
  /// a replay, free to use whichever connection is live.
  Status Released(Status st) {
    if (!st.ok()) stream_conn_.store(0);
    return st;
  }

  Status AcquireCredit() {
    const uint64_t key = TcpTransport::EdgeKey(to_site_, channel_id_);
    Stopwatch stall;
    bool stalled = false;
    std::unique_lock<std::mutex> lock(transport_->mu_);
    for (;;) {
      if (transport_->shutdown_.load()) {
        return Status::Cancelled("transport shut down");
      }
      const TcpTransport::ConnPtr& conn = transport_->outbound_[to_site_];
      if (conn == nullptr || !conn->up.load()) {
        return Status::Unavailable("no live connection to site " +
                                   std::to_string(to_site_));
      }
      auto it = transport_->send_credits_.find(key);
      if (it == transport_->send_credits_.end()) {
        // First frame on this edge since (re)connect: start with the
        // window the peer's hello granted.
        it = transport_->send_credits_
                 .emplace(key, transport_->peer_window_[to_site_])
                 .first;
      }
      if (it->second > 0) {
        --it->second;
        if (stalled) {
          const double stalled_sec = stall.ElapsedSeconds();
          stall_micros_.fetch_add(static_cast<int64_t>(stalled_sec * 1e6));
          if (obs::Trace::enabled()) {
            // The wait already elapsed; backdate the span over it.
            const int64_t end_us = obs::Trace::NowMicros();
            obs::TraceCompleteSpan(
                "exchange_credit_stall",
                end_us - static_cast<int64_t>(stalled_sec * 1e6), end_us,
                "\"to_site\":" + std::to_string(to_site_) +
                    ",\"channel\":" + std::to_string(channel_id_));
          }
        }
        return Status::OK();
      }
      if (!stalled) {
        stalled = true;
        stall.Restart();
      }
      transport_->credit_cv_.wait_for(lock,
                                      std::chrono::milliseconds(100));
    }
  }

  TcpTransport* transport_;
  const uint32_t channel_id_;
  const int to_site_;
  std::atomic<uint64_t> stream_conn_{0};  // Conn::id pinned; 0 = none
  std::atomic<int64_t> stall_micros_{0};
  std::atomic<int64_t> bytes_sent_{0};
};

Result<std::shared_ptr<ChannelSender>> TcpTransport::OpenChannel(
    uint32_t channel_id, int to_site) {
  if (to_site < 0 || to_site >= options_.num_sites) {
    return Status::InvalidArgument("no such site");
  }
  if (to_site == options_.local_site) {
    // Loopback: a same-site edge enqueues straight into the bound channel.
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = bindings_.find(channel_id);
    if (it == bindings_.end()) {
      return Status::NotFound("loopback channel " +
                              std::to_string(channel_id) + " is not bound");
    }
    return std::shared_ptr<ChannelSender>(
        std::make_shared<DirectChannelSender>(it->second, nullptr,
                                              channel_id, to_site));
  }
  return std::shared_ptr<ChannelSender>(
      std::make_shared<TcpChannelSender>(this, channel_id, to_site));
}

void TcpTransport::SetFilterHandler(FilterHandler handler) {
  std::lock_guard<std::mutex> lock(mu_);
  filter_handler_ = std::move(handler);
}

Result<double> TcpTransport::ShipFilter(int to_site, const std::string& label,
                                        AttrId attr, const BloomFilter& filter,
                                        ExecContext* bill_to) {
  if (to_site < 0 || to_site >= options_.num_sites) {
    return Status::InvalidArgument("bad filter destination");
  }
  TransportMsg msg;
  msg.kind = TransportMsgKind::kFilter;
  msg.payload = EncodeFilterShipment(label, attr, filter);
  if (to_site == options_.local_site) {
    // Loopback: the local handler, synchronously; no socket, no billing.
    FilterHandler handler;
    {
      std::lock_guard<std::mutex> lock(mu_);
      handler = filter_handler_;
    }
    PUSHSIP_RETURN_NOT_OK(DeliverFilterShipment(msg.payload, handler));
    return 0.0;
  }
  ConnPtr conn = OutboundFor(to_site);
  if (conn == nullptr || !conn->up.load()) {
    return Status::Unavailable("no live connection to site " +
                               std::to_string(to_site));
  }
  const std::string frame = EncodeTransportMsg(msg);
  double secs = 0;
  PUSHSIP_RETURN_NOT_OK(WriteFrame(conn, frame, &secs));
  if (bill_to != nullptr) {
    bill_to->RecordLinkTraffic(static_cast<int64_t>(frame.size()), secs);
  }
  return secs;
}

Status TcpTransport::Heal() {
  Status first = Status::OK();
  for (const TcpPeer& peer : options_.peers) {
    if (peer.site == options_.local_site) continue;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const ConnPtr& conn = outbound_[peer.site];
      if (conn != nullptr && conn->up.load()) continue;
    }
    const Status st = DialPeer(peer);
    if (!st.ok() && first.ok()) first = st;
  }
  return first;
}

LinkUsage TcpTransport::TotalUsage() const {
  LinkUsage usage;
  usage.bytes = bytes_sent_.load();
  usage.seconds = static_cast<double>(wire_micros_.load()) / 1e6;
  return usage;
}

void TcpTransport::MaybeChaosKill() {
  if (options_.chaos_kill_after_data_frames <= 0) return;
  // fetch_add makes exactly one sender the killer, however many race.
  if (chaos_data_frames_.fetch_add(1) + 1 ==
      options_.chaos_kill_after_data_frames) {
    KillConnections();
  }
}

void TcpTransport::KillConnections() {
  std::vector<ConnPtr> victims;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const ConnPtr& c : outbound_) {
      if (c != nullptr) victims.push_back(c);
    }
    for (const ConnPtr& c : inbound_) {
      if (c != nullptr) victims.push_back(c);
    }
  }
  for (const ConnPtr& c : victims) c->MarkDown();
  credit_cv_.notify_all();
}

void TcpTransport::Shutdown() {
  if (shutdown_.exchange(true)) return;
  std::vector<ConnPtr> conns;
  std::vector<std::shared_ptr<ExchangeChannel>> channels;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& c : outbound_) {
      if (c != nullptr) conns.push_back(std::move(c));
    }
    for (auto& c : inbound_) {
      if (c != nullptr) conns.push_back(std::move(c));
    }
    for (auto& c : pending_) conns.push_back(std::move(c));
    pending_.clear();
    early_frames_.clear();
    for (auto& [id, ch] : bindings_) channels.push_back(ch);
  }
  credit_cv_.notify_all();
  for (const ConnPtr& c : conns) c->MarkDown();
  for (const auto& ch : channels) ch->Cancel();
  loop_.Stop();
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
}

}  // namespace pushsip
