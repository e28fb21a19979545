// TcpTransport: the real-socket backend of the Transport interface.
//
// Topology. For every ordered site pair (i, j) the lower-level carrier is
// one TCP connection dialed by i (the initiator): i's data/finish/filter
// frames flow forward on it and j's credit grants flow back on the same
// socket. A full mesh of N sites therefore holds N·(N-1) connections,
// each multiplexing every exchange channel between its pair.
// An edge or filter toward the local site is a loopback that never
// touches a socket (a DirectChannelSender into the bound channel, or the
// local filter handler).
//
// Event model. One epoll EventLoop per endpoint owns the listen socket and
// all established connections' read sides. Writes happen on the sending
// threads (blocking with EAGAIN polling) — the analogue of
// SimLink::Transmit charging the producer its transfer time.
//
// Handshake. The dialer sends a kHello (magic, protocol, site id, its
// receive window) and waits for the acceptor's hello back; each side
// learns the peer's credit window. A hello that fails validation (wrong
// magic, size or protocol) closes the connection.
//
// Flow control. Credits are per (connection, channel): a sender starts
// with the window the peer's hello granted, spends one credit per kData
// frame, and stalls at zero (accumulating stall_seconds). The receiver
// grants credits back in batches as its ExchangeChannel drains (the
// channel's drain hook). Control frames (finish/credit/filter) bypass
// credits.
//
// Failure model. A dropped connection fails in-flight and subsequent
// sends with kUnavailable — exactly a PR 3 link fault. The supervisor's
// recovery path calls Heal(), which redials dead outbound connections
// (fresh handshake, credit windows reset on both sides) and then replays
// the fragment; receivers' epoch/seq high-water dedup discards the
// duplicate prefix. A channel sender also fails once the connection it
// wrote on is replaced, even when another fragment's heal got there first:
// frames left in the dead socket may be lost, and only the replay re-sends
// them (ChannelSender::Rewind marks the replay). KillConnections() is the
// chaos hook that severs every live socket mid-query.
#ifndef PUSHSIP_NET_TRANSPORT_TCP_TRANSPORT_H_
#define PUSHSIP_NET_TRANSPORT_TCP_TRANSPORT_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/transport/frame_codec.h"
#include "net/transport/transport.h"
#include "util/event_loop.h"

namespace pushsip {

/// Where to reach one remote site.
struct TcpPeer {
  int site = -1;
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

struct TcpTransportOptions {
  int local_site = 0;
  int num_sites = 1;
  std::string listen_host = "127.0.0.1";
  /// 0 = ephemeral; the bound port is readable via listen_port() after
  /// Listen().
  uint16_t listen_port = 0;
  /// One entry per remote site; may also be supplied later via SetPeers
  /// (before Start).
  std::vector<TcpPeer> peers;
  /// Per-channel credit window this endpoint grants as a receiver.
  uint32_t credit_window = 64;
  /// Dial budget per peer (Start and Heal retry inside it).
  double dial_timeout_sec = 15.0;
  /// A single blocked write longer than this marks the connection dead.
  double write_timeout_sec = 30.0;
  size_t max_frame_bytes = 64u << 20;
  /// Chaos schedule (tests only): after this endpoint successfully sends
  /// its Nth data frame, every live connection is severed exactly once —
  /// the TCP analogue of the FaultInjector's kill-after-K-frames link
  /// fault, deterministic where an external killer thread would race the
  /// query. 0 = never.
  int64_t chaos_kill_after_data_frames = 0;
};

class TcpTransport : public Transport {
 public:
  explicit TcpTransport(TcpTransportOptions options);
  ~TcpTransport() override;

  const char* backend() const override { return "tcp"; }
  int local_site() const override { return options_.local_site; }
  int num_sites() const override { return options_.num_sites; }

  /// Binds + listens + starts the event loop without dialing anyone — the
  /// two-phase start a coordinator needs (learn every ephemeral port, then
  /// distribute the peer list). Idempotent.
  Status Listen();
  uint16_t listen_port() const { return listen_port_; }
  void SetPeers(std::vector<TcpPeer> peers);

  Status Start() override;
  void Shutdown() override;

  Status BindChannel(uint32_t channel_id,
                     std::shared_ptr<ExchangeChannel> channel) override;
  Result<std::shared_ptr<ChannelSender>> OpenChannel(uint32_t channel_id,
                                                     int to_site) override;
  void SetFilterHandler(FilterHandler handler) override;
  Result<double> ShipFilter(int to_site, const std::string& label,
                            AttrId attr, const BloomFilter& filter,
                            ExecContext* bill_to) override;
  Status Heal() override;
  LinkUsage TotalUsage() const override;

  /// Chaos hook: severs every live connection (both directions). Senders
  /// fail with kUnavailable until Heal() (and the peers' heals) reconnect.
  void KillConnections();
  /// Fires the options' kill-after-N-data-frames schedule (sender path).
  void MaybeChaosKill();
  int64_t reconnects() const { return reconnects_.load(); }

 private:
  friend class TcpChannelSender;

  /// One live socket. `fd` is closed only by the destructor, after every
  /// holder of the shared_ptr let go; MarkDown() shuts the socket to wake
  /// blocked I/O without invalidating the descriptor.
  struct Conn {
    uint64_t id = 0;  ///< unique per endpoint; outbound conns only
    int fd = -1;
    int peer_site = -1;
    bool initiator = false;
    std::atomic<bool> up{false};
    std::mutex write_mu;
    TransportFrameDecoder decoder;
    explicit Conn(size_t max_frame) : decoder(max_frame) {}
    ~Conn();
    void MarkDown();
  };
  using ConnPtr = std::shared_ptr<Conn>;

  static uint64_t EdgeKey(int site, uint32_t channel_id) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(site)) << 32) |
           channel_id;
  }

  Status DialPeer(const TcpPeer& peer);
  void AdoptOutbound(ConnPtr conn, const TransportHello& hello);
  void HandleReadable(const ConnPtr& conn);
  void DispatchMsg(const ConnPtr& conn, TransportMsg&& msg);
  void HandleHello(const ConnPtr& conn, const std::string& payload);
  void DropConn(const ConnPtr& conn);
  void OnChannelDrain(uint32_t channel_id, int origin_site, size_t bytes);
  /// Writes one encoded frame on `conn`; marks it down on failure.
  Status WriteFrame(const ConnPtr& conn, const std::string& encoded,
                    double* seconds);
  /// Gathered write of `header` + `payload` in one sendmsg (zero-copy on
  /// the payload — data frames skip the header+payload concatenation).
  Status WriteFrameV(const ConnPtr& conn, std::string_view header,
                     std::string_view payload, double* seconds);
  ConnPtr OutboundFor(int site);

  TcpTransportOptions options_;
  EventLoop loop_;
  int listen_fd_ = -1;
  uint16_t listen_port_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> shutdown_{false};

  mutable std::mutex mu_;
  std::condition_variable credit_cv_;
  std::vector<ConnPtr> outbound_;         // per site; carries our frames
  std::vector<ConnPtr> inbound_;          // per site; carries their frames
  /// Sites this endpoint ever completed an outbound handshake with — a
  /// redial to one of them is a reconnect even when the dead conn was
  /// already dropped from outbound_ (the loop thread races the healer).
  std::vector<uint8_t> outbound_ever_;
  std::vector<ConnPtr> pending_;          // accepted, hello not yet seen
  std::vector<uint32_t> peer_window_;     // credit window each peer grants
  std::unordered_map<uint32_t, std::shared_ptr<ExchangeChannel>> bindings_;
  /// One data/finish frame that arrived before its channel was bound.
  struct EarlyFrame {
    TransportMsgKind kind;
    int origin_site;
    int slot;  ///< kFinish: the finishing sender's channel slot
    std::string payload;
  };
  /// Startup race absorber: peers that finish assembly first may stream
  /// before this endpoint bound its channels (accepting starts at Listen).
  /// Bounded by the credit window — an unbound channel never grants, so a
  /// sender stalls after its initial window. Flushed by BindChannel.
  std::unordered_map<uint32_t, std::vector<EarlyFrame>> early_frames_;
  std::unordered_map<uint64_t, uint32_t> send_credits_;  // (site,cid) -> n
  std::unordered_map<uint64_t, uint32_t> grant_pending_; // (origin,cid) -> n
  FilterHandler filter_handler_;

  std::atomic<int64_t> bytes_sent_{0};
  std::atomic<int64_t> wire_micros_{0};
  std::atomic<int64_t> reconnects_{0};
  std::atomic<int64_t> chaos_data_frames_{0};  // kill-schedule progress
  std::atomic<uint64_t> next_conn_id_{1};
};

}  // namespace pushsip

#endif  // PUSHSIP_NET_TRANSPORT_TCP_TRANSPORT_H_
