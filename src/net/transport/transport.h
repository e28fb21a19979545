// The abstract transport under the exchange mesh. Two backends implement
// it: SimTransport (the default: the simulator — SimLink bandwidth/latency,
// FaultInjector schedules, deterministic for chaos/CI) and TcpTransport
// (real sockets: an epoll loop, length-prefixed frames, credit-based flow
// control, reconnect-on-failure). The dist layer talks only to this
// interface: every exchange frame, finish and AIP filter leaves its site
// through the site's endpoint, so a query wired for one backend runs
// unchanged on the other.
//
// Model. A Transport instance is one site's endpoint. Exchange channels
// are identified by a cluster-wide channel id (the channel's index in
// DistributedQuery::channels — deterministic assembly makes every process
// agree). The consuming site *binds* the id to its local ExchangeChannel;
// producing sites *open* the id toward the consumer and get a
// ChannelSender — the sending half of one (channel, producer-site) edge.
// An edge toward the endpoint's own site is a loopback (DirectChannelSender
// with no link) on both backends, and so is a filter shipped to it.
//
// Failure semantics are the PR 3 contract: a dead link/connection fails
// SendFrame with kUnavailable, the supervisor restarts the replayable
// fragment, Heal() re-establishes connectivity (redial / heal fired
// faults), and the replay's duplicate frames are discarded by the
// receivers' epoch/seq high-water dedup. A dropped TCP connection is
// indistinguishable from an injected SimLink fault one layer up.
#ifndef PUSHSIP_NET_TRANSPORT_TRANSPORT_H_
#define PUSHSIP_NET_TRANSPORT_TRANSPORT_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>

#include "exec/exec_context.h"
#include "net/sim_link.h"
#include "net/transport/channel.h"
#include "net/wire_format.h"

namespace pushsip {

/// \brief The sending half of one (channel, producer-site) exchange edge.
///
/// All methods are thread-safe; SendFrame may block for flow control
/// (credits on TCP, queue caps on sim) — that time accumulates in
/// stall_seconds(), the sender-side counterpart of the receiver's stall
/// stat. A send that cannot complete because the connection/link is down
/// fails with kUnavailable (the restart signal), never blocks forever.
class ChannelSender {
 public:
  virtual ~ChannelSender() = default;

  /// Ships one serialized BatchFrame. `bill_to` (nullable) receives
  /// per-query link billing; `link_seconds` (nullable) accumulates the
  /// wire-transfer seconds of this frame.
  virtual Status SendFrame(std::string bytes, ExecContext* bill_to,
                           double* link_seconds) = 0;

  /// Signals the end-of-stream of sender `slot` (the slot the producing
  /// ExchangeSender allocated on the consuming channel) to that channel,
  /// which counts each slot's finish once.
  virtual Status SendFinish(int slot) = 0;

  /// Marks the start of a replayed stream (the producing fragment
  /// restarted at a new epoch). A TCP sender pins its stream to the
  /// connection it first wrote on and fails with kUnavailable once that
  /// connection is replaced: frames written into the dead socket may never
  /// have arrived, and only a replay re-sends them. A failed send or a
  /// Rewind releases the pin.
  virtual void Rewind() {}

  /// Cumulative seconds SendFrame spent blocked on flow control.
  virtual double stall_seconds() const = 0;
  virtual int64_t bytes_sent() const = 0;
};

/// \brief An edge that enqueues straight into its consumer's channel: the
/// sim backend's edges (after transmitting over `link`, which bills and
/// may fail the frame) and either backend's loopback edge (no link).
/// Flow control is the channel's frame/byte caps; a wait on them is
/// accumulated in stall_seconds() and traced as `exchange_credit_stall`.
class DirectChannelSender : public ChannelSender {
 public:
  /// `to_site` and `channel_id` only label the stall span.
  DirectChannelSender(std::shared_ptr<ExchangeChannel> channel,
                      std::shared_ptr<SimLink> link, uint32_t channel_id,
                      int to_site)
      : channel_(std::move(channel)), link_(std::move(link)),
        channel_id_(channel_id), to_site_(to_site) {}

  Status SendFrame(std::string bytes, ExecContext* bill_to,
                   double* link_seconds) override;
  Status SendFinish(int slot) override {
    channel_->SendFinish(slot);
    return Status::OK();
  }
  double stall_seconds() const override {
    return static_cast<double>(stall_micros_.load()) / 1e6;
  }
  int64_t bytes_sent() const override { return bytes_sent_.load(); }

 private:
  const std::shared_ptr<ExchangeChannel> channel_;
  const std::shared_ptr<SimLink> link_;
  const uint32_t channel_id_;
  const int to_site_;
  std::atomic<int64_t> stall_micros_{0};
  std::atomic<int64_t> bytes_sent_{0};
};

/// \brief One site's endpoint of the cluster transport.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual const char* backend() const = 0;  ///< "sim" | "tcp"
  virtual int local_site() const = 0;
  virtual int num_sites() const = 0;

  /// Brings the endpoint up (TCP: listen + dial peers + handshake). All
  /// BindChannel calls must precede Start so no remote frame arrives for
  /// an unbound channel. Idempotent.
  virtual Status Start() = 0;

  /// Tears the endpoint down and unblocks every stalled sender (their
  /// SendFrame fails with kUnavailable). Idempotent; also run by the
  /// destructor.
  virtual void Shutdown() = 0;

  /// Registers the local delivery queue for `channel_id` (this site is the
  /// consumer). The transport ForcePushes remote frames into it and grants
  /// credits as it drains.
  virtual Status BindChannel(uint32_t channel_id,
                             std::shared_ptr<ExchangeChannel> channel) = 0;

  /// Opens the sending edge of `channel_id` toward its consumer at
  /// `to_site`. Toward the local site the edge is a loopback straight into
  /// the bound channel, so the channel must already be bound here; the sim
  /// backend resolves every edge's channel at this call, so it must be
  /// bound at its consumer's endpoint first.
  virtual Result<std::shared_ptr<ChannelSender>> OpenChannel(
      uint32_t channel_id, int to_site) = 0;

  /// Delivery callback for AIP filter shipments arriving at this site;
  /// returns the number of scans the filter now covers.
  using FilterHandler = std::function<int(
      const std::string& label, AttrId attr, BloomFilter filter)>;
  virtual void SetFilterHandler(FilterHandler handler) = 0;

  /// Ships one AIP summary to `to_site`'s filter handler (the local site's
  /// own handler for a loopback). Returns the link seconds the shipment
  /// occupied; kUnavailable when the site is unreachable (the AIP manager
  /// queues a re-ship). A synchronous delivery (the sim, or a loopback)
  /// fails with kNotFound when the handler attached the filter nowhere.
  /// `bill_to` (nullable) receives the shipment's link billing.
  virtual Result<double> ShipFilter(int to_site, const std::string& label,
                                    AttrId attr, const BloomFilter& filter,
                                    ExecContext* bill_to) = 0;

  /// Recovery hook, called by the supervisor before a fragment replay:
  /// sim heals fired injector faults; TCP redials dead outbound
  /// connections (fresh handshake, reset credit windows).
  virtual Status Heal() = 0;

  /// Bytes/seconds this endpoint pushed onto the wire (data + control).
  virtual LinkUsage TotalUsage() const = 0;
};

/// kFilter payload codec: [u16 label_len][label][FilterMessage bytes].
std::string EncodeFilterShipment(const std::string& label, AttrId attr,
                                 const BloomFilter& filter);
struct FilterShipment {
  std::string label;
  AttrId attr = kInvalidAttr;
  BloomFilter filter{16};
};
Result<FilterShipment> DecodeFilterShipment(const std::string& payload);

/// The synchronous delivery end of a filter shipment: decodes `payload`
/// and hands it to `handler`. kNotFound when there is no handler or it
/// attached the filter nowhere.
Status DeliverFilterShipment(const std::string& payload,
                             const Transport::FilterHandler& handler);

}  // namespace pushsip

#endif  // PUSHSIP_NET_TRANSPORT_TRANSPORT_H_
