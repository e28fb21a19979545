#include "net/transport/sim_transport.h"

#include <atomic>

namespace pushsip {

Status SimCluster::Bind(uint32_t channel_id,
                        std::shared_ptr<ExchangeChannel> channel) {
  std::lock_guard<std::mutex> lock(mu_);
  channels_[channel_id] = std::move(channel);
  return Status::OK();
}

std::shared_ptr<ExchangeChannel> SimCluster::Lookup(
    uint32_t channel_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = channels_.find(channel_id);
  return it == channels_.end() ? nullptr : it->second;
}

void SimCluster::SetFilterHandler(int site, Transport::FilterHandler handler) {
  std::lock_guard<std::mutex> lock(mu_);
  handlers_[site] = std::move(handler);
}

Transport::FilterHandler SimCluster::filter_handler(int site) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = handlers_.find(site);
  return it == handlers_.end() ? nullptr : it->second;
}

namespace {

/// One sim exchange edge: a link transmit (fault-checked, bandwidth
/// billed) followed by a bounded enqueue on the consumer's channel.
class SimChannelSender : public ChannelSender {
 public:
  SimChannelSender(std::shared_ptr<SimCluster> cluster, uint32_t channel_id,
                   std::shared_ptr<SimLink> link)
      : cluster_(std::move(cluster)), channel_id_(channel_id),
        link_(std::move(link)) {}

  Status SendFrame(std::string bytes, ExecContext* bill_to,
                   double* link_seconds) override {
    PUSHSIP_ASSIGN_OR_RETURN(const std::shared_ptr<ExchangeChannel> ch,
                             Channel());
    const size_t n = bytes.size();
    if (link_ != nullptr) {
      PUSHSIP_RETURN_NOT_OK(link_->Transmit(n, bill_to));
      if (link_seconds != nullptr) {
        *link_seconds += link_->TransferSeconds(n);
      }
    }
    double stalled = 0;
    const bool sent = ch->SendBatch(std::move(bytes), &stalled);
    stall_micros_.fetch_add(static_cast<int64_t>(stalled * 1e6));
    if (!sent) return Status::Cancelled("exchange channel cancelled");
    bytes_sent_.fetch_add(static_cast<int64_t>(n));
    return Status::OK();
  }

  Status SendFinish(int slot) override {
    PUSHSIP_ASSIGN_OR_RETURN(const std::shared_ptr<ExchangeChannel> ch,
                             Channel());
    ch->SendFinish(slot);
    return Status::OK();
  }

  double stall_seconds() const override {
    return static_cast<double>(stall_micros_.load()) / 1e6;
  }
  int64_t bytes_sent() const override { return bytes_sent_.load(); }

 private:
  // Resolved lazily so open/bind order does not matter at assembly time.
  Result<std::shared_ptr<ExchangeChannel>> Channel() {
    std::shared_ptr<ExchangeChannel> ch = cluster_->Lookup(channel_id_);
    if (ch == nullptr) {
      return Status::NotFound("channel " + std::to_string(channel_id_) +
                              " is not bound anywhere in the cluster");
    }
    return ch;
  }

  std::shared_ptr<SimCluster> cluster_;
  uint32_t channel_id_;
  std::shared_ptr<SimLink> link_;
  std::atomic<int64_t> stall_micros_{0};
  std::atomic<int64_t> bytes_sent_{0};
};

}  // namespace

void SimTransport::Shutdown() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& ch : bound_) ch->Cancel();
  bound_.clear();
}

Status SimTransport::BindChannel(uint32_t channel_id,
                                 std::shared_ptr<ExchangeChannel> channel) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    bound_.push_back(channel);
  }
  return cluster_->Bind(channel_id, std::move(channel));
}

Result<std::shared_ptr<ChannelSender>> SimTransport::OpenChannel(
    uint32_t channel_id, int to_site) {
  if (to_site == site_) {
    return Status::InvalidArgument(
        "local exchange edges bypass the transport");
  }
  if (to_site < 0 || to_site >= num_sites()) {
    return Status::InvalidArgument("no such site");
  }
  return std::shared_ptr<ChannelSender>(std::make_shared<SimChannelSender>(
      cluster_, channel_id, cluster_->mesh()->link(site_, to_site)));
}

void SimTransport::SetFilterHandler(FilterHandler handler) {
  cluster_->SetFilterHandler(site_, std::move(handler));
}

Result<double> SimTransport::ShipFilter(int to_site, const std::string& label,
                                        AttrId attr,
                                        const BloomFilter& filter) {
  if (to_site < 0 || to_site >= num_sites() || to_site == site_) {
    return Status::InvalidArgument("bad filter destination");
  }
  Transport::FilterHandler handler = cluster_->filter_handler(to_site);
  if (handler == nullptr) {
    return Status::NotFound("destination site has no filter handler");
  }
  // Full wire round-trip, as the TCP backend would deliver it.
  const std::string payload = EncodeFilterShipment(label, attr, filter);
  const std::shared_ptr<SimLink>& link = cluster_->mesh()->link(site_,
                                                                to_site);
  double seconds = 0;
  if (link != nullptr) {
    PUSHSIP_RETURN_NOT_OK(link->Transmit(payload.size(), nullptr));
    seconds = link->TransferSeconds(payload.size());
  }
  PUSHSIP_ASSIGN_OR_RETURN(FilterShipment decoded,
                           DecodeFilterShipment(payload));
  handler(decoded.label, decoded.attr, std::move(decoded.filter));
  return seconds;
}

Status SimTransport::Heal() {
  const auto& injector = cluster_->mesh()->fault_injector();
  if (injector != nullptr) injector->HealFired();
  return Status::OK();
}

LinkUsage SimTransport::TotalUsage() const {
  return cluster_->mesh()->OutboundUsage(site_);
}

}  // namespace pushsip
