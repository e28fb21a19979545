#include "net/transport/sim_transport.h"

#include <algorithm>

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
  if (to_site < 0 || to_site >= num_sites()) {
    return Status::InvalidArgument("no such site");
  }
  // Resolved once here, so the per-frame path takes no registry lock.
  std::shared_ptr<ExchangeChannel> channel = cluster_->Lookup(channel_id);
  if (channel == nullptr) {
    return Status::NotFound("channel " + std::to_string(channel_id) +
                            " is not bound anywhere in the cluster");
  }
  // link(i, i) is null: a loopback edge costs nothing.
  return std::shared_ptr<ChannelSender>(std::make_shared<DirectChannelSender>(
      std::move(channel), cluster_->mesh()->link(site_, to_site), channel_id,
      to_site));
}

void SimTransport::SetFilterHandler(FilterHandler handler) {
  cluster_->SetFilterHandler(site_, std::move(handler));
}

Result<double> SimTransport::ShipFilter(int to_site, const std::string& label,
                                        AttrId attr, const BloomFilter& filter,
                                        ExecContext* bill_to) {
  if (to_site < 0 || to_site >= num_sites()) {
    return Status::InvalidArgument("bad filter destination");
  }
  // Full wire round-trip, as the TCP backend would deliver it. The link
  // carries (and bills) the FilterMessage alone: the [u16 len][label]
  // prefix only routes the shipment inside this process.
  const std::string payload = EncodeFilterShipment(label, attr, filter);
  const size_t message_bytes =
      payload.size() - 2 - std::min<size_t>(label.size(), 0xffff);
  const std::shared_ptr<SimLink>& link = cluster_->mesh()->link(site_,
                                                                to_site);
  double seconds = 0;
  if (link != nullptr) {
    PUSHSIP_RETURN_NOT_OK(link->Transmit(message_bytes, bill_to));
    seconds = link->TransferSeconds(message_bytes);
  }
  PUSHSIP_RETURN_NOT_OK(
      DeliverFilterShipment(payload, cluster_->filter_handler(to_site)));
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
