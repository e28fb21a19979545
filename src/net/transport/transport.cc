#include "net/transport/transport.h"

#include "obs/trace.h"

namespace pushsip {

Status DirectChannelSender::SendFrame(std::string bytes, ExecContext* bill_to,
                                      double* link_seconds) {
  const size_t n = bytes.size();
  // The link is charged before enqueueing — the producer thread owes the
  // transfer time, not the receiver — and a downed link fails the frame
  // before it reaches the queue, so enqueued means delivered.
  if (link_ != nullptr) {
    PUSHSIP_RETURN_NOT_OK(link_->Transmit(n, bill_to));
    if (link_seconds != nullptr) *link_seconds += link_->TransferSeconds(n);
  }
  double stalled = 0;
  const bool sent = channel_->SendBatch(std::move(bytes), &stalled);
  if (stalled > 0) {
    stall_micros_.fetch_add(static_cast<int64_t>(stalled * 1e6));
    if (obs::Trace::enabled()) {
      // The stall already elapsed inside SendBatch; backdate the span.
      const int64_t end_us = obs::Trace::NowMicros();
      obs::TraceCompleteSpan(
          "exchange_credit_stall",
          end_us - static_cast<int64_t>(stalled * 1e6), end_us,
          "\"to_site\":" + std::to_string(to_site_) +
              ",\"channel\":" + std::to_string(channel_id_));
    }
  }
  if (!sent) return Status::Cancelled("exchange channel cancelled");
  bytes_sent_.fetch_add(static_cast<int64_t>(n));
  return Status::OK();
}

std::string EncodeFilterShipment(const std::string& label, AttrId attr,
                                 const BloomFilter& filter) {
  std::string out;
  const uint16_t len = static_cast<uint16_t>(
      label.size() > 0xffff ? 0xffff : label.size());
  out.push_back(static_cast<char>(len & 0xff));
  out.push_back(static_cast<char>((len >> 8) & 0xff));
  out.append(label.data(), len);
  out.append(SerializeFilterMessage(attr, filter));
  return out;
}

Result<FilterShipment> DecodeFilterShipment(const std::string& payload) {
  if (payload.size() < 2) {
    return Status::InvalidArgument("filter shipment: truncated header");
  }
  const size_t len =
      static_cast<size_t>(static_cast<uint8_t>(payload[0])) |
      static_cast<size_t>(static_cast<uint8_t>(payload[1])) << 8;
  if (payload.size() < 2 + len) {
    return Status::InvalidArgument("filter shipment: truncated label");
  }
  FilterShipment out;
  out.label.assign(payload.data() + 2, len);
  PUSHSIP_ASSIGN_OR_RETURN(
      FilterMessage msg,
      DeserializeFilterMessage(payload.substr(2 + len)));
  out.attr = msg.attr;
  out.filter = std::move(msg.filter);
  return out;
}

Status DeliverFilterShipment(const std::string& payload,
                             const Transport::FilterHandler& handler) {
  if (handler == nullptr) {
    return Status::NotFound("destination site has no filter handler");
  }
  PUSHSIP_ASSIGN_OR_RETURN(FilterShipment decoded,
                           DecodeFilterShipment(payload));
  if (handler(decoded.label, decoded.attr, std::move(decoded.filter)) == 0) {
    return Status::NotFound("no scan at the destination carries the attr");
  }
  return Status::OK();
}

}  // namespace pushsip
