// SimTransport: the simulator behind the Transport interface, and the
// default data plane of every distributed query (the PlanFragmenter gives
// each site of a query one endpoint over the query's mesh). One SimCluster
// (the SiteMesh plus the query's channel/handler registry) backs N
// SimTransport endpoints, one per site — everything stays in-process and
// deterministic, FaultInjector schedules fire on the mesh's SimLinks, and
// flow control is the ExchangeChannel's own frame/byte caps. Edges are
// DirectChannelSenders over the mesh link (none for a loopback), resolved
// to their channel once, when opened. Filter delivery is synchronous, so
// ShipFilter reports kNotFound when no scan at the destination carries
// the attr. The conformance suite runs the same battery over this backend
// and the TCP one.
#ifndef PUSHSIP_NET_TRANSPORT_SIM_TRANSPORT_H_
#define PUSHSIP_NET_TRANSPORT_SIM_TRANSPORT_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/mesh.h"
#include "net/transport/transport.h"

namespace pushsip {

/// Shared state of an in-process simulated cluster.
class SimCluster {
 public:
  explicit SimCluster(std::shared_ptr<SiteMesh> mesh)
      : mesh_(std::move(mesh)) {}

  const std::shared_ptr<SiteMesh>& mesh() const { return mesh_; }

  Status Bind(uint32_t channel_id, std::shared_ptr<ExchangeChannel> channel);
  std::shared_ptr<ExchangeChannel> Lookup(uint32_t channel_id) const;
  void SetFilterHandler(int site, Transport::FilterHandler handler);
  Transport::FilterHandler filter_handler(int site) const;

 private:
  std::shared_ptr<SiteMesh> mesh_;
  mutable std::mutex mu_;
  std::unordered_map<uint32_t, std::shared_ptr<ExchangeChannel>> channels_;
  std::unordered_map<int, Transport::FilterHandler> handlers_;
};

/// One site's endpoint of a SimCluster.
class SimTransport : public Transport {
 public:
  SimTransport(std::shared_ptr<SimCluster> cluster, int site)
      : cluster_(std::move(cluster)), site_(site) {}
  /// Leaves the bound channels alone: they belong to the query, which
  /// cancels them on teardown, and a site moved onto another endpoint
  /// (WireTransport) keeps consuming them after this one is dropped.
  ~SimTransport() override = default;

  const char* backend() const override { return "sim"; }
  int local_site() const override { return site_; }
  int num_sites() const override { return cluster_->mesh()->num_sites(); }

  Status Start() override { return Status::OK(); }
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

 private:
  std::shared_ptr<SimCluster> cluster_;
  int site_;
  std::mutex mu_;
  std::vector<std::shared_ptr<ExchangeChannel>> bound_;  // for Shutdown
};

}  // namespace pushsip

#endif  // PUSHSIP_NET_TRANSPORT_SIM_TRANSPORT_H_
