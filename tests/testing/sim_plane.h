// A sim data plane for tests that build exchange edges by hand: one
// SimTransport endpoint per site over a SiteMesh, exactly as the
// PlanFragmenter gives every site of a query. Edge() binds a channel at
// its consumer's endpoint (once, under a fresh id) and opens the sending
// edge on the producer's endpoint, so hand-built senders transmit through
// the same path as assembled ones: a mesh link transmit plus enqueue, or a
// loopback when producer and consumer share a site.
#ifndef PUSHSIP_TESTS_TESTING_SIM_PLANE_H_
#define PUSHSIP_TESTS_TESTING_SIM_PLANE_H_

#include <map>
#include <memory>
#include <vector>

#include "dist/exchange.h"
#include "net/mesh.h"
#include "net/transport/sim_transport.h"

namespace pushsip::testing {

class SimPlane {
 public:
  explicit SimPlane(int num_sites, double bandwidth_bps = 1e12,
                    double latency_ms = 0)
      : mesh_(std::make_shared<SiteMesh>(num_sites, bandwidth_bps,
                                         latency_ms)),
        cluster_(std::make_shared<SimCluster>(mesh_)) {
    for (int s = 0; s < num_sites; ++s) {
      endpoints_.push_back(std::make_shared<SimTransport>(cluster_, s));
    }
  }

  const std::shared_ptr<SiteMesh>& mesh() const { return mesh_; }
  const std::shared_ptr<SimTransport>& endpoint(int site) const {
    return endpoints_[static_cast<size_t>(site)];
  }

  /// The destination of an edge from site `from` into `channel`, consumed
  /// at site `to`.
  ExchangeDestination Edge(int from, int to,
                           const std::shared_ptr<ExchangeChannel>& channel) {
    auto [it, fresh] = ids_.emplace(channel.get(),
                                    static_cast<uint32_t>(ids_.size()));
    if (fresh) {
      channel->set_consumer_site(to);
      endpoint(to)->BindChannel(it->second, channel).CheckOK();
    }
    auto edge = endpoint(from)->OpenChannel(it->second, to);
    edge.status().CheckOK();
    return {channel, it->second, *edge};
  }

 private:
  std::shared_ptr<SiteMesh> mesh_;
  std::shared_ptr<SimCluster> cluster_;
  std::vector<std::shared_ptr<SimTransport>> endpoints_;
  std::map<const ExchangeChannel*, uint32_t> ids_;
};

}  // namespace pushsip::testing

#endif  // PUSHSIP_TESTS_TESTING_SIM_PLANE_H_
