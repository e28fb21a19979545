// SiteEngine: one Tukwila node. A site owns a partition of the catalog
// (its local tables / shards), an ExecContext shared by the plan fragments
// placed on it, its transport endpoint (the one way its frames and AIP
// filters leave it), and the attach point for AIP filters shipped to it.
#ifndef PUSHSIP_DIST_SITE_ENGINE_H_
#define PUSHSIP_DIST_SITE_ENGINE_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "dist/exchange.h"
#include "net/fault_injector.h"
#include "net/mesh.h"
#include "net/transport/transport.h"
#include "sip/aip_manager.h"
#include "workload/plan_builder.h"

namespace pushsip {

/// \brief One site: catalog partition + execution context + fragments.
class SiteEngine {
 public:
  SiteEngine(int id, std::string name, std::shared_ptr<Catalog> catalog);
  ~SiteEngine();

  int id() const { return id_; }
  const std::string& name() const { return name_; }
  ExecContext& context() { return ctx_; }
  const std::shared_ptr<Catalog>& catalog() const { return catalog_; }

  /// Creates a new (empty) plan fragment hosted on this site. The returned
  /// builder is owned by the engine and shares the site's ExecContext.
  /// Assembly-time only: the fragment is immediately visible to
  /// AttachRemoteFilter, so it must not be populated while the query runs
  /// (use NewDetachedFragment/PublishFragment for that).
  PlanBuilder& NewFragment();

  /// Mid-query fragment construction (migration rebuilds): the returned
  /// builder is bound to this site's context and catalog but not yet
  /// visible to concurrent AttachRemoteFilter calls; hand it to
  /// PublishFragment once fully built.
  std::unique_ptr<PlanBuilder> NewDetachedFragment();
  PlanBuilder& PublishFragment(std::unique_ptr<PlanBuilder> fragment);

  const std::vector<std::unique_ptr<PlanBuilder>>& fragments() const {
    return fragments_;
  }

  /// Installs a cost-based AIP Manager over fragment `index` (call after
  /// the fragment is finished). The manager lives as long as the engine.
  Status InstallAip(size_t index, const AipOptions& options,
                    const CostConstants& cost);
  const std::vector<std::unique_ptr<AipManager>>& aip_managers() const {
    return aip_managers_;
  }

  /// Source operators of every fragment on this site, in creation order.
  std::vector<SourceOperator*> AllSources() const;

  /// Attaches `set` as a source filter on every scan of this site whose
  /// schema carries `attr` (the delivery end of cross-site AIP shipping).
  /// Returns the number of scans now carrying the filter. Idempotent per
  /// `label`: a scan that already holds a filter with this label (a
  /// previous shipment, surviving a fragment restart) is counted but not
  /// double-filtered, which makes post-recovery re-shipping safe.
  /// Thread-safe against concurrently running fragments.
  int AttachRemoteFilter(AttrId attr, std::shared_ptr<const AipSet> set,
                         const std::string& label);

  /// Moves this site onto `endpoint` (a sim endpoint at assembly, a TCP
  /// one when WireTransport moves it): filters shipped to the site arrive
  /// through the endpoint's handler, and every edge and filter shipment
  /// the site opens from now on leaves through it.
  void SetEndpoint(std::shared_ptr<Transport> endpoint);
  /// Null for a site of a query without cuts.
  std::shared_ptr<Transport> endpoint() const;

  /// Tuples pruned at this site's scans by remotely shipped filters.
  int64_t remote_filter_pruned() const;

  /// AIP filters re-attached to fragments published mid-query: every
  /// delivery recorded by AttachRemoteFilter is replayed onto the scans of
  /// each later PublishFragment, so a migrated fragment starts with the
  /// pruning its predecessor had (shippers never retry a delivered label).
  int64_t filters_reattached() const {
    return filters_reattached_.load(std::memory_order_relaxed);
  }

 private:
  int id_;
  std::string name_;
  std::shared_ptr<Catalog> catalog_;
  ExecContext ctx_;
  mutable std::mutex endpoint_mu_;
  std::shared_ptr<Transport> endpoint_;
  /// Guards fragments_ against the one mid-query mutation (PublishFragment
  /// during a migration) racing concurrent AttachRemoteFilter iterations.
  mutable std::mutex fragments_mu_;
  std::vector<std::unique_ptr<PlanBuilder>> fragments_;
  std::vector<std::unique_ptr<AipManager>> aip_managers_;

  mutable std::mutex filter_mu_;
  std::vector<std::shared_ptr<AipFilter>> remote_filters_;

  /// Every filter ever delivered to this site, replayed onto fragments
  /// published after the delivery.
  DeliveredFilterLedger delivered_filters_;
  std::atomic<int64_t> filters_reattached_{0};
};

/// Builds the RemoteFilterShipFn for a port of `consumer` whose stream is
/// produced at `producer_sites`. Each call ships the Bloom summary from the
/// consumer's endpoint as it is at that moment (Transport::ShipFilter,
/// billed to the consumer's context) to every producer site, whose filter
/// handler attaches it to the matching scans. Returns the link seconds the
/// shipments occupied. A per-label memo makes re-ships idempotent: a
/// re-ship after a failure retries only the producers the label never
/// reached. kNotFound when every delivery reported that no scan carries
/// the attr.
RemoteFilterShipFn MakeFilterShipper(SiteEngine* consumer,
                                     std::vector<int> producer_sites);

}  // namespace pushsip

#endif  // PUSHSIP_DIST_SITE_ENGINE_H_
