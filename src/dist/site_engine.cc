#include "dist/site_engine.h"

#include <map>
#include <mutex>

#include "obs/trace.h"
#include "sip/aip_set.h"

namespace pushsip {

SiteEngine::SiteEngine(int id, std::string name,
                       std::shared_ptr<Catalog> catalog)
    : id_(id), name_(std::move(name)), catalog_(std::move(catalog)) {}

SiteEngine::~SiteEngine() = default;

PlanBuilder& SiteEngine::NewFragment() {
  return PublishFragment(NewDetachedFragment());
}

std::unique_ptr<PlanBuilder> SiteEngine::NewDetachedFragment() {
  return std::make_unique<PlanBuilder>(&ctx_, catalog_);
}

PlanBuilder& SiteEngine::PublishFragment(
    std::unique_ptr<PlanBuilder> fragment) {
  // Ledger snapshot before fragments_mu_: AttachRemoteFilter records into
  // the ledger outside that lock, so the order here keeps the two paths
  // free of any lock cycle.
  const std::vector<DeliveredFilterLedger::Entry> delivered =
      delivered_filters_.Snapshot();
  std::lock_guard<std::mutex> lock(fragments_mu_);
  fragments_.push_back(std::move(fragment));
  PlanBuilder& published = *fragments_.back();
  // Re-attach every filter this site already received: shippers memoize
  // successful deliveries per label and never retry them, so without this
  // replay a fragment published mid-query (a migration target) would
  // stream unfiltered for the rest of the run.
  int reattached = 0;
  for (const DeliveredFilterLedger::Entry& entry : delivered) {
    for (TableScan* scan : published.source_scans()) {
      const auto col = scan->output_schema().IndexOfAttr(entry.attr);
      if (!col.ok()) continue;
      if (scan->HasSourceFilter(entry.label)) continue;
      auto filter =
          std::make_shared<AipFilter>(entry.label, *col, entry.set);
      scan->AttachSourceFilter(filter);
      ++reattached;
      std::lock_guard<std::mutex> filter_lock(filter_mu_);
      remote_filters_.push_back(std::move(filter));
    }
  }
  if (reattached > 0) {
    filters_reattached_.fetch_add(reattached, std::memory_order_relaxed);
    if (obs::Trace::enabled()) {
      obs::TraceInstant("aip_reattach",
                        "\"site\":" + std::to_string(id_) +
                            ",\"filters\":" + std::to_string(reattached));
    }
  }
  return published;
}

Status SiteEngine::InstallAip(size_t index, const AipOptions& options,
                              const CostConstants& cost) {
  if (index >= fragments_.size()) {
    return Status::InvalidArgument("no such fragment");
  }
  aip_managers_.push_back(
      std::make_unique<AipManager>(&ctx_, options, cost));
  return aip_managers_.back()->Install(fragments_[index]->sip_info());
}

std::vector<SourceOperator*> SiteEngine::AllSources() const {
  std::vector<SourceOperator*> sources;
  std::lock_guard<std::mutex> lock(fragments_mu_);
  for (const auto& fragment : fragments_) {
    for (SourceOperator* s : fragment->sources()) sources.push_back(s);
  }
  return sources;
}

int SiteEngine::AttachRemoteFilter(AttrId attr,
                                   std::shared_ptr<const AipSet> set,
                                   const std::string& label) {
  // The delivery is recorded even when no current scan carries the attr:
  // a fragment published later (a migration target) may, and the replay in
  // PublishFragment is how it receives filters delivered before it existed.
  delivered_filters_.Record(attr, set, label);
  int attached = 0;
  // Under fragments_mu_: a migration may publish a rebuilt fragment on
  // this site while filters are being delivered.
  std::lock_guard<std::mutex> fragments_lock(fragments_mu_);
  for (const auto& fragment : fragments_) {
    for (TableScan* scan : fragment->source_scans()) {
      const auto col = scan->output_schema().IndexOfAttr(attr);
      if (!col.ok()) continue;
      if (scan->HasSourceFilter(label)) {
        ++attached;  // a previous shipment already covers this scan
        continue;
      }
      auto filter = std::make_shared<AipFilter>(label, *col, set);
      scan->AttachSourceFilter(filter);
      ++attached;
      std::lock_guard<std::mutex> lock(filter_mu_);
      remote_filters_.push_back(std::move(filter));
    }
  }
  if (attached > 0 && obs::Trace::enabled()) {
    obs::TraceInstant("aip_attach", "\"site\":" + std::to_string(id_) +
                                        ",\"label\":\"" + label +
                                        "\",\"scans\":" +
                                        std::to_string(attached));
  }
  return attached;
}

void SiteEngine::SetEndpoint(std::shared_ptr<Transport> endpoint) {
  endpoint->SetFilterHandler(
      [this](const std::string& label, AttrId attr, BloomFilter filter) {
        return AttachRemoteFilter(
            attr, std::make_shared<AipSet>(std::move(filter)), label);
      });
  std::lock_guard<std::mutex> lock(endpoint_mu_);
  endpoint_ = std::move(endpoint);
}

std::shared_ptr<Transport> SiteEngine::endpoint() const {
  std::lock_guard<std::mutex> lock(endpoint_mu_);
  return endpoint_;
}

int64_t SiteEngine::remote_filter_pruned() const {
  std::lock_guard<std::mutex> lock(filter_mu_);
  int64_t pruned = 0;
  for (const auto& f : remote_filters_) pruned += f->pruned_count();
  return pruned;
}

RemoteFilterShipFn MakeFilterShipper(SiteEngine* consumer,
                                     std::vector<int> producer_sites) {
  // Per-label delivery memo, shared across invocations of this shipper: a
  // re-ship after a failure retries only the producers the label never
  // reached, so healthy links are not transmitted over (or billed) twice,
  // and the accumulated link seconds are reported exactly once — when the
  // delivery finally completes.
  struct ShipState {
    std::mutex mu;
    std::map<std::string, std::pair<std::vector<bool>, double>> by_label;
  };
  auto state = std::make_shared<ShipState>();
  return [consumer, producer_sites, state](AttrId attr,
                                           const BloomFilter& filter,
                                           const std::string& label)
             -> Result<double> {
    obs::TraceSpan ship_span("aip_ship", "\"label\":\"" + label + "\"");
    const std::shared_ptr<Transport> endpoint = consumer->endpoint();
    std::lock_guard<std::mutex> lock(state->mu);
    auto& [delivered, seconds] = state->by_label[label];
    delivered.resize(producer_sites.size(), false);
    bool attached = false;
    Status failure = Status::OK();
    for (size_t i = 0; i < producer_sites.size(); ++i) {
      if (delivered[i]) {
        attached = true;  // reached on an earlier attempt
        continue;
      }
      const Result<double> shipped =
          endpoint->ShipFilter(producer_sites[i], label, attr, filter,
                               &consumer->context());
      if (shipped.ok()) {
        seconds += *shipped;
        attached = true;
      } else if (shipped.status().code() != StatusCode::kNotFound) {
        // Unreachable producer: it keeps streaming unfiltered. Report the
        // failure so the AIP manager queues a re-ship for after the
        // recovery, but keep delivering to the reachable producers.
        if (failure.ok()) failure = shipped.status();
        continue;
      }
      delivered[i] = true;
    }
    if (!failure.ok()) return failure;
    if (!attached) {
      return Status::NotFound("no remote scan carries the filtered attr");
    }
    return seconds;
  };
}

}  // namespace pushsip
