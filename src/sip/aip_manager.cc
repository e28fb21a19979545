#include "sip/aip_manager.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>

#include "exec/distinct.h"
#include "exec/hash_aggregate.h"
#include "exec/hash_join.h"
#include "net/sim_link.h"
#include "net/wire_format.h"
#include "obs/trace.h"
#include "optimizer/cardinality.h"

namespace pushsip {

namespace {
// Remote shipping always moves a Bloom summary (paper §V); for kHash sets
// a Bloom is derived from the same key hashes.
BloomFilter BloomFromHashes(const std::vector<uint64_t>& hashes,
                            double target_fpr) {
  BloomFilter bloom(std::max<size_t>(16, hashes.size()), target_fpr, 1);
  for (const uint64_t h : hashes) bloom.Insert(h);
  return bloom;
}
}  // namespace

AipManager::AipManager(ExecContext* ctx, AipOptions options,
                       CostConstants cost_constants)
    : ctx_(ctx), options_(options), cost_(cost_constants) {}

Status AipManager::Install(const SipPlanInfo& info) {
  if (info.plan == nullptr) {
    return Status::InvalidArgument("cost-based AIP requires a Plan");
  }
  plan_ = info.plan;
  for (const auto& [a, b] : info.equalities) graph_.AddEquality(a, b);

  // AIPCANDIDATES (paper Fig. 3): every stateful-operator input column whose
  // attribute is transitively equated to one produced elsewhere is both a
  // potential source (its state) and a potential user (its arrivals).
  for (const StatefulPort& sp : info.stateful_ports) {
    for (size_t c = 0; c < sp.schema.num_fields(); ++c) {
      const AttrId attr = sp.schema.field(c).attr;
      if (attr == kInvalidAttr || !graph_.HasPeers(attr)) continue;
      Candidate cand;
      cand.sp = sp;
      cand.col = static_cast<int>(c);
      cand.attr = attr;
      candidates_[graph_.ClassOf(attr)].push_back(std::move(cand));
    }
  }

  ctx_->AddInputFinishedHook(
      [this](Operator* op, int port) { OnInputFinished(op, port); });
  return Status::OK();
}

std::vector<uint64_t> AipManager::CompletedStateHashes(
    const Candidate& cand) const {
  Operator* op = cand.sp.op;
  if (auto* join = dynamic_cast<SymmetricHashJoin*>(op)) {
    // Only a side that buffered its entire input is a valid source.
    if (!join->StateCompleteAtFinish(cand.sp.port)) return {};
    return join->StateColumnHashes(cand.sp.port, cand.col);
  }
  if (auto* agg = dynamic_cast<HashAggregate*>(op)) {
    // The aggregate's state is keyed by group columns; the candidate
    // attribute must be one of them. Map via the output schema.
    const auto idx = agg->output_schema().IndexOfAttr(cand.attr);
    if (!idx.ok()) return {};
    return agg->StateColumnHashes(*idx);
  }
  if (auto* distinct = dynamic_cast<DistinctOp*>(op)) {
    return distinct->StateColumnHashes(cand.col);
  }
  return {};
}

namespace {
// Walks up from `node`, collecting ancestors until (exclusive) `stop`.
void AddAncestorsUpTo(const PlanNode* node, const PlanNode* stop,
                      std::vector<const PlanNode*>* used) {
  for (const PlanNode* a = node->parent; a != nullptr && a != stop;
       a = a->parent) {
    used->push_back(a);
  }
}

const PlanNode* CommonAncestor(const PlanNode* a, const PlanNode* b) {
  std::vector<const PlanNode*> path;
  for (const PlanNode* n = a; n != nullptr; n = n->parent) path.push_back(n);
  for (const PlanNode* n = b; n != nullptr; n = n->parent) {
    if (std::find(path.begin(), path.end(), n) != path.end()) return n;
  }
  return nullptr;
}
}  // namespace

std::vector<const AipManager::Candidate*> AipManager::EstimateBenefit(
    const Candidate& source, double state_tuples, double set_keys,
    AipDecision* decision) {
  decision->create_cost = cost_.CreateCost(state_tuples);

  const PlanNode* source_node = plan_->InputNode(source.sp.op, source.sp.port);
  const EqClassId cls = graph_.ClassOf(source.attr);
  std::vector<const Candidate*> users;
  for (const Candidate& c : candidates_[cls]) {
    if (c.sp.op == source.sp.op && c.sp.port == source.sp.port) continue;
    if (c.sp.op->input_finished(c.sp.port)) continue;
    users.push_back(&c);
  }
  // "in inverse order of depth in Q": deepest (lowest) nodes first.
  std::sort(users.begin(), users.end(),
            [](const Candidate* a, const Candidate* b) {
              return a->sp.depth > b->sp.depth;
            });

  double savings = 0;
  std::vector<const PlanNode*> used;
  std::vector<const Candidate*> beneficiaries;
  for (const Candidate* u : users) {
    const PlanNode* node_in = plan_->InputNode(u->sp.op, u->sp.port);
    if (node_in == nullptr) continue;
    if (std::find(used.begin(), used.end(), node_in) != used.end()) continue;

    const double remaining = plan_->EstimatedRowsRemaining(u->sp.op, u->sp.port);
    if (remaining <= 0) continue;
    const double ndv_here =
        node_in->ndv.count(u->attr) ? node_in->ndv.at(u->attr)
                                    : std::max(1.0, node_in->est_rows);
    const double pass = SemijoinSelectivity(set_keys, ndv_here);
    double pruned = remaining * (1.0 - pass);
    if (options_.kind == AipSetKind::kBloom) {
      pruned *= 1.0 - options_.target_fpr;  // false positives survive
    }
    // COST(n ⋈ n') - COST((n ⋉ A) ⋈ n'): savings downstream of the filter,
    // minus the probing cost on every arriving tuple.
    double benefit = pruned * cost_.DownstreamCostPerTuple(node_in) -
                     cost_.ProbeCost(remaining);
    // A summary built from hash-partitioned state covers only this site's
    // key range and must stay local (it would falsely prune other
    // partitions' rows at a shared remote scan), so no link savings apply.
    const bool remote_target =
        (u->sp.direct_scan != nullptr && u->sp.scan_is_remote) ||
        (u->sp.remote_ship != nullptr && !source.sp.state_is_partitioned);
    if (remote_target) {
      // Distributed extension: pruned tuples also skip the link. Prefer
      // the observed wire bytes/row (which reflects the compressed wire
      // format) over the static average-footprint guess, so
      // compression shifts the ship-vs-save tradeoff the way it should.
      constexpr double kDefaultRowBytes = 64.0;
      double row_bytes = ctx_->observed_wire_bytes_per_row();
      if (row_bytes <= 0) row_bytes = kDefaultRowBytes;
      benefit += pruned * row_bytes * cost_.constants().ship_per_byte;
    }
    if (benefit > 0) {
      savings += benefit;
      beneficiaries.push_back(u);
      // Fig. 4 lines 12-15: don't double-count filtering the ancestors of a
      // node we already filter.
      AddAncestorsUpTo(node_in, CommonAncestor(node_in, source_node), &used);
      used.push_back(node_in);
    }
  }

  // Remote beneficiaries incur a one-time ship cost for the filter bytes.
  double ship_cost = 0;
  const double set_bytes =
      BloomFilter(static_cast<size_t>(std::max(16.0, set_keys)),
                  options_.target_fpr, 1)
          .SizeBytes();
  for (const Candidate* u : beneficiaries) {
    if ((u->sp.direct_scan != nullptr && u->sp.scan_is_remote) ||
        (u->sp.remote_ship != nullptr && !source.sp.state_is_partitioned)) {
      ship_cost += cost_.ShipCost(set_bytes);
    }
  }

  decision->savings = savings;
  if (savings <= decision->create_cost + ship_cost) return {};
  return beneficiaries;
}

void AipManager::OnInputFinished(Operator* op, int port) {
  // UPDATEESTIMATES: fold observed cardinalities into the plan estimates.
  {
    std::lock_guard<std::mutex> lock(mu_);
    plan_->Reestimate();
  }

  // Consider every candidate attribute of the completed input as a source.
  for (auto& [cls, cands] : candidates_) {
    for (const Candidate& cand : cands) {
      if (cand.sp.op != op || cand.sp.port != port) continue;

      std::vector<uint64_t> hashes = CompletedStateHashes(cand);
      if (hashes.empty()) continue;

      // Estimate distinct keys: the state of joins may repeat key values;
      // dedup cheaply through a sort.
      std::vector<uint64_t> unique = hashes;
      std::sort(unique.begin(), unique.end());
      unique.erase(std::unique(unique.begin(), unique.end()), unique.end());

      AipDecision decision;
      decision.source = op->name() + "#" + std::to_string(port);
      decision.attr_name = cand.sp.schema.field(
          static_cast<size_t>(cand.col)).name;

      std::vector<const Candidate*> beneficiaries;
      {
        std::lock_guard<std::mutex> lock(mu_);
        beneficiaries = EstimateBenefit(
            cand, static_cast<double>(hashes.size()),
            static_cast<double>(unique.size()), &decision);
      }
      if (beneficiaries.empty()) {
        sets_rejected_.fetch_add(1);
        std::lock_guard<std::mutex> lock(mu_);
        decisions_.push_back(std::move(decision));
        continue;
      }

      // Build the AIP set from the operator's completed state (§IV-B: scan
      // the state within the operator and construct the set).
      auto set = std::make_shared<AipSet>(options_.kind, unique.size(),
                                          options_.target_fpr);
      for (const uint64_t h : unique) set->Insert(h);
      set->Seal();
      sets_built_.fetch_add(1);
      decision.built = true;

      for (const Candidate* u : beneficiaries) {
        const std::string label = "cb:" + decision.source + "->" +
                                  u->sp.op->name() + "#" +
                                  std::to_string(u->sp.port);
        auto filter = std::make_shared<AipFilter>(label, u->col, set);
        if (u->sp.remote_ship != nullptr && !cand.sp.state_is_partitioned) {
          // The port is fed by an exchange from another site and the source
          // state covers the full key domain: serialize the Bloom summary
          // and deliver it to the producing fragment(s), where it attaches
          // before the link. (Partition-local state is handled by the final
          // else branch — a local port filter — because shipping it would
          // prune other partitions' rows at the shared remote scans.)
          const BloomFilter* bloom = set->bloom();
          std::optional<BloomFilter> derived;
          if (bloom == nullptr) {
            derived = BloomFromHashes(unique, options_.target_fpr);
            bloom = &*derived;
          }
          const Result<double> secs = u->sp.remote_ship(u->attr, *bloom,
                                                        label);
          if (secs.ok()) {
            filters_attached_.fetch_add(1);
            std::lock_guard<std::mutex> lock(mu_);
            ship_seconds_ += *secs;
            continue;
          }
          if (secs.status().code() == StatusCode::kUnavailable) {
            // A downed link kept the summary from (some of) the producers.
            // Queue a copy (only this failure path pays for it): the
            // multi-site driver re-ships when the failed fragment
            // restarts, so pruning survives recovery.
            std::lock_guard<std::mutex> lock(mu_);
            pending_ships_.push_back(
                PendingShip{u->sp.remote_ship, u->attr, *bloom, label});
          }
          // Meanwhile (or when no remote attach point resolved) fall back
          // to pruning locally at the port — saves downstream CPU, not the
          // wire.
          u->sp.op->AttachFilter(u->sp.port, filter);
        } else if (u->sp.direct_scan != nullptr && u->sp.scan_is_remote) {
          // Ship the Bloom filter across the scan's link before it becomes
          // active at the remote source. When the physical link is known the
          // serialized filter crosses (and is billed to) that link;
          // otherwise fall back to the cost model's assumed bandwidth.
          double secs;
          if (u->sp.scan_link != nullptr) {
            const std::string bytes = SerializeFilterMessage(
                u->attr, set->bloom() != nullptr
                             ? *set->bloom()
                             : BloomFromHashes(unique, options_.target_fpr));
            secs = u->sp.scan_link->TransferSeconds(bytes.size());
            // RemoteNode links carry no fault injector; ignore the status.
            (void)u->sp.scan_link->Transmit(bytes.size(), ctx_);
          } else {
            secs = static_cast<double>(set->SizeBytes()) /
                   options_.ship_bandwidth_bytes_per_sec;
            std::this_thread::sleep_for(std::chrono::duration<double>(secs));
          }
          {
            std::lock_guard<std::mutex> lock(mu_);
            ship_seconds_ += secs;
          }
          u->sp.direct_scan->AttachSourceFilter(filter);
        } else if (u->sp.direct_scan != nullptr) {
          // Local scan feeding the port directly: prefilter at the scan so
          // pruned tuples skip the whole edge.
          u->sp.direct_scan->AttachSourceFilter(filter);
        } else {
          u->sp.op->AttachFilter(u->sp.port, filter);
        }
        filters_attached_.fetch_add(1);
        std::lock_guard<std::mutex> lock(mu_);
        filters_.push_back(std::move(filter));
      }
      std::lock_guard<std::mutex> lock(mu_);
      sets_.push_back(std::move(set));
      decisions_.push_back(std::move(decision));
    }
  }
}

int AipManager::ReshipPending() {
  std::vector<PendingShip> pending;
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending.swap(pending_ships_);
  }
  int shipped = 0;
  for (PendingShip& p : pending) {
    const Result<double> secs = p.ship(p.attr, p.bloom, p.label);
    if (secs.ok()) {
      ++shipped;
      filters_attached_.fetch_add(1);
      obs::TraceInstant("aip_reship", "\"label\":\"" + p.label + "\"");
      std::lock_guard<std::mutex> lock(mu_);
      ship_seconds_ += *secs;
      continue;
    }
    if (secs.status().code() == StatusCode::kUnavailable) {
      // Still unreachable; keep it queued for the next recovery round.
      std::lock_guard<std::mutex> lock(mu_);
      pending_ships_.push_back(std::move(p));
    }
  }
  return shipped;
}

int64_t AipManager::pending_reships() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(pending_ships_.size());
}

int64_t AipManager::total_pruned() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t pruned = 0;
  for (const auto& f : filters_) pruned += f->pruned_count();
  return pruned;
}

int64_t AipManager::sets_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t bytes = 0;
  for (const auto& s : sets_) bytes += static_cast<int64_t>(s->SizeBytes());
  return bytes;
}

void DeliveredFilterLedger::Record(AttrId attr,
                                   std::shared_ptr<const AipSet> set,
                                   const std::string& label) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Entry& entry : entries_) {
    if (entry.label == label) return;
  }
  entries_.push_back(Entry{attr, std::move(set), label});
}

std::vector<DeliveredFilterLedger::Entry> DeliveredFilterLedger::Snapshot()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_;
}

int64_t DeliveredFilterLedger::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(entries_.size());
}

}  // namespace pushsip
