// Cost-based AIP (paper §IV-B): a global AIP Manager is triggered whenever
// an input subexpression of a stateful operator completes. It re-invokes
// the optimizer's estimator (UPDATEESTIMATES), evaluates ESTIMATEBENEFIT
// (Fig. 4) over the candidate users precomputed by AIPCANDIDATES (Fig. 3),
// and only builds/injects AIP sets whose predicted savings exceed their
// creation (and, for remote targets, shipping) cost.
#ifndef PUSHSIP_SIP_AIP_MANAGER_H_
#define PUSHSIP_SIP_AIP_MANAGER_H_

#include <map>
#include <memory>
#include <vector>

#include "optimizer/cost_model.h"
#include "sip/aip_registry.h"
#include "sip/sip_plan.h"

namespace pushsip {

/// Per-decision record for diagnostics and the overhead experiments.
struct AipDecision {
  std::string source;     ///< which completed state was considered
  std::string attr_name;  ///< candidate attribute
  double create_cost = 0;
  double savings = 0;
  bool built = false;
};

/// \brief Per-site record of every AIP filter successfully delivered to
/// the site, so a fragment published mid-query (a migration target) can be
/// re-armed with the filters its predecessor already carried. Shippers
/// memoize successful deliveries per label and never retry them, which is
/// exactly why a freshly published fragment would otherwise stream
/// unfiltered forever. Deduplicated by label; thread-safe.
class DeliveredFilterLedger {
 public:
  struct Entry {
    AttrId attr = kInvalidAttr;
    std::shared_ptr<const AipSet> set;
    std::string label;
  };

  /// Records one delivered filter; a label already recorded is ignored
  /// (re-deliveries after a reship carry identical content).
  void Record(AttrId attr, std::shared_ptr<const AipSet> set,
              const std::string& label);

  /// A copy of every recorded delivery, in delivery order.
  std::vector<Entry> Snapshot() const;

  int64_t size() const;

 private:
  mutable std::mutex mu_;
  std::vector<Entry> entries_;
};

/// \brief The cost-based AIP Manager.
class AipManager {
 public:
  AipManager(ExecContext* ctx, AipOptions options = {},
             CostConstants cost_constants = {});

  /// Precomputes candidates (AIPCANDIDATES) and subscribes to input-finished
  /// events. `info.plan` must be non-null and estimated.
  Status Install(const SipPlanInfo& info);

  /// Re-attempts remote Bloom shipments that failed while a link or site
  /// was down, so pruning survives recovery. The multi-site driver calls
  /// this right before replaying a restarted fragment. Idempotent:
  /// receiving sites dedup attachments by filter label, and shipments that
  /// fail again stay queued. Returns how many succeeded this time.
  int ReshipPending();
  /// Shipments still waiting for a reachable producer.
  int64_t pending_reships() const;

  /// The estimated plan Install() bound this manager to (null before).
  const Plan* plan() const { return plan_; }

  // --- statistics ---
  int64_t sets_built() const { return sets_built_.load(); }
  int64_t filters_attached() const { return filters_attached_.load(); }
  int64_t sets_rejected() const { return sets_rejected_.load(); }
  int64_t total_pruned() const;
  int64_t sets_bytes() const;
  /// Simulated seconds spent shipping filters to remote scans.
  double ship_seconds() const { return ship_seconds_; }
  const std::vector<AipDecision>& decisions() const { return decisions_; }

 private:
  /// A (port, column, attribute) place where a class attribute flows.
  struct Candidate {
    StatefulPort sp;
    int col = 0;      ///< column in sp.schema (or in the op state layout)
    AttrId attr = kInvalidAttr;
  };

  /// A remote shipment that could not reach every producer (downed link),
  /// kept for retry after the failed fragment restarts.
  struct PendingShip {
    RemoteFilterShipFn ship;
    AttrId attr = kInvalidAttr;
    BloomFilter bloom{16};
    std::string label;
  };

  void OnInputFinished(Operator* op, int port);

  /// Extracts the completed-state key hashes for `cand`'s column, or empty
  /// when the state is not a faithful snapshot (short-circuited join side).
  std::vector<uint64_t> CompletedStateHashes(const Candidate& cand) const;

  /// ESTIMATEBENEFIT: returns chosen beneficiary targets (empty if the set
  /// is not worth building). `set_keys` is the estimated distinct count.
  std::vector<const Candidate*> EstimateBenefit(const Candidate& source,
                                                double state_tuples,
                                                double set_keys,
                                                AipDecision* decision);

  ExecContext* ctx_;
  AipOptions options_;
  CostModel cost_;
  SourcePredicateGraph graph_;
  Plan* plan_ = nullptr;

  /// cls -> all candidate ports carrying the class (sources AND users).
  std::map<EqClassId, std::vector<Candidate>> candidates_;

  mutable std::mutex mu_;
  std::vector<std::shared_ptr<AipFilter>> filters_;
  std::vector<std::shared_ptr<const AipSet>> sets_;
  std::vector<PendingShip> pending_ships_;
  std::vector<AipDecision> decisions_;
  std::atomic<int64_t> sets_built_{0};
  std::atomic<int64_t> filters_attached_{0};
  std::atomic<int64_t> sets_rejected_{0};
  double ship_seconds_ = 0;
};

}  // namespace pushsip

#endif  // PUSHSIP_SIP_AIP_MANAGER_H_
