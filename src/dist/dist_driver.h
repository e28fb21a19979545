// MultiSiteDriver: runs every fragment of a distributed query — one
// producer thread per source operator across all sites, Tukwila-style —
// supervises fragment failures, and aggregates the per-site statistics
// into one DistQueryStats.
//
// Failure handling: a fragment whose source fails with kUnavailable (a
// downed link or site, usually injected by a FaultInjector) is restarted
// when it is *replayable* — exactly one TableScan source in window-batch
// mode, a stateless operator chain, and an ExchangeSender terminal whose
// frame seqs are bound to the scan's window index. The driver heals fired
// faults (the site "reboots"), resets the fragment's operators, asks every
// AIP manager to re-ship Bloom summaries that failed to reach a producer
// during the outage, and replays the fragment from its scan. Streams are
// deterministic, so the replay re-produces every frame under its original
// (epoch-incremented) seq and the consuming receivers drop the prefix they
// already passed downstream. Any other failure cancels the whole query.
#ifndef PUSHSIP_DIST_DIST_DRIVER_H_
#define PUSHSIP_DIST_DIST_DRIVER_H_

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dist/checkpoint.h"
#include "dist/site_engine.h"
#include "exec/driver.h"
#include "exec/profile.h"

namespace pushsip {

/// How a counter folds across sites' reports.
enum class CounterMerge { kSum, kMax };

/// Measurements of one distributed query execution. The inherited
/// QueryStats counters are folded over every site: peak_state_bytes sums
/// the per-site peaks, and bytes_shipped/link_seconds count what crossed
/// the mesh (billed to the sites' contexts) or the transport (batches and
/// shipped filters).
struct DistQueryStats : QueryStats {
  /// Payload bytes handed to exchange senders — includes same-site
  /// deliveries that never crossed a link, so it can exceed bytes_shipped.
  /// The profile tree's per-sender bytes sum to exactly this.
  int64_t payload_bytes = 0;
  // AIP bookkeeping, summed over all sites' managers.
  int64_t aip_sets = 0;
  int64_t aip_filters = 0;
  double aip_ship_seconds = 0;
  // Failure/recovery bookkeeping.
  int64_t fragment_restarts = 0;   ///< replays the supervisor performed
  int64_t batches_discarded = 0;   ///< duplicate/stale frames dropped
  int64_t faults_injected = 0;     ///< transmissions the injector failed
  int64_t aip_reships = 0;         ///< Bloom shipments retried successfully
  // Adaptive-runtime bookkeeping (zero unless an AdaptiveSupervisor ran).
  int64_t stragglers_detected = 0;  ///< fragments preempted for lagging
  int64_t fragment_migrations = 0;  ///< restarts placed on another site
  int64_t recalibrations = 0;       ///< observed-cardinality feedbacks
  // Retired wire-encoding counters: the fallbacks they counted no longer
  // exist, so nothing writes them and they always read 0. They stay
  // declared (and listed below) only because perfbench/load.cc reads them.
  int64_t encode_transposes = 0;
  int64_t dict_reships = 0;
  // Stateful-fragment checkpoint/recovery bookkeeping (zero unless the
  // query registered stateful_fragments with checkpointing enabled).
  int64_t checkpoints_taken = 0;  ///< consistent cuts captured
  int64_t checkpoint_bytes = 0;   ///< serialized bytes across all cuts
  int64_t state_recoveries = 0;   ///< restarts restored from a checkpoint
  double restore_seconds = 0;     ///< wall seconds spent restoring state
  /// AIP filters re-attached to fragments published mid-query (migration
  /// targets receive every filter their predecessor already had).
  int64_t aip_reattached = 0;

  /// The counter list: `visit(member, merge)` once per counter, inherited
  /// ones included, in a fixed order. Merge() and the site report's
  /// encode/decode are generated from it (dist_driver.cc asserts it lists
  /// every field), so a new counter is declared above and listed here.
  template <typename Visit>
  static constexpr void ForEachCounter(Visit&& visit) {
    using M = CounterMerge;
    visit(&DistQueryStats::elapsed_sec, M::kMax);  // the slowest site
    visit(&DistQueryStats::result_rows, M::kSum);
    visit(&DistQueryStats::peak_state_bytes, M::kSum);
    visit(&DistQueryStats::rows_pruned, M::kSum);
    visit(&DistQueryStats::rows_source_pruned, M::kSum);
    visit(&DistQueryStats::bytes_shipped, M::kSum);
    visit(&DistQueryStats::link_seconds, M::kSum);
    visit(&DistQueryStats::stall_seconds, M::kSum);
    visit(&DistQueryStats::payload_bytes, M::kSum);
    visit(&DistQueryStats::aip_sets, M::kSum);
    visit(&DistQueryStats::aip_filters, M::kSum);
    visit(&DistQueryStats::aip_ship_seconds, M::kSum);
    visit(&DistQueryStats::fragment_restarts, M::kSum);
    visit(&DistQueryStats::batches_discarded, M::kSum);
    visit(&DistQueryStats::faults_injected, M::kSum);
    visit(&DistQueryStats::aip_reships, M::kSum);
    visit(&DistQueryStats::stragglers_detected, M::kSum);
    visit(&DistQueryStats::fragment_migrations, M::kSum);
    visit(&DistQueryStats::recalibrations, M::kSum);
    visit(&DistQueryStats::encode_transposes, M::kSum);
    visit(&DistQueryStats::dict_reships, M::kSum);
    visit(&DistQueryStats::checkpoints_taken, M::kSum);
    visit(&DistQueryStats::checkpoint_bytes, M::kSum);
    visit(&DistQueryStats::state_recoveries, M::kSum);
    visit(&DistQueryStats::restore_seconds, M::kSum);
    visit(&DistQueryStats::aip_reattached, M::kSum);
  }

  /// Folds another site's report into this one, counter by counter.
  void Merge(const DistQueryStats& other);
};

/// Returns the TableScan a replay of `fragment` would restart from, or
/// nullptr when the fragment is not replayable (multiple sources, exchange
/// or non-window-batched sources, stateful operators, or a terminal that
/// is not an ExchangeSender).
TableScan* FragmentReplayScan(const PlanBuilder& fragment);

/// Binds the fragment's ExchangeSender to its scan's window index when the
/// fragment has the replayable shape, making it eligible for restart.
/// Returns true iff the binding was made.
bool EnableFragmentReplay(PlanBuilder& fragment);

/// A fragment freshly materialized on another site by a rebuild recipe.
struct RebuiltFragment {
  PlanBuilder* fragment = nullptr;  ///< owned by the hosting SiteEngine
  TableScan* scan = nullptr;  ///< the replay scan (seq source); null when
                              ///< the fragment is exchange-fed (stateful)
  ExchangeSender* sender = nullptr; ///< terminal; AdoptStream pending
};

/// Re-materializes one fragment on an arbitrary host site, scanning the
/// *original* partition (migration assumes the shard's data is readable
/// from the destination — a replica; the simulation shares the TablePtr)
/// and reading the original input channels. The recipe must feed the same
/// channels with the same schema so consumers cannot tell a migrated
/// producer from a rebooted one. Built detached and published only when
/// complete: recipes run mid-query, concurrently with filter attachment.
using FragmentRebuildFn =
    std::function<Result<RebuiltFragment>(SiteEngine& host)>;

/// Assembly-time registration of a fragment the adaptive runtime may move:
/// populated by the PlanFragmenter for every replayable or stateful
/// fragment, consumed by adaptive::InstallAdaptiveRuntime.
struct MigratableFragmentSpec {
  PlanBuilder* fragment = nullptr;
  TableScan* scan = nullptr;
  ExchangeSender* sender = nullptr;
  /// Stage label shared by the peer fragments this one races against (the
  /// straggler detector compares window progress within a stage).
  std::string stage;
  int home_site = 0;
  /// The fragmenter's one recipe, which re-materializes the fragment's
  /// logical subtree. A null recipe would leave the fragment monitored and
  /// restartable only in place.
  FragmentRebuildFn rebuild;
};

/// Assembly-time registration of a consumer-side exchange leaf: which plan
/// node models the stream arriving over `channel`. The adaptive runtime
/// feeds observed producer cardinalities into the node as producers finish.
struct ExchangeConsumerSpec {
  const ExchangeChannel* channel = nullptr;
  PlanNode* node = nullptr;
};

/// Assembly-time registration of a *stateful* fragment (exchange sources
/// feeding hash joins / aggregates) the supervisor can recover after a
/// failure: quiesce and replay its producers, restore operator state and
/// replay progress from the fragment's last checkpoint, and resume at the
/// next epoch. Recovery is refused once the fragment's terminal sender has
/// emitted anything (non-replayable output cannot be recalled) and in
/// multi-process mode (the checkpoint lives in the failed process).
struct StatefulFragmentSpec {
  PlanBuilder* fragment = nullptr;
  /// Owns the fragment's consistent cuts; Bind() already called on
  /// `fragment` at assembly time.
  std::shared_ptr<FragmentCheckpointer> checkpointer;
  /// Every channel the fragment's receivers consume — drained and
  /// reopened before the replay so stale frames die with the old attempt.
  std::vector<std::shared_ptr<ExchangeChannel>> input_channels;
  /// Every fragment that feeds those channels; recovery preempts,
  /// resets, and relaunches each so the restored receivers see the full
  /// stream again (their high-waters drop the prefix already absorbed).
  std::vector<PlanBuilder*> producers;
};

/// \brief Hooks the multi-site supervisor consults when an adaptive runtime
/// is installed (implemented by adaptive::ReoptController; an interface so
/// dist does not depend on the adaptive library).
///
/// All methods are invoked from the supervisor thread, under its lock.
class AdaptiveSupervisor {
 public:
  virtual ~AdaptiveSupervisor() = default;

  /// How often the supervisor wakes to Poll() while fragments run.
  virtual std::chrono::milliseconds poll_interval() const = 0;

  /// Samples runtime progress; may preempt straggling fragments (their
  /// sources then fail with kUnavailable and re-enter the restart path).
  virtual void Poll() = 0;

  /// One fragment attempt completed successfully; triggers
  /// observed-cardinality feedback for the streams it produced.
  virtual void OnFragmentFinished(PlanBuilder* fragment) = 0;

  /// Whether the upcoming restart of `fragment` (attempt number `attempts`
  /// just failed) should be placed on another site instead of in place.
  virtual bool ShouldMigrate(PlanBuilder* fragment, int attempts) = 0;

  struct Migration {
    PlanBuilder* fragment = nullptr;
    SiteEngine* site = nullptr;
  };
  /// Rebuilds `fragment` on the chosen destination site and hands back the
  /// replacement to relaunch. On error the caller falls back to an
  /// in-place restart.
  virtual Result<Migration> Migrate(PlanBuilder* fragment) = 0;

  // --- statistics, folded into DistQueryStats after the run ---
  virtual int64_t stragglers_detected() const = 0;
  virtual int64_t fragment_migrations() const = 0;
  virtual int64_t recalibrations() const = 0;
};

/// \brief A fully assembled distributed query, ready to run.
///
/// Owns the sites, their fragments, the mesh, and the exchange channels;
/// the root fragment's Sink holds the result after Run().
struct DistributedQuery {
  std::vector<std::unique_ptr<SiteEngine>> sites;
  /// Shared so a serving layer can run many concurrent queries over one
  /// mesh. Run() reports bytes_shipped/link_seconds from this query's
  /// per-context billing (ExecContext::OwnLinkUsage), never from the
  /// mesh-wide totals, which would count the neighbours' traffic too.
  std::shared_ptr<SiteMesh> mesh;
  std::vector<std::shared_ptr<ExchangeChannel>> channels;
  Sink* root_sink = nullptr;
  /// The mesh's failure oracle, when chaos is enabled; the supervisor heals
  /// its fired faults before each restart (the failed site's "reboot").
  std::shared_ptr<FaultInjector> fault_injector;
  /// Replays allowed per fragment before its failure is declared fatal.
  int max_fragment_restarts = 3;
  /// Assembly-time registries, derived by the PlanFragmenter from the
  /// fragment plan (dist/plan_fragmenter.h): movable fragments and
  /// consumer exchange leaves, populated unconditionally (it is cheap) and
  /// consumed when an adaptive runtime is installed over this query.
  std::vector<MigratableFragmentSpec> migratable_fragments;
  std::vector<ExchangeConsumerSpec> exchange_consumers;
  /// Stateful fragments whose failures are recovered from checkpoints
  /// instead of being fatal (see StatefulFragmentSpec).
  std::vector<StatefulFragmentSpec> stateful_fragments;
  /// The adaptive runtime, when installed (adaptive::InstallAdaptiveRuntime);
  /// null = PR 3 behaviour (in-place restarts only, no preemption).
  std::shared_ptr<AdaptiveSupervisor> adaptive;
  /// This process's transport endpoint, when the query runs over one (the
  /// sim or TCP backend behind the Transport interface). Run() then calls
  /// transport->Heal() in the recovery sequence and folds
  /// transport->TotalUsage() into bytes_shipped/link_seconds.
  std::shared_ptr<Transport> transport;
  /// Multi-process execution: when >= 0, Run() launches only the fragments
  /// hosted on this site (the full topology is still assembled everywhere
  /// so channel ids and sender slots agree across processes). Negative =
  /// run every fragment in this process.
  int local_site = -1;
  /// Site hosting the root fragment (whose Sink holds the answer). Result
  /// rows and the sink-finished invariant are only checked where the root
  /// actually ran.
  int root_site = 0;

  /// Unblocks every thread waiting on a channel or context of this query —
  /// safe to call at any time, including before Run() (the early-error
  /// path) and repeatedly. Threads the caller started against this query's
  /// sources must still be joined before the query is destroyed.
  void Cancel();

  /// Teardown is unconditional: cancels even when Run() was never reached
  /// or a sender thread never started, so no receiver stays blocked on a
  /// channel that will never be fed.
  ~DistributedQuery();

  /// Runs all fragments to completion, restarting replayable fragments
  /// that fail with kUnavailable. On any fatal fragment error every site
  /// is cancelled and every channel unblocked before the error is
  /// returned.
  Result<DistQueryStats> Run();
};

/// Snapshots every site's operators into one profile (fragment x site x
/// operator forest; see obs/profile.h). Call after Run(); in multi-process
/// mode this covers the local process's sites only.
obs::QueryProfile CollectDistProfile(const DistributedQuery& query,
                                     const DistQueryStats& stats);

}  // namespace pushsip

#endif  // PUSHSIP_DIST_DIST_DRIVER_H_
