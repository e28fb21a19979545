// QueryServer: the multi-tenant front-end. Admits, queues, and runs many
// concurrent query sessions over one shared engine — a common catalog, a
// fixed ThreadPool of workers, an admission budget (MemoryTracker), in
// multi-site mode one shared SiteMesh, and a cross-query AipCache that
// amortizes Bloom-summary construction across the served workload
// (conf_icde_IvesT08's sideways information passing, lifted from
// per-query to per-predicate).
//
// Session lifecycle:
//   Submit -> kQueued -> (admission: FIFO ticket + byte budget)
//          -> kRunning -> kFinished | kFailed | kCancelled
// Cancel() works in any state: a queued session never starts; a running
// session's ExecContexts are cancelled and it unwinds as kCancelled.
//
// One served path: every session expresses its query as ServedPlan's
// LogicalPlan and cuts it with the PlanFragmenter over catalogs taken from
// its own snapshot — one per site when the probe table is sharded, else
// one. A single fragment runs its sources in order on the session's pooled
// worker; a cut plan runs through the multi-site driver.
//
// Isolation: each session's fragments run on their own sites and
// ExecContexts, so QueryStats, pruning counters, and AIP attachment are
// per-session by construction. The only cross-session state is the
// catalog (thread-safe, versioned), the mesh links (every transmission is
// billed to the sending session's context, the one link ledger stats are
// read from), and the AipCache (keyed by table version — see
// sip/aip_cache.h for the invalidation contract).
#ifndef PUSHSIP_SERVE_QUERY_SESSION_H_
#define PUSHSIP_SERVE_QUERY_SESSION_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "dist/plan_fragmenter.h"
#include "sip/aip_cache.h"
#include "util/thread_pool.h"

namespace pushsip {

/// Declarative spec of one served query:
///   SELECT COUNT(*), SUM(probe.probe_agg_col)
///   FROM probe_table probe JOIN build_table build
///     ON probe.probe_key = build.build_key
///   WHERE build.build_filter_col < build_filter_upper
/// The build-side predicate is the cacheable unit: a cold run collects the
/// Bloom summary of qualifying build keys while scanning; warm runs attach
/// the cached summary to the probe scan(s) and skip the collection.
struct ServeQuery {
  std::string probe_table;
  std::string probe_key;
  std::string build_table;
  std::string build_key;
  /// Int64 column the build-side range predicate applies to.
  std::string build_filter_col;
  int64_t build_filter_upper = 0;
  /// Optimizer hint: fraction of build rows the predicate keeps.
  double build_selectivity = 0.5;
  /// Probe column summed in the aggregate.
  std::string probe_agg_col;
  /// Admission-control estimate of this session's peak state; 0 derives a
  /// coarse estimate from the joined tables' footprints.
  int64_t est_state_bytes = 0;
};

/// Builds `q` into `plan` and returns its root: the build scan ("b",
/// declared first), its range filter, the probe scan ("r") — behind a
/// forward Exchange to the coordinator when `probe_sharded` — their join,
/// and the global COUNT/SUM. Every scan reads only the columns the query
/// uses, paced by `scan`.
LogicalPlan::NodeId ServedPlan(const ServeQuery& q, bool probe_sharded,
                               const ScanOptions& scan, LogicalPlan* plan);

enum class SessionState { kQueued, kRunning, kFinished, kFailed, kCancelled };

/// What Wait() returns for a finished session.
struct SessionResult {
  QueryStats stats;
  std::vector<Tuple> rows;
  /// True when a cached AIP summary was attached instead of rebuilt.
  bool aip_cache_hit = false;
  /// Keys the cold-run collector inserted (0 on a hit — the saved work).
  int64_t summary_entries = 0;
  /// Whether the freshly built summary was accepted by the cache.
  bool summary_cached = false;
};

/// Server-wide configuration.
struct ServeOptions {
  size_t worker_threads = 4;
  /// Admission budget: summed est_state_bytes of concurrently admitted
  /// sessions. An oversized session still runs once nothing else holds
  /// budget, so admission can stall but never deadlock.
  int64_t admission_budget_bytes = 256ll << 20;
  /// Cross-query AIP cache budget (0 disables caching).
  int64_t aip_cache_budget_bytes = 8ll << 20;
  size_t batch_size = 1024;
  /// Scan pacing (0 disables): every `scan_delay_every_rows` raw rows a
  /// table scan sleeps `scan_delay_ms`, simulating sources that stream
  /// from disk. Paced sessions spend most of their time waiting, which is
  /// what lets concurrent sessions overlap on few cores.
  size_t scan_delay_every_rows = 0;
  double scan_delay_ms = 0;
  /// >1 runs sessions as distributed queries over one shared SiteMesh; a
  /// query probing a table in `sharded_tables` scans the catalog's
  /// round-robin shards of it, one per site. A query whose probe table is
  /// not sharded runs as one fragment at site 0.
  int num_sites = 1;
  double bandwidth_bps = 1e9;
  double latency_ms = 0.1;
  std::vector<std::string> sharded_tables;
  size_t channel_capacity = 64;
  double exchange_idle_timeout_sec = 30.0;
};

/// Monotonic server counters.
struct ServerStats {
  int64_t submitted = 0;
  int64_t finished = 0;
  int64_t failed = 0;
  int64_t cancelled = 0;
  /// Peak of concurrently admitted estimated bytes.
  int64_t admission_peak_bytes = 0;
  AipCacheStats cache;
};

/// \brief Shared-engine session manager. All methods are thread-safe.
class QueryServer {
 public:
  using SessionId = uint64_t;

  QueryServer(std::shared_ptr<Catalog> catalog, ServeOptions options = {});
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Enqueues a session; it admits and runs asynchronously on the worker
  /// pool. Fails if the server is shut down or the spec names unknown
  /// tables/columns (cheap validation; deep errors surface via Wait).
  Result<SessionId> Submit(const ServeQuery& query);

  /// Blocks until the session reaches a terminal state. Returns its result
  /// (kFinished) or its error (kFailed -> the query's status; kCancelled ->
  /// a kCancelled status). Repeatable.
  Result<SessionResult> Wait(SessionId id);

  /// Requests cancellation: a queued session never runs; a running one is
  /// interrupted. NotFound for unknown ids; OK even if already terminal.
  Status Cancel(SessionId id);

  SessionState state(SessionId id) const;

  /// Replaces `table` in the shared catalog (bumping its version), evicts
  /// the cache entries derived from it, and re-shards it for multi-site
  /// serving. In-flight sessions keep the snapshot they started with; only
  /// sessions submitted afterwards see (and cache against) the new data.
  Status ReplaceTable(TablePtr table);

  /// Stops accepting sessions and drains the worker pool (queued sessions
  /// still run; cancel them first for a fast stop). Idempotent.
  void Shutdown();

  AipCacheStats cache_stats() const { return cache_.stats(); }
  ServerStats stats() const;

  /// Snapshots the server's session/admission/cache state into the
  /// process-wide obs::MetricsRegistry and returns the full registry in
  /// Prometheus text exposition format (server gauges plus whatever the
  /// engine's own instrumentation points have accumulated).
  std::string MetricsText();
  const std::shared_ptr<SiteMesh>& mesh() const { return mesh_; }
  const std::shared_ptr<Catalog>& catalog() const { return catalog_; }

 private:
  struct Session;
  using SessionPtr = std::shared_ptr<Session>;

  void RunSession(const SessionPtr& s);
  /// Admission gate. True = admitted (budget held); false = cancelled
  /// while queued. Strict FIFO by ticket: the head session may stall on
  /// budget, later tickets wait behind it (no overtaking, no starvation).
  bool AdmitOrAbort(const SessionPtr& s);
  void ReleaseAdmission(const SessionPtr& s);

  /// Cuts the session's ServedPlan with the PlanFragmenter and runs it.
  Result<SessionResult> Execute(const SessionPtr& s);

  /// The current version's shards of `table`, one per site
  /// (Catalog::Shards); empty unless num_sites > 1 and `table` is one of
  /// `sharded_tables`.
  Result<std::vector<TablePtr>> ShardsOf(const std::string& table) const;

  /// The catalogs a session's plan is cut over, from its snapshot: one per
  /// site holding the probe table's shard when it is sharded, else one
  /// holding the whole probe table. Site 0's also holds `build`.
  Result<std::vector<std::shared_ptr<Catalog>>> SessionCatalogs(
      const ServeQuery& q, const TablePtr& build) const;

  /// Wires the cross-query cache into a freshly fragmented plan: on a hit,
  /// attaches the cached summary to every probe scan (and sets
  /// out->aip_cache_hit); on a miss, taps the build scan with a collector
  /// whose set the caller seals and Insert()s after the run.
  Status PrepareAipCache(const ServeQuery& q, const VersionedTable& build,
                         const DistributedQuery& query, SessionResult* out,
                         std::shared_ptr<AipSet>* collected,
                         AipCacheKey* key);

  std::shared_ptr<Catalog> catalog_;
  const ServeOptions opts_;
  AipCache cache_;
  ThreadPool pool_;

  /// The mesh every session's fragments transmit over (one site when
  /// num_sites <= 1).
  std::shared_ptr<SiteMesh> mesh_;

  mutable std::mutex admit_mu_;
  std::condition_variable admit_cv_;
  uint64_t next_ticket_ = 0;
  uint64_t admit_head_ = 0;
  int admitted_running_ = 0;
  MemoryTracker admission_;

  mutable std::mutex sessions_mu_;
  std::unordered_map<SessionId, SessionPtr> sessions_;
  SessionId next_id_ = 1;
  std::atomic<bool> accepting_{true};

  std::atomic<int64_t> submitted_{0};
  std::atomic<int64_t> finished_{0};
  std::atomic<int64_t> failed_{0};
  std::atomic<int64_t> cancelled_{0};
};

}  // namespace pushsip

#endif  // PUSHSIP_SERVE_QUERY_SESSION_H_
