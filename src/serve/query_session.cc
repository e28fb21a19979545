#include "serve/query_session.h"

#include <algorithm>
#include <utility>

#include "expr/expression.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/stopwatch.h"

namespace pushsip {

namespace {

/// Pass-through scan tap that collects the Bloom summary of the build-side
/// predicate while the build scan streams. As a source filter it observes
/// every raw row (and prunes none), so the summary has no false negatives:
/// every build key that can satisfy the predicate is inserted. Bloom false
/// positives only let extra probe rows through, which the join then drops.
class SummaryCollector : public TupleFilter {
 public:
  SummaryCollector(std::string label, int filter_col, int64_t upper,
                   int key_col, std::shared_ptr<AipSet> set)
      : label_(std::move(label)),
        filter_col_(static_cast<size_t>(filter_col)),
        upper_(upper),
        key_col_(static_cast<size_t>(key_col)),
        set_(std::move(set)) {}

  bool Pass(const Batch& batch, size_t row) const override {
    const Column& filter_col = batch.col(filter_col_);
    if (!filter_col.IsNull(row) &&
        batch.ValueAt(row, filter_col_).AsInt64() < upper_) {
      set_->Insert(batch.col(key_col_).HashAt(row));
    }
    return true;  // pure tap: the scan's output is unchanged
  }

  void PassBatch(const Batch& batch,
                 std::vector<uint32_t>* sel) const override {
    // Tight typed loop over the surviving rows; everything passes, so the
    // selection vector is untouched.
    const Column& filter_col = batch.col(filter_col_);
    const Column& key_col = batch.col(key_col_);
    for (const uint32_t idx : *sel) {
      if (filter_col.IsNull(idx)) continue;
      if (filter_col.I64At(idx) < upper_) set_->Insert(key_col.HashAt(idx));
    }
  }

  std::string label() const override { return label_; }

 private:
  std::string label_;
  size_t filter_col_;
  int64_t upper_;
  size_t key_col_;
  std::shared_ptr<AipSet> set_;
};

/// Canonical string of the cacheable build-side predicate.
std::string PredicateFingerprint(const ServeQuery& q) {
  return q.build_filter_col + "<" + std::to_string(q.build_filter_upper);
}

/// The table columns a served query reads, and so all its scans read: the
/// build side's join key and filter column, and the probe side's join key
/// and SUM input. A column named twice is read once.
struct ServedColumns {
  std::vector<std::string> build;
  std::vector<std::string> probe;
};

ServedColumns ColumnsRead(const ServeQuery& q) {
  ServedColumns cols;
  cols.build = {q.build_key};
  if (q.build_filter_col != q.build_key) {
    cols.build.push_back(q.build_filter_col);
  }
  cols.probe = {q.probe_key};
  if (!q.probe_agg_col.empty() && q.probe_agg_col != q.probe_key) {
    cols.probe.push_back(q.probe_agg_col);
  }
  return cols;
}

/// Runs an assembled served query. A single fragment runs its sources in
/// declaration order on the calling thread, so the session occupies exactly
/// one pooled worker (the symmetric, doubly-pipelined join accepts that as
/// just another input interleaving); a cut plan runs through the
/// multi-site driver, one thread per source.
Result<QueryStats> RunServed(DistributedQuery* query) {
  size_t fragments = 0;
  for (const auto& site : query->sites) fragments += site->fragments().size();
  if (fragments > 1) {
    PUSHSIP_ASSIGN_OR_RETURN(const DistQueryStats d, query->Run());
    return QueryStats(d);  // slices off the distributed-only counters
  }
  auto& site = *query->sites[static_cast<size_t>(query->root_site)];
  ExecContext& ctx = site.context();
  Stopwatch timer;
  for (SourceOperator* src : site.fragments()[0]->sources()) {
    if (ctx.cancelled()) break;
    const Status st = src->Run();
    if (!st.ok() && st.code() != StatusCode::kCancelled) ctx.SetError(st);
    if (!ctx.GetError().ok()) break;
  }
  PUSHSIP_RETURN_NOT_OK(ctx.GetError());
  if (ctx.cancelled()) return Status::Cancelled("session cancelled");
  if (!query->root_sink->finished()) {
    return Status::Internal("sink did not finish");
  }
  return CollectQueryStats(&ctx, query->root_sink, timer.ElapsedSeconds());
}

}  // namespace

LogicalPlan::NodeId ServedPlan(const ServeQuery& q, bool probe_sharded,
                               const ScanOptions& scan, LogicalPlan* plan) {
  const ServedColumns cols = ColumnsRead(q);
  const LogicalPlan::NodeId build =
      plan->Scan(q.build_table, "b", scan, cols.build);
  LogicalPlan::NodeId probe = plan->Scan(q.probe_table, "r", scan, cols.probe);
  const LogicalPlan::NodeId filtered = plan->Filter(
      build,
      [col = q.build_filter_col,
       upper = q.build_filter_upper](const Schema& s) -> Result<ExprPtr> {
        PUSHSIP_ASSIGN_OR_RETURN(ExprPtr filter_col, ColNamed(s, col));
        return Cmp(CmpOp::kLt, std::move(filter_col), LitInt(upper));
      },
      q.build_selectivity);
  if (probe_sharded) {
    probe = plan->Exchange(probe, ExchangeMode::kForward, "r." + q.probe_key,
                           "probe");
  }
  const LogicalPlan::NodeId join =
      plan->Join(filtered, probe, {{"b." + q.build_key, "r." + q.probe_key}});
  std::vector<AggDesc> aggs{{AggFunc::kCount, "", "cnt"}};
  if (!q.probe_agg_col.empty()) {
    aggs.push_back({AggFunc::kSum, "r." + q.probe_agg_col, "total"});
  }
  return plan->Aggregate(join, {}, std::move(aggs));
}

struct QueryServer::Session {
  SessionId id = 0;
  uint64_t ticket = 0;
  ServeQuery query;
  int64_t admit_bytes = 0;

  std::mutex mu;
  std::condition_variable cv;
  SessionState state = SessionState::kQueued;
  bool cancel_requested = false;
  /// Interrupts the running execution; set under mu while the session's
  /// contexts are alive, cleared (under mu) before they are destroyed.
  std::function<void()> cancel_hook;
  Status error = Status::OK();
  SessionResult result;

  bool terminal() const {  // caller holds mu
    return state == SessionState::kFinished ||
           state == SessionState::kFailed ||
           state == SessionState::kCancelled;
  }
};

QueryServer::QueryServer(std::shared_ptr<Catalog> catalog,
                         ServeOptions options)
    : catalog_(std::move(catalog)),
      opts_(options),
      cache_(options.aip_cache_budget_bytes),
      pool_(options.worker_threads),
      mesh_(std::make_shared<SiteMesh>(std::max(1, options.num_sites),
                                       options.bandwidth_bps,
                                       options.latency_ms)) {
  // Shard now, so sessions find the shards made (a missing table is
  // reported to the sessions that probe it).
  for (const std::string& name : opts_.sharded_tables) (void)ShardsOf(name);
}

QueryServer::~QueryServer() { Shutdown(); }

void QueryServer::Shutdown() {
  accepting_.store(false);
  pool_.Shutdown();
}

Result<QueryServer::SessionId> QueryServer::Submit(const ServeQuery& query) {
  if (!accepting_.load()) {
    return Status::Unavailable("server is shut down");
  }
  PUSHSIP_ASSIGN_OR_RETURN(TablePtr probe,
                           catalog_->GetTable(query.probe_table));
  PUSHSIP_ASSIGN_OR_RETURN(TablePtr build,
                           catalog_->GetTable(query.build_table));
  PUSHSIP_ASSIGN_OR_RETURN(const int pk,
                           probe->schema().IndexOf(query.probe_key));
  PUSHSIP_ASSIGN_OR_RETURN(const int bk,
                           build->schema().IndexOf(query.build_key));
  PUSHSIP_ASSIGN_OR_RETURN(const int bf,
                           build->schema().IndexOf(query.build_filter_col));
  (void)pk; (void)bk; (void)bf;
  if (!query.probe_agg_col.empty()) {
    PUSHSIP_ASSIGN_OR_RETURN(const int pa,
                             probe->schema().IndexOf(query.probe_agg_col));
    (void)pa;
  }

  auto s = std::make_shared<Session>();
  s->query = query;
  s->admit_bytes =
      query.est_state_bytes > 0
          ? query.est_state_bytes
          : static_cast<int64_t>(probe->FootprintBytes() +
                                 build->FootprintBytes());
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    s->id = next_id_++;
    sessions_[s->id] = s;
  }
  {
    // Ticket assignment and pool submission under one lock: the worker
    // pool pops FIFO, so the set of *started* session tasks is always a
    // ticket-order prefix — the invariant that makes waiting for
    // admission headship on a pool worker deadlock-free.
    std::lock_guard<std::mutex> lock(admit_mu_);
    s->ticket = next_ticket_++;
    if (!pool_.Submit([this, s] { RunSession(s); })) {
      --next_ticket_;
      std::lock_guard<std::mutex> slock(sessions_mu_);
      sessions_.erase(s->id);
      return Status::Unavailable("server is shut down");
    }
  }
  submitted_.fetch_add(1);
  return s->id;
}

bool QueryServer::AdmitOrAbort(const SessionPtr& s) {
  Stopwatch queue_wait;
  std::unique_lock<std::mutex> lock(admit_mu_);
  if (obs::Metrics::enabled()) {
    obs::MetricsRegistry::Default()
        .GetGauge("pushsip_admission_queue_depth",
                  "Sessions waiting for admission")
        ->Set(static_cast<int64_t>(next_ticket_ - admit_head_));
  }
  admit_cv_.wait(lock, [&] { return s->ticket == admit_head_; });
  bool admitted = false;
  for (;;) {
    {
      std::lock_guard<std::mutex> slock(s->mu);
      if (s->cancel_requested) break;
    }
    if (admission_.TryAdd(s->admit_bytes, opts_.admission_budget_bytes)) {
      admitted = true;
      break;
    }
    if (admitted_running_ == 0) {
      // Oversized head with an empty engine: admit anyway (accounting
      // overshoots deliberately) so a session larger than the budget can
      // still run — admission may stall but never wedges.
      admission_.Add(s->admit_bytes);
      admitted = true;
      break;
    }
    admit_cv_.wait(lock);
  }
  ++admit_head_;
  if (admitted) ++admitted_running_;
  admit_cv_.notify_all();
  const double waited_sec = queue_wait.ElapsedSeconds();
  if (obs::Metrics::enabled()) {
    obs::MetricsRegistry::Default()
        .GetHistogram("pushsip_admission_wait_seconds",
                      "Queue wait from submission to admission decision",
                      obs::Histogram::LatencyBounds())
        ->Observe(waited_sec);
  }
  if (obs::Trace::enabled()) {
    // The wait already elapsed; backdate the span over it.
    const int64_t end_us = obs::Trace::NowMicros();
    obs::TraceCompleteSpan(
        "admission_wait", end_us - static_cast<int64_t>(waited_sec * 1e6),
        end_us,
        "\"session\":" + std::to_string(s->id) +
            ",\"admitted\":" + (admitted ? "true" : "false"));
  }
  return admitted;
}

void QueryServer::ReleaseAdmission(const SessionPtr& s) {
  std::lock_guard<std::mutex> lock(admit_mu_);
  admission_.Release(s->admit_bytes);
  --admitted_running_;
  admit_cv_.notify_all();
}

void QueryServer::RunSession(const SessionPtr& s) {
  if (!AdmitOrAbort(s)) {
    std::lock_guard<std::mutex> lock(s->mu);
    s->state = SessionState::kCancelled;
    s->error = Status::Cancelled("session cancelled while queued");
    cancelled_.fetch_add(1);
    s->cv.notify_all();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(s->mu);
    s->state = SessionState::kRunning;
  }
  Result<SessionResult> r = [&] {
    obs::TraceSpan span("session_run",
                        "\"session\":" + std::to_string(s->id));
    return Execute(s);
  }();
  ReleaseAdmission(s);
  std::lock_guard<std::mutex> lock(s->mu);
  if (r.ok()) {
    // A cancel that raced a completed execution still reports the result.
    s->result = std::move(*r);
    s->state = SessionState::kFinished;
    finished_.fetch_add(1);
  } else if (r.status().code() == StatusCode::kCancelled ||
             s->cancel_requested) {
    s->state = SessionState::kCancelled;
    s->error = Status::Cancelled("session cancelled");
    cancelled_.fetch_add(1);
  } else {
    s->state = SessionState::kFailed;
    s->error = r.status();
    failed_.fetch_add(1);
  }
  s->cv.notify_all();
}

Result<std::vector<TablePtr>> QueryServer::ShardsOf(
    const std::string& table) const {
  if (opts_.num_sites <= 1 ||
      std::find(opts_.sharded_tables.begin(), opts_.sharded_tables.end(),
                table) == opts_.sharded_tables.end()) {
    return std::vector<TablePtr>{};
  }
  return catalog_->Shards(table, opts_.num_sites);
}

Result<std::vector<std::shared_ptr<Catalog>>> QueryServer::SessionCatalogs(
    const ServeQuery& q, const TablePtr& build) const {
  PUSHSIP_ASSIGN_OR_RETURN(std::vector<TablePtr> shards,
                           ShardsOf(q.probe_table));
  std::vector<std::shared_ptr<Catalog>> catalogs;
  if (shards.empty()) {
    catalogs.push_back(std::make_shared<Catalog>());
    if (q.probe_table != q.build_table) {
      PUSHSIP_ASSIGN_OR_RETURN(TablePtr probe,
                               catalog_->GetTable(q.probe_table));
      PUSHSIP_RETURN_NOT_OK(catalogs[0]->RegisterTable(std::move(probe)));
    }
  } else {
    if (q.probe_table == q.build_table) {
      return Status::InvalidArgument("a sharded table cannot be served "
                                     "joined with itself");
    }
    for (TablePtr& shard : shards) {
      catalogs.push_back(std::make_shared<Catalog>());
      PUSHSIP_RETURN_NOT_OK(catalogs.back()->RegisterTable(std::move(shard)));
    }
  }
  PUSHSIP_RETURN_NOT_OK(catalogs[0]->RegisterTable(build));
  return catalogs;
}

Result<SessionResult> QueryServer::Execute(const SessionPtr& s) {
  const ServeQuery& q = s->query;
  // Atomic (table, version) snapshot: the version must be the one these
  // exact rows carry, or a summary cached from regenerated data could be
  // keyed as current and wrongly prune (see serve_cache_test). The build
  // scan reads this very TablePtr.
  PUSHSIP_ASSIGN_OR_RETURN(VersionedTable build,
                           catalog_->GetTableWithVersion(q.build_table));
  PUSHSIP_ASSIGN_OR_RETURN(std::vector<std::shared_ptr<Catalog>> catalogs,
                           SessionCatalogs(q, build.table));

  ScanOptions scan;
  scan.delay_every_rows = opts_.scan_delay_every_rows;
  scan.delay_ms = opts_.scan_delay_ms;
  LogicalPlan plan;
  const LogicalPlan::NodeId root =
      ServedPlan(q, /*probe_sharded=*/catalogs.size() > 1, scan, &plan);
  ScaleOutOptions options;
  options.batch_size = opts_.batch_size;
  options.channel_capacity = opts_.channel_capacity;
  options.exchange_idle_timeout_sec = opts_.exchange_idle_timeout_sec;
  // Per-session sites and channels over the server's one shared mesh:
  // links are the only contended resource, and Transmit bills this
  // session's contexts, so bytes_shipped stays per-query.
  PUSHSIP_ASSIGN_OR_RETURN(
      std::unique_ptr<DistributedQuery> query,
      PlanFragmenter(std::move(catalogs), mesh_).Fragment(plan, root, options));

  SessionResult out;
  std::shared_ptr<AipSet> collected;
  AipCacheKey key;
  PUSHSIP_RETURN_NOT_OK(
      PrepareAipCache(q, build, *query, &out, &collected, &key));

  {
    std::lock_guard<std::mutex> lock(s->mu);
    if (s->cancel_requested) return Status::Cancelled("session cancelled");
    DistributedQuery* raw = query.get();
    s->cancel_hook = [raw] { raw->Cancel(); };
  }
  struct HookGuard {
    SessionPtr s;
    ~HookGuard() {
      std::lock_guard<std::mutex> lock(s->mu);
      s->cancel_hook = nullptr;
    }
  } hook_guard{s};

  PUSHSIP_ASSIGN_OR_RETURN(out.stats, RunServed(query.get()));
  out.rows = query->root_sink->TakeRows();
  if (collected != nullptr) {
    collected->Seal();
    out.summary_entries = static_cast<int64_t>(collected->inserted_count());
    out.summary_cached = cache_.Insert(key, collected);
  }
  return out;
}

Status QueryServer::PrepareAipCache(const ServeQuery& q,
                                    const VersionedTable& build,
                                    const DistributedQuery& query,
                                    SessionResult* out,
                                    std::shared_ptr<AipSet>* collected,
                                    AipCacheKey* key) {
  collected->reset();
  if (opts_.aip_cache_budget_bytes <= 0) return Status::OK();
  // ServedPlan's scans: the build side ("b") and every probe scan ("r",
  // one per shard).
  TableScan* build_scan = nullptr;
  std::vector<TableScan*> probe_scans;
  for (const auto& site : query.sites) {
    for (const auto& fragment : site->fragments()) {
      for (TableScan* scan : fragment->source_scans()) {
        if (scan->name() == "scan_b") {
          build_scan = scan;
        } else {
          probe_scans.push_back(scan);
        }
      }
    }
  }
  *key = AipCacheKey{q.build_table, build.version, PredicateFingerprint(q),
                     q.build_key};
  const std::string label = "aipcache:" + q.build_table + ":" +
                            key->predicate + "->" + q.build_key;
  const std::shared_ptr<const AipSet> cached = cache_.Lookup(*key);
  if (obs::Metrics::enabled()) {
    obs::MetricsRegistry::Default()
        .GetCounter(cached != nullptr ? "pushsip_aip_cache_hits_total"
                                      : "pushsip_aip_cache_misses_total",
                    "Cross-query AIP cache lookups by outcome")
        ->Inc();
  }
  if (obs::Trace::enabled()) {
    obs::TraceInstant(cached != nullptr ? "aip_cache_hit" : "aip_cache_miss",
                      "\"table\":\"" + q.build_table + "\"");
  }
  if (cached != nullptr) {
    PUSHSIP_ASSIGN_OR_RETURN(
        const int probe_col,
        probe_scans[0]->output_schema().IndexOf("r." + q.probe_key));
    for (TableScan* scan : probe_scans) {
      scan->AttachSourceFilter(
          std::make_shared<AipFilter>(label, probe_col, cached));
    }
    out->aip_cache_hit = true;
    return Status::OK();
  }
  const Schema& build_schema = build_scan->output_schema();
  PUSHSIP_ASSIGN_OR_RETURN(const int filter_col,
                           build_schema.IndexOf("b." + q.build_filter_col));
  PUSHSIP_ASSIGN_OR_RETURN(const int key_col,
                           build_schema.IndexOf("b." + q.build_key));
  auto set = std::make_shared<AipSet>(
      AipSetKind::kBloom, std::max<size_t>(64, build.table->num_rows()),
      /*fpr=*/0.01);
  build_scan->AttachSourceFilter(std::make_shared<SummaryCollector>(
      label + ":collect", filter_col, q.build_filter_upper, key_col, set));
  *collected = std::move(set);
  return Status::OK();
}

Result<SessionResult> QueryServer::Wait(SessionId id) {
  SessionPtr s;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) return Status::NotFound("no such session");
    s = it->second;
  }
  std::unique_lock<std::mutex> lock(s->mu);
  s->cv.wait(lock, [&] { return s->terminal(); });
  if (s->state == SessionState::kFinished) return s->result;
  return s->error;
}

Status QueryServer::Cancel(SessionId id) {
  SessionPtr s;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) return Status::NotFound("no such session");
    s = it->second;
  }
  {
    std::lock_guard<std::mutex> lock(s->mu);
    if (s->terminal()) return Status::OK();
    s->cancel_requested = true;
    // Invoked under s->mu so it cannot race the HookGuard that clears it
    // just before the session's contexts are destroyed.
    if (s->cancel_hook) s->cancel_hook();
  }
  {
    // Empty critical section orders the flag write before the wakeup, so
    // a session blocked in AdmitOrAbort cannot miss it.
    std::lock_guard<std::mutex> lock(admit_mu_);
  }
  admit_cv_.notify_all();
  return Status::OK();
}

SessionState QueryServer::state(SessionId id) const {
  SessionPtr s;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) return SessionState::kFailed;
    s = it->second;
  }
  std::lock_guard<std::mutex> lock(s->mu);
  return s->state;
}

Status QueryServer::ReplaceTable(TablePtr table) {
  if (table == nullptr) return Status::InvalidArgument("null table");
  const std::string name = table->name();
  PUSHSIP_RETURN_NOT_OK(catalog_->ReplaceTable(std::move(table)));
  // Version-keying already makes the old summaries unreachable; eviction
  // just frees their bytes immediately.
  cache_.Invalidate(name);
  // The writer pays for the new version's shards, not the next session.
  return ShardsOf(name).status();
}

ServerStats QueryServer::stats() const {
  ServerStats st;
  st.submitted = submitted_.load();
  st.finished = finished_.load();
  st.failed = failed_.load();
  st.cancelled = cancelled_.load();
  st.admission_peak_bytes = admission_.peak_bytes();
  st.cache = cache_.stats();
  return st;
}

std::string QueryServer::MetricsText() {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  const ServerStats st = stats();
  const auto set = [&reg](const char* name, const char* help, int64_t v) {
    reg.GetGauge(name, help)->Set(v);
  };
  set("pushsip_sessions_submitted", "Sessions accepted by Submit",
      st.submitted);
  set("pushsip_sessions_finished", "Sessions that produced a result",
      st.finished);
  set("pushsip_sessions_failed", "Sessions that ended in error", st.failed);
  set("pushsip_sessions_cancelled", "Sessions cancelled before finishing",
      st.cancelled);
  set("pushsip_admission_bytes", "Bytes currently admitted against the budget",
      admission_.current_bytes());
  set("pushsip_admission_peak_bytes", "High-water mark of admitted bytes",
      st.admission_peak_bytes);
  set("pushsip_aip_cache_inserts", "Summaries inserted into the AIP cache",
      st.cache.inserts);
  set("pushsip_aip_cache_evictions", "AIP cache LRU evictions",
      st.cache.evictions);
  set("pushsip_aip_cache_invalidations",
      "AIP cache entries dropped on table-version change",
      st.cache.invalidations);
  return reg.TextExposition();
}

}  // namespace pushsip
