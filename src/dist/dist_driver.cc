#include "dist/dist_driver.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "net/transport/sim_transport.h"
#include "obs/trace.h"
#include "util/stopwatch.h"

namespace pushsip {

// Every counter is 8 bytes, so a field missing from the list shows here.
static_assert(sizeof(DistQueryStats) == [] {
  size_t bytes = 0;
  DistQueryStats::ForEachCounter([&](auto, CounterMerge) { bytes += 8; });
  return bytes;
}(), "list every DistQueryStats counter in ForEachCounter");

void DistQueryStats::Merge(const DistQueryStats& other) {
  ForEachCounter([&](auto member, CounterMerge merge) {
    this->*member = merge == CounterMerge::kMax
                        ? std::max(this->*member, other.*member)
                        : this->*member + other.*member;
  });
}

TableScan* FragmentReplayScan(const PlanBuilder& fragment) {
  const std::vector<SourceOperator*>& sources = fragment.sources();
  if (sources.size() != 1) return nullptr;
  auto* scan = dynamic_cast<TableScan*>(sources[0]);
  if (scan == nullptr || !scan->options().window_batches) return nullptr;
  if (dynamic_cast<ExchangeSender*>(fragment.terminal()) == nullptr) {
    return nullptr;
  }
  for (const auto& op : fragment.operators()) {
    if (op->IsStateful()) return nullptr;  // replay would double its state
  }
  return scan;
}

bool EnableFragmentReplay(PlanBuilder& fragment) {
  TableScan* scan = FragmentReplayScan(fragment);
  if (scan == nullptr) return false;
  static_cast<ExchangeSender*>(fragment.terminal())->BindSeqSource(scan);
  return true;
}

void DistributedQuery::Cancel() {
  for (auto& channel : channels) {
    if (channel != nullptr) channel->Cancel();
  }
  for (auto& site : sites) {
    if (site != nullptr) site->context().Cancel();
  }
}

DistributedQuery::~DistributedQuery() {
  // Unconditional teardown: even when Run() was never reached (an
  // early-error path during assembly) or a fragment's sender thread never
  // started, no receiver or sender blocked on a channel may stay asleep.
  Cancel();
}

namespace {

/// Supervision state of one fragment: its threads, attempts, and the first
/// non-cancellation error of the current attempt.
struct FragmentRun {
  SiteEngine* site = nullptr;
  PlanBuilder* fragment = nullptr;
  bool replayable = false;
  /// Set when the fragment is registered for checkpointed recovery.
  StatefulFragmentSpec* stateful = nullptr;
  int attempts = 0;
  int active_threads = 0;
  bool finished = false;  ///< an attempt completed without error
  Status error;           ///< error of the current attempt, once drained
  bool needs_attention = false;
  bool finish_reported = false;  ///< adaptive hook notified of completion
};

}  // namespace

Result<DistQueryStats> DistributedQuery::Run() {
  if (root_sink == nullptr) {
    return Status::InvalidArgument("distributed query has no root sink");
  }
  if (sites.empty()) return Status::InvalidArgument("no sites");

  // The endpoints of the sites this process runs.
  std::vector<std::shared_ptr<Transport>> endpoints;
  for (auto& site : sites) {
    if (local_site >= 0 && site->id() != local_site) continue;
    if (std::shared_ptr<Transport> e = site->endpoint()) endpoints.push_back(e);
  }
  const auto cancel_all = [&] {
    for (auto& site : sites) site->context().Cancel();
    for (auto& channel : channels) channel->Cancel();
    // A fatal error must also unblock senders stalled on transport flow
    // control (credits that will never be granted) and stop feeding peers.
    for (const auto& e : endpoints) e->Shutdown();
  };
  // The failed site "reboots": the sim heals fired faults, TCP redials dead
  // connections. A failed heal is not fatal: the replay fails again and
  // re-enters recovery until the restart budget runs out.
  const auto heal = [&] {
    for (const auto& e : endpoints) (void)e->Heal();
  };

  std::mutex mu;
  std::condition_variable progress;
  std::vector<std::thread> threads;
  std::vector<FragmentRun> runs;
  for (auto& site : sites) {
    // Multi-process mode: every process assembles the full topology (so
    // channel ids and sender slots agree everywhere) but runs only the
    // fragments its site hosts.
    if (local_site >= 0 && site->id() != local_site) continue;
    for (const auto& fragment : site->fragments()) {
      FragmentRun run;
      run.site = site.get();
      run.fragment = fragment.get();
      run.replayable = FragmentReplayScan(*fragment) != nullptr &&
                       static_cast<ExchangeSender*>(fragment->terminal())
                               ->seq_source() != nullptr;
      for (StatefulFragmentSpec& spec : stateful_fragments) {
        if (spec.fragment == fragment.get()) run.stateful = &spec;
      }
      runs.push_back(run);
    }
  }

  int64_t restarts = 0;
  int64_t reships = 0;
  AdaptiveSupervisor* supervisor = adaptive.get();

  // Launches one thread per source of `run`'s fragment (exactly one for
  // replayable fragments). Caller holds `mu`.
  const auto launch = [&](FragmentRun* run) {
    ++run->attempts;
    run->error = Status::OK();
    run->needs_attention = false;
    for (SourceOperator* source : run->fragment->sources()) {
      ++run->active_threads;
      threads.emplace_back([&, run, source] {
        Status st;
        {
          obs::TraceSpan span("fragment_run",
                              "\"site\":" + std::to_string(run->site->id()) +
                                  ",\"source\":\"" + source->name() + "\"");
          // Sources are driven rather than pushed into; credit their busy
          // time here (Emit's downstream measurement subtracts back out).
          const bool profiling = run->site->context().profiling();
          Stopwatch source_timer;
          st = source->Run();
          if (profiling) {
            source->AddBusyMicros(
                static_cast<int64_t>(source_timer.ElapsedSeconds() * 1e6));
          }
        }
        std::lock_guard<std::mutex> lock(mu);
        if (!st.ok() && st.code() != StatusCode::kCancelled &&
            run->error.ok()) {
          run->error = st;
        }
        if (--run->active_threads == 0) {
          if (run->error.ok()) {
            run->finished = true;
          } else {
            run->needs_attention = true;
          }
          progress.notify_all();
        }
      });
    }
  };

  obs::TraceSpan query_span("dist_query");
  Stopwatch timer;
  Status fatal = Status::OK();
  {
    std::unique_lock<std::mutex> lock(mu);
    for (FragmentRun& run : runs) launch(&run);

    // Supervision loop: wait for a fragment to finish an attempt; restart
    // replayable kUnavailable failures, declare everything else fatal.
    // With an adaptive supervisor installed the wait becomes a poll: each
    // wake samples runtime progress, may preempt stragglers (they re-enter
    // this loop as kUnavailable failures), and recovery may rebuild the
    // failed fragment on another site instead of in place.
    while (true) {
      bool all_done = true;
      FragmentRun* failed = nullptr;
      for (FragmentRun& run : runs) {
        if (run.needs_attention) failed = &run;
        if (!run.finished) all_done = false;
        if (run.finished && !run.finish_reported) {
          run.finish_reported = true;
          if (supervisor != nullptr) {
            // Input-completion boundary: feed the finished fragment's
            // observed cardinalities into its consumers' estimates.
            supervisor->OnFragmentFinished(run.fragment);
          }
        }
      }
      if (failed != nullptr) {
        FragmentRun& run = *failed;
        run.needs_attention = false;
        bool retry = (run.replayable || run.stateful != nullptr) &&
                     run.error.code() == StatusCode::kUnavailable &&
                     run.attempts <= max_fragment_restarts;
        if (retry && run.stateful != nullptr) {
          // Checkpointed recovery is in-process only (the snapshot lives
          // with this supervisor) and is refused once the fragment's
          // terminal emitted anything: its frames are not replayable, so
          // downstream consumers could not dedup a re-run's output.
          auto* terminal =
              dynamic_cast<ExchangeSender*>(run.fragment->terminal());
          if (local_site >= 0 || terminal == nullptr ||
              terminal->batches_sent() > 0) {
            retry = false;
          }
        }
        if (!retry) {
          fatal = run.error;
          break;
        }
        if (run.stateful != nullptr) {
          // Stateful recovery sequence. 1) Quiesce: preempt every producer
          // fragment still running and wait until all their threads exit —
          // nothing may feed the input channels while they are rebuilt.
          StatefulFragmentSpec& spec = *run.stateful;
          std::vector<FragmentRun*> producer_runs;
          for (FragmentRun& r : runs) {
            for (PlanBuilder* producer : spec.producers) {
              if (r.fragment == producer) producer_runs.push_back(&r);
            }
          }
          for (FragmentRun* r : producer_runs) {
            if (r->active_threads == 0) continue;
            for (SourceOperator* source : r->fragment->sources()) {
              source->Preempt();
            }
          }
          progress.wait(lock, [&] {
            for (const FragmentRun* r : producer_runs) {
              if (r->active_threads > 0) return false;
            }
            return true;
          });
          // 2) Heal the failure. Over TCP, give in-flight loopback frames a
          // moment to land so the reopened queues start empty (a late
          // old-epoch frame would be dropped anyway, but a finish marker
          // counting against the fresh attempt must not slip in).
          heal();
          if (transport != nullptr) {
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
          }
          // 3) Rearm the fragment: rebuilt on another site when the
          // adaptive supervisor says so (the checkpointer re-binds to the
          // replacement's operators), otherwise reset in place.
          bool migrated = false;
          if (supervisor != nullptr &&
              supervisor->ShouldMigrate(run.fragment, run.attempts)) {
            auto moved = supervisor->Migrate(run.fragment);
            if (moved.ok()) {
              for (StatefulFragmentSpec& other : stateful_fragments) {
                for (PlanBuilder*& producer : other.producers) {
                  if (producer == run.fragment) producer = moved->fragment;
                }
              }
              run.fragment = moved->fragment;
              run.site = moved->site;
              spec.fragment = moved->fragment;
              if (spec.checkpointer != nullptr) {
                spec.checkpointer->Bind(run.fragment);
              }
              migrated = true;
              obs::TraceInstant(
                  "fragment_migrate",
                  "\"to_site\":" + std::to_string(run.site->id()));
            }
          }
          if (!migrated) {
            for (const auto& op : run.fragment->operators()) {
              op->ResetForReplay();
            }
          }
          // 4) Restore the last checkpoint; on any restore error fall
          // back to a full replay into empty state.
          bool restored = false;
          if (spec.checkpointer != nullptr &&
              spec.checkpointer->has_checkpoint()) {
            const Status st = spec.checkpointer->RestoreInto(run.fragment);
            if (st.ok()) {
              restored = true;
            } else {
              for (const auto& op : run.fragment->operators()) {
                op->ResetForReplay();
              }
            }
          }
          if (!restored) {
            for (SourceOperator* source : run.fragment->sources()) {
              if (auto* recv = dynamic_cast<ExchangeReceiver*>(source)) {
                recv->ClearReplayState();
              }
            }
          }
          // 5) Fresh input queues: leftovers of the failed attempt die
          // here; the producers' replay re-delivers their content.
          for (const auto& channel : spec.input_channels) {
            if (channel != nullptr) channel->DrainAndReopen();
          }
          for (auto& site : sites) {
            for (const auto& manager : site->aip_managers()) {
              reships += manager->ReshipPending();
            }
          }
          ++restarts;
          obs::TraceInstant(
              "fragment_restart",
              "\"site\":" + std::to_string(run.site->id()) +
                  ",\"attempt\":" + std::to_string(run.attempts) +
                  ",\"restored\":" + (restored ? "true" : "false"));
          launch(&run);
          // 6) Replay every producer from its scan; the restored
          // high-waters discard the prefix the checkpoint already
          // absorbed, so each window lands exactly once.
          for (FragmentRun* r : producer_runs) {
            for (const auto& op : r->fragment->operators()) {
              op->ResetForReplay();
            }
            r->finished = false;
            launch(r);
          }
          continue;
        }
        // Recovery sequence. 1) Heal — the restart *is* the failed site
        // coming back. 2) Rearm the fragment — in place (reset operators,
        // advance the sender's epoch), or, when the adaptive supervisor
        // says so, rebuilt on another site (the
        // replacement adopts the old sender's stream at the next epoch, so
        // consumers dedup exactly as for an in-place replay). 3) Re-ship
        // Bloom summaries that never reached a producer during the outage,
        // so pruning survives recovery. 4) Replay from the scan.
        heal();
        bool migrated = false;
        if (supervisor != nullptr &&
            supervisor->ShouldMigrate(run.fragment, run.attempts)) {
          auto moved = supervisor->Migrate(run.fragment);
          if (moved.ok()) {
            // Keep stateful specs' producer lists pointing at the live
            // fragment: a later stateful recovery must quiesce and replay
            // the rebuilt producer, not the abandoned original.
            for (StatefulFragmentSpec& spec : stateful_fragments) {
              for (PlanBuilder*& producer : spec.producers) {
                if (producer == run.fragment) producer = moved->fragment;
              }
            }
            run.fragment = moved->fragment;
            run.site = moved->site;
            migrated = true;
            obs::TraceInstant(
                "fragment_migrate",
                "\"to_site\":" + std::to_string(run.site->id()));
          }
          // On rebuild failure fall back to an in-place restart below.
        }
        if (!migrated) {
          for (const auto& op : run.fragment->operators()) {
            op->ResetForReplay();
          }
        }
        for (auto& site : sites) {
          for (const auto& manager : site->aip_managers()) {
            reships += manager->ReshipPending();
          }
        }
        ++restarts;
        obs::TraceInstant("fragment_restart",
                          "\"site\":" + std::to_string(run.site->id()) +
                              ",\"attempt\":" + std::to_string(run.attempts));
        launch(&run);
        continue;
      }
      if (all_done) break;
      if (supervisor != nullptr) {
        progress.wait_for(lock, supervisor->poll_interval());
        supervisor->Poll();
      } else {
        progress.wait(lock);
      }
    }
  }
  if (!fatal.ok()) cancel_all();
  for (auto& t : threads) t.join();
  if (!fatal.ok()) return fatal;

  for (auto& site : sites) {
    const Status err = site->context().GetError();
    if (!err.ok()) return err;
  }
  const bool root_is_local = local_site < 0 || local_site == root_site;
  if (root_is_local && !root_sink->finished()) {
    return Status::Internal(
        "root sink did not finish although all fragments completed");
  }

  DistQueryStats stats;
  stats.elapsed_sec = timer.ElapsedSeconds();
  stats.result_rows = root_is_local ? root_sink->num_rows() : 0;
  stats.fragment_restarts = restarts;
  stats.aip_reships = reships;
  if (fault_injector != nullptr) {
    stats.faults_injected = fault_injector->faults_injected();
  }
  if (supervisor != nullptr) {
    stats.stragglers_detected = supervisor->stragglers_detected();
    stats.fragment_migrations = supervisor->fragment_migrations();
    stats.recalibrations = supervisor->recalibrations();
  }
  for (const StatefulFragmentSpec& spec : stateful_fragments) {
    if (spec.checkpointer == nullptr) continue;
    stats.checkpoints_taken += spec.checkpointer->checkpoints_taken();
    stats.checkpoint_bytes += spec.checkpointer->checkpoint_bytes_total();
    stats.state_recoveries += spec.checkpointer->restores();
    stats.restore_seconds += spec.checkpointer->restore_seconds();
  }
  for (auto& site : sites) {
    stats.aip_reattached += site->filters_reattached();
    AddContextCounters(site->context(), &stats, [&stats](Operator* op) {
      if (auto* recv = dynamic_cast<ExchangeReceiver*>(op)) {
        stats.batches_discarded += recv->batches_discarded();
      }
      if (auto* sender = dynamic_cast<ExchangeSender*>(op)) {
        stats.payload_bytes += sender->bytes_sent();
      }
    });
    for (const auto& manager : site->aip_managers()) {
      stats.aip_sets += manager->sets_built();
      stats.aip_filters += manager->filters_attached();
      stats.aip_ship_seconds += manager->ship_seconds();
    }
  }
  if (transport != nullptr) {
    // Bytes this endpoint pushed onto the wire (data + control frames). In
    // multi-process mode the coordinator sums the per-site reports.
    const LinkUsage usage = transport->TotalUsage();
    stats.bytes_shipped = usage.bytes;
    stats.link_seconds = usage.seconds;
  } else {
    // Every Transmit on the mesh bills the transmitting site's context, so
    // the sum is this query's traffic even on a mesh other queries share.
    for (auto& site : sites) {
      const LinkUsage own = site->context().OwnLinkUsage();
      stats.bytes_shipped += own.bytes;
      stats.link_seconds += own.seconds;
    }
  }
  return stats;
}

Status ConnectSimEndpoints(DistributedQuery& q) {
  auto cluster = std::make_shared<SimCluster>(q.mesh);
  std::vector<std::shared_ptr<Transport>> endpoints;
  for (auto& site : q.sites) {
    endpoints.push_back(std::make_shared<SimTransport>(cluster, site->id()));
    site->SetEndpoint(endpoints.back());
  }
  for (size_t i = 0; i < q.channels.size(); ++i) {
    const int consumer = q.channels[i]->consumer_site();
    if (consumer < 0 || consumer >= static_cast<int>(endpoints.size())) {
      return Status::InvalidArgument("channel " + std::to_string(i) +
                                     " has no consumer site in the query");
    }
    PUSHSIP_RETURN_NOT_OK(endpoints[static_cast<size_t>(consumer)]->BindChannel(
        static_cast<uint32_t>(i), q.channels[i]));
  }
  return Status::OK();
}

obs::QueryProfile CollectDistProfile(const DistributedQuery& query,
                                     const DistQueryStats& stats) {
  obs::QueryProfile profile;
  profile.elapsed_seconds = stats.elapsed_sec;
  profile.result_rows = stats.result_rows;
  for (const auto& site : query.sites) {
    if (query.local_site >= 0 && site->id() != query.local_site) continue;
    int frag_index = 0;
    for (const auto& fragment : site->fragments()) {
      std::vector<Operator*> ops;
      ops.reserve(fragment->operators().size());
      for (const auto& op : fragment->operators()) ops.push_back(op.get());
      std::string frag_label = "f";
      frag_label += std::to_string(frag_index);
      AppendOperatorProfiles(ops, site->id(), site->name(), frag_label,
                             &profile);
      ++frag_index;
    }
  }
  return profile;
}

}  // namespace pushsip
