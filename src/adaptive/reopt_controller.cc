#include "adaptive/reopt_controller.h"

#include <algorithm>

#include "optimizer/cardinality.h"

namespace pushsip {
namespace adaptive {

ReoptController::ReoptController(DistributedQuery* query,
                                 AdaptiveOptions options)
    : query_(query), options_(options) {
  for (const MigratableFragmentSpec& spec : query->migratable_fragments) {
    FragmentState state;
    state.spec = spec;
    state.current_site = spec.home_site;
    states_.push_back(std::move(state));
    monitor_.TrackFragment(spec.fragment, spec.home_site, spec.stage,
                           spec.scan);
  }
  for (const ExchangeConsumerSpec& c : query->exchange_consumers) {
    if (c.channel != nullptr && c.node != nullptr) {
      consumers_[c.channel].push_back(c.node);
    }
  }
  for (const auto& site : query->sites) {
    monitor_.TrackSite(site->id(), &site->context());
  }
  if (query->mesh != nullptr) monitor_.TrackMesh(query->mesh.get());
}

std::chrono::milliseconds ReoptController::poll_interval() const {
  const double ms = std::max(1.0, options_.poll_interval_ms);
  return std::chrono::milliseconds(static_cast<int64_t>(ms));
}

ReoptController::FragmentState* ReoptController::Find(
    const PlanBuilder* fragment) {
  for (FragmentState& s : states_) {
    if (s.spec.fragment == fragment) return &s;
  }
  return nullptr;
}

void ReoptController::Poll() {
  if (migrations_ >= options_.max_total_migrations) return;
  const ProgressSnapshot snap = monitor_.Sample(/*include_sites=*/false);
  const std::vector<size_t> lagging = DetectStragglers(
      snap, options_.straggle_factor, options_.min_median_windows);
  // Clear suspicion on everything no longer lagging: detection must be
  // *sustained* — a thread the scheduler merely hadn't run yet catches up
  // and resets, while a genuinely throttled site stays behind.
  std::vector<FragmentState*> flagged;
  for (const size_t idx : lagging) {
    FragmentState* state = Find(snap.fragments[idx].fragment);
    if (state != nullptr) flagged.push_back(state);
  }
  for (FragmentState& state : states_) {
    if (std::find(flagged.begin(), flagged.end(), &state) == flagged.end()) {
      state.suspect_polls = 0;
    }
  }
  for (FragmentState* state : flagged) {
    if (state->finished) continue;
    if (state->pending_dest >= 0) continue;  // already preempted
    if (!state->spec.rebuild) continue;      // cannot be rebuilt elsewhere
    if (state->migrations >= options_.max_migrations_per_fragment) continue;
    if (++state->suspect_polls < options_.confirm_polls) continue;
    if (state->spec.scan == nullptr) continue;  // no preemption point
    state->pending_dest = PickDestination(*state, snap);
    if (state->pending_dest < 0) continue;
    ++stragglers_;
    state->suspect_polls = 0;
    // The scan fails at its next window boundary with kUnavailable; the
    // supervisor's recovery path then asks ShouldMigrate and finds the
    // destination already chosen.
    state->spec.scan->Preempt();
  }
}

int ReoptController::PickDestination(const FragmentState& state,
                                     const ProgressSnapshot& snapshot) const {
  int best_site = -1;
  double best_fraction = -1;
  for (const FragmentProgress& f : snapshot.fragments) {
    if (f.stage != state.spec.stage) continue;
    if (f.site == state.current_site) continue;
    if (f.fraction() > best_fraction) {
      best_fraction = f.fraction();
      best_site = f.site;
    }
  }
  if (best_site >= 0) return best_site;
  const int n = static_cast<int>(query_->sites.size());
  if (n < 2) return -1;
  return (state.current_site + 1) % n;
}

void ReoptController::OnFragmentFinished(PlanBuilder* fragment) {
  FragmentState* state = Find(fragment);
  if (state == nullptr || state->finished) return;
  state->finished = true;
  state->pending_dest = -1;
  monitor_.MarkFinished(fragment);
  PublishObservedCardinality(*state);
}

void ReoptController::PublishObservedCardinality(const FragmentState& state) {
  const ExchangeSender* sender = state.spec.sender;
  if (sender == nullptr) return;
  const auto& dests = sender->destinations();
  for (size_t i = 0; i < dests.size(); ++i) {
    const ExchangeChannel* channel = dests[i].channel.get();
    auto consumers = consumers_.find(channel);
    if (consumers == consumers_.end()) continue;
    ChannelObservation& obs = observed_[channel];
    obs.rows += sender->rows_sent(i);
    obs.finished_producers += 1;
    const int total = std::max(1, channel->num_senders());
    // Exact once every producer finished; before that, extrapolate the
    // finished producers' volume across the stragglers still streaming.
    const double rows =
        obs.finished_producers >= total
            ? static_cast<double>(obs.rows)
            : static_cast<double>(obs.rows) * total / obs.finished_producers;
    for (PlanNode* node : consumers->second) {
      FeedObservedExchangeRows(node, rows);
      ++recalibrations_;
    }
  }
}

bool ReoptController::ShouldMigrate(PlanBuilder* fragment, int attempts) {
  FragmentState* state = Find(fragment);
  if (state == nullptr || !state->spec.rebuild) return false;
  if (state->migrations >= options_.max_migrations_per_fragment) return false;
  if (migrations_ >= options_.max_total_migrations) return false;
  if (state->pending_dest >= 0) return true;  // preemption we initiated
  // Genuine failure: after enough in-place attempts, stop assuming the
  // site will heal and move the work.
  return attempts >= options_.migrate_after_failures;
}

Result<AdaptiveSupervisor::Migration> ReoptController::Migrate(
    PlanBuilder* fragment) {
  FragmentState* state = Find(fragment);
  if (state == nullptr) return Status::NotFound("fragment not registered");
  if (!state->spec.rebuild) {
    return Status::InvalidArgument("fragment has no rebuild recipe");
  }
  int dest = state->pending_dest;
  if (dest < 0) {
    dest = PickDestination(*state, monitor_.Sample(/*include_sites=*/false));
  }
  if (dest < 0 || dest >= static_cast<int>(query_->sites.size())) {
    return Status::Unavailable("no destination site for migration");
  }
  SiteEngine& host = *query_->sites[static_cast<size_t>(dest)];
  PUSHSIP_ASSIGN_OR_RETURN(RebuiltFragment rebuilt,
                           state->spec.rebuild(host));
  // Exchange-fed (scanless) fragments legitimately rebuild without a scan;
  // a recipe may only drop the scan when the original had none either.
  if (rebuilt.fragment == nullptr || rebuilt.sender == nullptr ||
      (state->spec.scan != nullptr && rebuilt.scan == nullptr)) {
    return Status::Internal("rebuild recipe returned an incomplete fragment");
  }
  // Take over the logical stream: same slots, next epoch — consumers keep
  // their per-sender high-water marks and drop the replayed prefix exactly.
  rebuilt.sender->AdoptStream(*state->spec.sender);
  monitor_.MoveFragment(state->spec.fragment, rebuilt.fragment, dest,
                        rebuilt.scan);
  state->spec.fragment = rebuilt.fragment;
  state->spec.scan = rebuilt.scan;
  state->spec.sender = rebuilt.sender;
  state->current_site = dest;
  state->pending_dest = -1;
  ++state->migrations;
  ++migrations_;
  Migration migration;
  migration.fragment = rebuilt.fragment;
  migration.site = &host;
  return migration;
}

std::shared_ptr<ReoptController> InstallAdaptiveRuntime(
    DistributedQuery* query, AdaptiveOptions options) {
  auto controller = std::make_shared<ReoptController>(query, options);
  query->adaptive = controller;
  return controller;
}

}  // namespace adaptive
}  // namespace pushsip
