#include "dist/exchange.h"

#include <algorithm>
#include <cstdio>
#include <shared_mutex>

#include "dist/checkpoint.h"
#include "net/wire_format.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "util/pacer.h"
#include "util/serde.h"
#include "util/stopwatch.h"

namespace pushsip {

const char* ExchangeModeName(ExchangeMode mode) {
  switch (mode) {
    case ExchangeMode::kForward: return "forward";
    case ExchangeMode::kBroadcast: return "broadcast";
    case ExchangeMode::kHashPartition: return "hash";
  }
  return "?";
}

ExchangeSender::ExchangeSender(ExecContext* ctx, std::string name,
                               Schema schema, ExchangeMode mode,
                               std::vector<int> hash_cols,
                               std::vector<ExchangeDestination> destinations)
    : Operator(ctx, std::move(name), /*num_inputs=*/1, std::move(schema)),
      mode_(mode),
      hash_cols_(std::move(hash_cols)),
      destinations_(std::move(destinations)),
      arrival_seq_(destinations_.size()),
      rows_sent_(destinations_.size()) {
  PUSHSIP_DCHECK(!destinations_.empty());
  PUSHSIP_DCHECK(mode_ != ExchangeMode::kForward ||
                 destinations_.size() == 1);
  PUSHSIP_DCHECK(mode_ != ExchangeMode::kHashPartition ||
                 !hash_cols_.empty());
  sender_slots_.reserve(destinations_.size());
  for (const ExchangeDestination& dest : destinations_) {
    sender_slots_.push_back(dest.channel->AllocSenderSlot());
  }
  // Broadcast shares one stream: every destination receives the identical
  // body sequence, so their decoders stay in sync with the one encoder.
  const size_t num_streams =
      mode_ == ExchangeMode::kBroadcast ? 1 : destinations_.size();
  streams_.reserve(num_streams);
  for (size_t i = 0; i < num_streams; ++i) {
    streams_.push_back(std::make_unique<Stream>());
  }
}

void ExchangeSender::ResetStreams() {
  for (const auto& s : streams_) {
    std::lock_guard<std::mutex> lock(s->mu);
    s->encoder.Reset();
  }
  for (const ExchangeDestination& dest : destinations_) dest.edge->Rewind();
}

Status ExchangeSender::OpenEdges(Transport& endpoint) {
  for (ExchangeDestination& dest : destinations_) {
    PUSHSIP_ASSIGN_OR_RETURN(
        dest.edge, endpoint.OpenChannel(dest.channel_id,
                                        dest.channel->consumer_site()));
  }
  return Status::OK();
}

void ExchangeSender::ResetForReplay() {
  Operator::ResetForReplay();
  epoch_.fetch_add(1);
  // The new epoch resets the receivers' stream dictionaries, so the
  // encoders must forget what they shipped and start over too.
  ResetStreams();
  for (auto& s : arrival_seq_) s.store(0);
  // The replay re-sends the whole stream, so the per-destination observed
  // cardinality restarts from zero too — otherwise an in-place restart
  // would feed consumers ~double the real row count at recalibration.
  for (auto& r : rows_sent_) r.store(0);
}

void ExchangeSender::AdoptStream(const ExchangeSender& prev) {
  PUSHSIP_DCHECK(prev.sender_slots_.size() == sender_slots_.size());
  // The slots this sender's constructor allocated are abandoned (never
  // used); the consumers only ever knew the predecessor's slots.
  sender_slots_ = prev.sender_slots_;
  epoch_.store(prev.epoch_.load() + 1);
  // Fresh epoch, fresh dictionaries on both sides (this sender's encoders
  // are new, but a defensive reset keeps the invariant obvious).
  ResetStreams();
}

Status ExchangeSender::Send(size_t dest_index, const Batch& batch,
                            const std::string* body) {
  // Fully pruned batches are skipped, leaving a gap in the seq space —
  // receivers tolerate gaps, and a deterministic replay skips the same
  // (or a superset of the same) windows.
  if (batch.empty()) return Status::OK();
  BatchFrame frame;
  frame.sender = static_cast<uint32_t>(sender_slots_[dest_index]);
  frame.epoch = epoch_.load();
  frame.replayable = seq_source_ != nullptr;
  frame.seq = frame.replayable ? seq_source_->current_window()
                               : arrival_seq_[dest_index].fetch_add(1);
  if (body != nullptr) {
    // Broadcast: the caller already holds the shared stream's lock across
    // encode and the whole fan-out, so stamping a header is all that's
    // left here.
    return TransmitFrame(
        dest_index,
        AssembleBatchFrame(frame.sender, frame.epoch, frame.seq,
                           frame.replayable, *body),
        batch.size());
  }
  // Encode and enqueue under the stream's lock: a frame that carries
  // dictionary entries must reach the channel before the next frame that
  // references them.
  Stream& stream = *streams_[dest_index];
  std::lock_guard<std::mutex> lock(stream.mu);
  return TransmitFrame(dest_index,
                       stream.encoder.SerializeFrame(
                           frame.sender, frame.epoch, frame.seq,
                           frame.replayable, batch),
                       batch.size());
}

Status ExchangeSender::TransmitFrame(size_t dest_index, std::string bytes,
                                     size_t rows) {
  const size_t wire_bytes = bytes.size();
  // Counters move only after the edge took the frame: frames killed by an
  // injected fault or a dead connection (kUnavailable, the restart signal)
  // were never sent.
  PUSHSIP_RETURN_NOT_OK(destinations_[dest_index].edge->SendFrame(
      std::move(bytes), ctx_, nullptr));
  bytes_sent_.fetch_add(static_cast<int64_t>(wire_bytes));
  batches_sent_.fetch_add(1);
  rows_sent_[dest_index].fetch_add(static_cast<int64_t>(rows));
  if (obs::Trace::enabled()) {
    char args[96];
    std::snprintf(args, sizeof(args), "\"bytes\":%zu,\"rows\":%zu,\"dest\":%zu",
                  wire_bytes, rows, dest_index);
    obs::TraceInstant("exchange_send", args);
  }
  // Feed the observed wire bytes/row back to the AIP ship-vs-save cost
  // model, so its link-savings term reflects the compressed sizes actually
  // crossing the mesh.
  ctx_->RecordWireSample(static_cast<int64_t>(rows),
                         static_cast<int64_t>(wire_bytes));
  return Status::OK();
}

Status ExchangeSender::DoPush(int, Batch&& batch) {
  switch (mode_) {
    case ExchangeMode::kForward:
      return Send(0, batch);
    case ExchangeMode::kBroadcast: {
      if (batch.empty()) return Status::OK();
      // Serialize the payload once (headers carry the per-destination
      // sender slot and seq, so only the body is shareable) instead of
      // re-encoding per destination. The shared stream's lock is held
      // across encode *and* the fan-out so every destination's frame order
      // matches the encoder's state.
      Stream& stream = *streams_[0];
      std::lock_guard<std::mutex> lock(stream.mu);
      const std::string body = stream.encoder.SerializeBody(batch);
      for (size_t i = 0; i < destinations_.size(); ++i) {
        PUSHSIP_RETURN_NOT_OK(Send(i, batch, &body));
      }
      return Status::OK();
    }
    case ExchangeMode::kHashPartition: {
      // Key hashes come from the batch's cached lane when an upstream
      // consumer (filter, tap) already hashed these columns; each routed
      // partition is one typed gather per column (string columns share the
      // batch's dictionary and move codes, not bytes).
      std::vector<uint64_t> scratch;
      const std::vector<uint64_t>& key_hashes =
          batch.KeyHashes(hash_cols_, &scratch);
      const size_t n = batch.size();
      const size_t ndest = destinations_.size();
      std::vector<std::vector<uint32_t>> rows(ndest);
      for (std::vector<uint32_t>& dest_rows : rows) {
        dest_rows.reserve(n / ndest + 1);
      }
      for (size_t r = 0; r < n; ++r) {
        rows[static_cast<size_t>(key_hashes[r] % ndest)].push_back(
            static_cast<uint32_t>(r));
      }
      for (size_t i = 0; i < ndest; ++i) {
        Batch part;
        part.AppendGather(batch, rows[i].data(), rows[i].size());
        PUSHSIP_RETURN_NOT_OK(Send(i, part));
      }
      return Status::OK();
    }
  }
  return Status::Internal("unknown exchange mode");
}

Status ExchangeSender::DoFinish(int) {
  for (size_t i = 0; i < destinations_.size(); ++i) {
    PUSHSIP_RETURN_NOT_OK(destinations_[i].edge->SendFinish(sender_slots_[i]));
  }
  return Status::OK();
}

void ExchangeSender::AddProfileDetail(obs::OperatorProfile* profile) const {
  profile->detail = ExchangeModeName(mode_);
  profile->bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
}

void ExchangeReceiver::AddProfileDetail(
    obs::OperatorProfile* profile) const {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "frames=%lld",
                static_cast<long long>(batches_received_.load()));
  profile->detail = buf;
}

Status ExchangeReceiver::Run() {
  const auto poll = std::chrono::milliseconds(
      options_.poll_ms > 0 ? options_.poll_ms : 25);
  // Negative = inherit the per-query default from the context.
  const double idle_timeout_sec =
      options_.idle_timeout_sec < 0 ? ctx_->exchange_idle_timeout_sec()
                                    : options_.idle_timeout_sec;
  // Owes the modelled link time of what this thread sends downstream (a
  // compute fragment's result frames); settled when Run returns.
  Pacer pacer;
  double idle_sec = 0;
  int64_t frames_seen = 0;
  std::string bytes;
  while (true) {
    // The stall is the time actually waited, partial waits included.
    const Stopwatch wait;
    const ExchangeChannel::RecvStatus r = channel_->Receive(&bytes, poll);
    stall_micros_.fetch_add(
        static_cast<int64_t>(wait.ElapsedSeconds() * 1e6));
    if (ShouldStop()) return Status::Cancelled("query cancelled");
    if (r == ExchangeChannel::RecvStatus::kCancelled) {
      return Status::Cancelled("exchange channel cancelled");
    }
    if (r == ExchangeChannel::RecvStatus::kEndOfStream) break;
    if (r == ExchangeChannel::RecvStatus::kTimeout) {
      idle_sec += static_cast<double>(poll.count()) / 1e3;
      if (idle_timeout_sec > 0 && idle_sec >= idle_timeout_sec) {
        // A dead receiver must not keep backpressuring its producers:
        // with nobody draining the queue they would park in SendBatch at
        // capacity and never finish, deadlocking the whole query before
        // the supervisor even sees this failure. Marking the channel
        // consumed drops further frames (recovery replays them) and wakes
        // any blocked sender; DrainAndReopen re-arms it for the retry.
        channel_->CloseConsumed();
        return Status::Unavailable(
            name() + ": no exchange traffic for " +
            std::to_string(idle_sec) +
            "s — upstream fragment presumed dead");
      }
      continue;
    }
    idle_sec = 0;
    // Decode through the stream decoder *before* any dedup decision: even
    // a frame that ends up discarded as a duplicate advanced the sender's
    // encoder state, so it must advance this side's dictionaries too.
    Result<BatchFrame> decoded = decoder_.DecodeFrame(bytes);
    if (!decoded.ok()) {
      if (restored_) {
        // A frame cut mid-stream by the restore can reference dictionary
        // entries the fresh decoder never saw. It belongs to a superseded
        // epoch (every producer is relaunched at a new epoch during
        // recovery), so its content will be re-sent; drop it.
        batches_discarded_.fetch_add(1);
        continue;
      }
      return decoded.status();
    }
    BatchFrame frame = std::move(*decoded);
    if (frame.stale) {
      // Pre-restart leftover; its dictionary context is gone and the epoch
      // dedup below would discard it anyway.
      batches_discarded_.fetch_add(1);
      continue;
    }
    // Deterministic chaos kill: frame N never makes it into the fragment —
    // it dies with this attempt, exactly like a frame consumed moments
    // before a site crash.
    if (options_.fail_after_frames > 0 && !chaos_fired_ &&
        ++frames_seen >= options_.fail_after_frames) {
      chaos_fired_ = true;
      // Same backpressure release as the idle-timeout death above: the
      // producers keep running after this receiver dies and must not park
      // forever on a queue nobody drains.
      channel_->CloseConsumed();
      return Status::Unavailable(
          name() + ": injected receiver failure after " +
          std::to_string(frames_seen) + " frames");
    }
    {
      // Frame incorporation happens under the fragment checkpoint's shared
      // lock: the dedup bookkeeping, the hold/emit, and the downstream
      // operator state it mutates land entirely inside or entirely outside
      // any concurrent checkpoint cut.
      std::shared_lock<std::shared_mutex> cut;
      if (checkpointer_ != nullptr) cut = checkpointer_->LockShared();
      if (frame.replayable) {
        // Only replayable producers ever re-send; their frames carry
        // deterministic, strictly increasing seqs, so a per-sender
        // high-water mark identifies every duplicate exactly.
        SenderProgress& progress = progress_[frame.sender];
        if (frame.epoch < progress.epoch) {
          // Leftover of a superseded epoch, still queued when the producer
          // was restarted. Its content is a (filter-state-dependent) subset
          // of the already-passed stream prefix, so dropping it is safe.
          batches_discarded_.fetch_add(1);
          continue;
        }
        progress.epoch = frame.epoch;
        if (static_cast<int64_t>(frame.seq) <= progress.high_water) {
          // Replay of a window this receiver already passed downstream.
          batches_discarded_.fetch_add(1);
          continue;
        }
        progress.high_water = static_cast<int64_t>(frame.seq);
      }
      batches_received_.fetch_add(1);
      if (obs::Trace::enabled()) {
        char args[96];
        std::snprintf(args, sizeof(args), "\"rows\":%zu,\"sender\":%u",
                      frame.batch.size(), frame.sender);
        obs::TraceInstant("exchange_recv", args);
      }
      if (options_.ordered_merge) {
        held_.push_back(HeldFrame{frame.sender, frame.seq,
                                  std::move(frame.batch)});
      } else {
        PUSHSIP_RETURN_NOT_OK(Emit(std::move(frame.batch)));
      }
    }
    // Outside the shared lock: taking a checkpoint needs the exclusive
    // side of the same mutex.
    if (checkpointer_ != nullptr) checkpointer_->OnFrameAccepted();
  }
  if (ShouldStop()) return Status::Cancelled("query cancelled");
  {
    // The end-of-stream burst and the finish propagation form one atomic
    // step with respect to checkpoints: a cut either sees the held frames
    // still buffered here or sees them (and the finish) fully applied to
    // the downstream operators.
    std::shared_lock<std::shared_mutex> cut;
    if (checkpointer_ != nullptr) cut = checkpointer_->LockShared();
    if (options_.ordered_merge) {
      // Deterministic merge: the accepted set is arrival-order-independent
      // (dedup is by content identity), so sorting it by (sender, seq)
      // yields one canonical emission order regardless of backend or
      // scheduler interleave.
      std::sort(held_.begin(), held_.end(),
                [](const HeldFrame& a, const HeldFrame& b) {
                  return a.sender != b.sender ? a.sender < b.sender
                                              : a.seq < b.seq;
                });
      for (HeldFrame& frame : held_) {
        PUSHSIP_RETURN_NOT_OK(Emit(std::move(frame.batch)));
        if (ShouldStop()) return Status::Cancelled("query cancelled");
      }
      held_.clear();
    }
    PUSHSIP_RETURN_NOT_OK(EmitFinish());
  }
  // This receiver is done for good: later frames into its channel (from
  // producers replayed on behalf of a failed sibling fragment) must be
  // discarded, not queued against a reader that will never come back.
  channel_->CloseConsumed();
  return Status::OK();
}

Status ExchangeReceiver::SnapshotReplayState(std::string* out) const {
  serde::AppendU32(static_cast<uint32_t>(progress_.size()), out);
  for (const auto& [sender, progress] : progress_) {
    serde::AppendU32(sender, out);
    serde::AppendU32(progress.epoch, out);
    serde::AppendI64(progress.high_water, out);
  }
  serde::AppendU64(held_.size(), out);
  for (const HeldFrame& frame : held_) {
    serde::AppendU32(frame.sender, out);
    serde::AppendU64(frame.seq, out);
    // Standalone (self-contained) wire encoding: a checkpointed frame must
    // decode without the stream-dictionary context it arrived under.
    serde::AppendBytes(SerializeBatch(frame.batch), out);
  }
  return Status::OK();
}

Status ExchangeReceiver::RestoreReplayState(const std::string& blob) {
  serde::Reader reader(blob);
  uint32_t num_progress = 0;
  PUSHSIP_RETURN_NOT_OK(reader.ReadU32(&num_progress));
  progress_.clear();
  for (uint32_t i = 0; i < num_progress; ++i) {
    uint32_t sender = 0;
    SenderProgress progress;
    PUSHSIP_RETURN_NOT_OK(reader.ReadU32(&sender));
    PUSHSIP_RETURN_NOT_OK(reader.ReadU32(&progress.epoch));
    PUSHSIP_RETURN_NOT_OK(reader.ReadI64(&progress.high_water));
    // Epoch floor: every producer is relaunched at (at least) the next
    // epoch during recovery; leftovers of the recorded epoch still in the
    // pipeline are duplicates-by-construction and must be epoch-dropped.
    progress.epoch += 1;
    progress_.emplace(sender, progress);
  }
  uint64_t num_held = 0;
  PUSHSIP_RETURN_NOT_OK(reader.ReadU64(&num_held));
  held_.clear();
  for (uint64_t i = 0; i < num_held; ++i) {
    HeldFrame frame;
    std::string payload;
    PUSHSIP_RETURN_NOT_OK(reader.ReadU32(&frame.sender));
    PUSHSIP_RETURN_NOT_OK(reader.ReadU64(&frame.seq));
    PUSHSIP_RETURN_NOT_OK(reader.ReadBytes(&payload));
    PUSHSIP_ASSIGN_OR_RETURN(frame.batch, DeserializeBatch(payload));
    held_.push_back(std::move(frame));
  }
  // Fresh decoder: the old dictionary state died with the failed attempt;
  // every relaunched producer re-ships its entries at the new epoch.
  decoder_ = WireStreamDecoder();
  restored_ = true;
  return Status::OK();
}

void ExchangeReceiver::ClearReplayState() {
  progress_.clear();
  held_.clear();
  decoder_ = WireStreamDecoder();
  restored_ = false;
}

}  // namespace pushsip
