#include "exec/hash_join.h"

#include <numeric>

#include "util/serde.h"

namespace pushsip {

SymmetricHashJoin::SymmetricHashJoin(ExecContext* ctx, std::string name,
                                     Schema left_schema, Schema right_schema,
                                     std::vector<int> left_keys,
                                     std::vector<int> right_keys,
                                     ExprPtr residual)
    : Operator(ctx, std::move(name), 2,
               Schema::Concat(left_schema, right_schema)),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      residual_(std::move(residual)) {
  PUSHSIP_DCHECK(left_keys_.size() == right_keys_.size());
  PUSHSIP_DCHECK(!left_keys_.empty());
}

SymmetricHashJoin::~SymmetricHashJoin() {
  std::lock_guard<std::mutex> lock(mu_);
  ReleaseSide(&sides_[0]);
  ReleaseSide(&sides_[1]);
}

int64_t SymmetricHashJoin::StateBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sides_[0].state_bytes + sides_[1].state_bytes;
}

std::vector<uint64_t> SymmetricHashJoin::StateColumnHashes(int port,
                                                           int col) const {
  std::vector<uint64_t> hashes;
  std::lock_guard<std::mutex> lock(mu_);
  const Side& side = sides_[port];
  hashes.reserve(side.entries.size());
  for (const Entry& e : side.entries) {
    hashes.push_back(
        side.batches[e.batch].col(static_cast<size_t>(col)).HashAt(e.row));
  }
  return hashes;
}

int64_t SymmetricHashJoin::StateTupleCount(int port) const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(sides_[port].entries.size());
}

bool SymmetricHashJoin::StateCompleteAtFinish(int port) const {
  std::lock_guard<std::mutex> lock(mu_);
  return sides_[port].complete_at_finish;
}

void SymmetricHashJoin::ReleaseSide(Side* side) {
  if (side->state_bytes > 0) {
    ctx_->state_tracker().Release(side->state_bytes);
    side->state_bytes = 0;
  }
  side->entries.clear();
  side->heads.clear();
  side->match_slot.clear();
  side->batches.clear();
  side->buffering = false;
}

void SymmetricHashJoin::BufferBatch(Side* side, Batch&& batch,
                                    const std::vector<uint64_t>& hashes) {
  const size_t n = batch.size();
  const uint32_t bi = static_cast<uint32_t>(side->batches.size());
  std::vector<Entry>& entries = side->entries;
  std::vector<uint32_t>& heads = side->heads;
  const size_t total = entries.size() + n;
  if (total > heads.size()) {
    // Grow to at least one bucket per entry and rebuild every chain by
    // re-inserting in insertion order: chains stay newest-first.
    size_t buckets = heads.empty() ? 1024 : heads.size();
    while (buckets < total) buckets *= 2;
    heads.assign(buckets, kNoEntry);
    const uint64_t mask = buckets - 1;
    for (uint32_t i = 0; i < entries.size(); ++i) {
      uint32_t& head = heads[entries[i].hash & mask];
      entries[i].next = head;
      head = i;
    }
  }
  const uint64_t mask = heads.size() - 1;
  for (size_t r = 0; r < n; ++r) {
    uint32_t& head = heads[hashes[r] & mask];
    const uint32_t idx = static_cast<uint32_t>(entries.size());
    entries.push_back({hashes[r], bi, static_cast<uint32_t>(r), head});
    head = idx;
  }
  const int64_t bytes = static_cast<int64_t>(batch.FootprintBytes()) +
                        static_cast<int64_t>(n) * 48 /*table entries*/;
  side->state_bytes += bytes;
  ctx_->state_tracker().Add(bytes);
  side->batches.push_back(std::move(batch));
}

void SymmetricHashJoin::BumpPeak() {
  const int64_t now = sides_[0].state_bytes + sides_[1].state_bytes;
  int64_t prev = peak_state_.load(std::memory_order_relaxed);
  while (now > prev && !peak_state_.compare_exchange_weak(prev, now)) {
  }
}

void SymmetricHashJoin::ResetForReplay() {
  Operator::ResetForReplay();
  std::lock_guard<std::mutex> lock(mu_);
  for (Side& side : sides_) {
    ReleaseSide(&side);
    side.finished = false;
    side.buffering = true;
    side.complete_at_finish = false;
  }
}

Status SymmetricHashJoin::SnapshotState(std::string* meta,
                                        std::vector<Batch>* batches) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Side& side : sides_) {
    serde::AppendU8(side.finished ? 1 : 0, meta);
    serde::AppendU8(side.buffering ? 1 : 0, meta);
    serde::AppendU8(side.complete_at_finish ? 1 : 0, meta);
    serde::AppendU32(static_cast<uint32_t>(side.batches.size()), meta);
    for (const Batch& b : side.batches) {
      // Whole-column copies; string columns share b's dictionaries.
      Batch copy;
      for (size_t c = 0; c < b.num_cols(); ++c) {
        Column col;
        col.AppendRange(b.col(c), 0, b.size());
        copy.AddColumn(std::move(col));
      }
      batches->push_back(std::move(copy));
    }
  }
  return Status::OK();
}

Status SymmetricHashJoin::RestoreState(const std::string& meta,
                                       std::vector<Batch>&& batches) {
  serde::Reader reader(meta);
  std::lock_guard<std::mutex> lock(mu_);
  size_t next = 0;
  for (int port = 0; port < 2; ++port) {
    Side& side = sides_[port];
    ReleaseSide(&side);
    uint8_t finished = 0, buffering = 0, complete = 0;
    uint32_t count = 0;
    PUSHSIP_RETURN_NOT_OK(reader.ReadU8(&finished));
    PUSHSIP_RETURN_NOT_OK(reader.ReadU8(&buffering));
    PUSHSIP_RETURN_NOT_OK(reader.ReadU8(&complete));
    PUSHSIP_RETURN_NOT_OK(reader.ReadU32(&count));
    if (next + count > batches.size()) {
      return Status::IOError(name() + ": join checkpoint batch count mismatch");
    }
    const std::vector<int>& keys = port == 0 ? left_keys_ : right_keys_;
    for (uint32_t i = 0; i < count; ++i) {
      Batch batch = std::move(batches[next++]);
      if (batch.empty()) {
        // The wire encoding drops the arity of an empty batch; keep the
        // slot (so batch indices keep parity with the snapshot) but there
        // are no rows — and no columns — to hash.
        side.batches.push_back(std::move(batch));
        continue;
      }
      // Recompute the key hashes and re-insert in the original order: the
      // hash is a pure function of the key values, so the rebuilt table has
      // the same chains, in the same newest-first order, as the original.
      std::vector<uint64_t> scratch;
      const std::vector<uint64_t>& key_hashes = batch.KeyHashes(keys, &scratch);
      BufferBatch(&side, std::move(batch), key_hashes);
    }
    side.finished = finished != 0;
    side.buffering = buffering != 0;
    side.complete_at_finish = complete != 0;
  }
  BumpPeak();
  return Status::OK();
}

Status SymmetricHashJoin::DoPush(int port, Batch&& batch) {
  const int other = 1 - port;
  const std::vector<int>& my_keys = port == 0 ? left_keys_ : right_keys_;
  const std::vector<int>& other_keys = port == 0 ? right_keys_ : left_keys_;

  // One-pass key hashing: reuse the batch's cached lane when an upstream
  // consumer (AIP filter, shuffle, tap) already hashed these keys; either
  // way the hashes are computed outside the lock.
  std::vector<uint64_t> scratch;
  const std::vector<uint64_t>& key_hashes = batch.KeyHashes(my_keys, &scratch);

  const size_t n = batch.size();
  Batch out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Side& mine = sides_[port];
    Side& theirs = sides_[other];
    // Probe the opposite side, collecting every match: probe rows in order,
    // each row's matches newest-first (chain order). Matched build batches
    // get dense slots so the build-side gather indexes a short list.
    std::vector<uint32_t> probe_rows, build_slots, build_rows;
    std::vector<uint32_t> matched;  // slot -> build batch index
    if (!theirs.heads.empty()) {
      theirs.match_slot.resize(theirs.batches.size(), kNoEntry);
      const uint64_t mask = theirs.heads.size() - 1;
      for (size_t r = 0; r < n; ++r) {
        const uint64_t h = key_hashes[r];
        for (uint32_t e = theirs.heads[h & mask]; e != kNoEntry;
             e = theirs.entries[e].next) {
          const Entry& entry = theirs.entries[e];
          if (entry.hash != h ||
              !Batch::RowsEqualOn(batch, r, my_keys,
                                  theirs.batches[entry.batch], entry.row,
                                  other_keys)) {
            continue;
          }
          uint32_t& slot = theirs.match_slot[entry.batch];
          if (slot == kNoEntry) {
            slot = static_cast<uint32_t>(matched.size());
            matched.push_back(entry.batch);
          }
          probe_rows.push_back(static_cast<uint32_t>(r));
          build_slots.push_back(slot);
          build_rows.push_back(entry.row);
        }
      }
      for (const uint32_t bi : matched) theirs.match_slot[bi] = kNoEntry;
    }
    // One typed gather per output column; output is always left ++ right.
    const size_t m = probe_rows.size();
    const auto gather_probe = [&] {
      for (size_t c = 0; c < batch.num_cols(); ++c) {
        Column col;
        col.AppendGather(batch.col(c), probe_rows.data(), m);
        out.AddColumn(std::move(col));
      }
    };
    const auto gather_build = [&] {
      std::vector<const Column*> srcs(matched.size());
      for (size_t c = 0; c < theirs.batches[matched[0]].num_cols(); ++c) {
        for (size_t s = 0; s < matched.size(); ++s) {
          srcs[s] = &theirs.batches[matched[s]].col(c);
        }
        Column col;
        col.AppendGather(srcs, build_slots.data(), build_rows.data(), m);
        out.AddColumn(std::move(col));
      }
    };
    if (m > 0) {
      if (port == 0) {
        gather_probe();
        gather_build();
      } else {
        gather_build();
        gather_probe();
      }
    }
    // Buffer for future probes from the other side — unless that side has
    // already finished (short-circuit: no future probes can arrive). The
    // whole batch is retained as-is; the table rows point into it.
    if (mine.buffering && !theirs.finished && n > 0) {
      BufferBatch(&mine, std::move(batch), key_hashes);
    }
    BumpPeak();
  }
  if (residual_ && !out.empty()) {
    std::vector<uint32_t> sel(out.size());
    std::iota(sel.begin(), sel.end(), 0u);
    residual_->EvalSelection(out, &sel);
    if (sel.size() != out.size()) out.CompactInPlace(sel);
  }
  return Emit(std::move(out));
}

Status SymmetricHashJoin::DoFinish(int port) {
  bool both_done = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sides_[port].finished = true;
    // If this side was still buffering, its table is the complete input
    // subexpression: a valid AIP-set source. (It stays resident anyway to
    // serve probes from the other, still-running input.)
    sides_[port].complete_at_finish = sides_[port].buffering;
    // The other side's buffered tuples can only be probed by arrivals on
    // THIS port; none will come, so free that state now (Tukwila's
    // short-circuit; this is what gives Baseline its Q2C space advantage
    // over Magic in the paper).
    Side& other = sides_[1 - port];
    ReleaseSide(&other);
    both_done = other.finished;
  }
  if (both_done) {
    std::lock_guard<std::mutex> lock(mu_);
    ReleaseSide(&sides_[0]);
    ReleaseSide(&sides_[1]);
  }
  return both_done ? EmitFinish() : Status::OK();
}

}  // namespace pushsip
