#include "exec/hash_join.h"

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
  hashes.reserve(side.table.size());
  for (const auto& [_, ref] : side.table) {
    hashes.push_back(
        side.batches[ref.first].col(static_cast<size_t>(col)).HashAt(
            ref.second));
  }
  return hashes;
}

int64_t SymmetricHashJoin::StateTupleCount(int port) const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(sides_[port].table.size());
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
  side->table.clear();
  side->batches.clear();
  side->buffering = false;
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
    uint8_t finished, buffering, complete;
    uint32_t count;
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
      // the same buckets — and the same chain order — as the original.
      std::vector<uint64_t> scratch;
      const std::vector<uint64_t>& key_hashes = batch.KeyHashes(keys, &scratch);
      const size_t n = batch.size();
      const uint32_t bi = static_cast<uint32_t>(side.batches.size());
      for (size_t r = 0; r < n; ++r) {
        side.table.emplace(key_hashes[r],
                           std::make_pair(bi, static_cast<uint32_t>(r)));
      }
      const int64_t bytes = static_cast<int64_t>(batch.FootprintBytes()) +
                            static_cast<int64_t>(n) * 48;
      side.state_bytes += bytes;
      ctx_->state_tracker().Add(bytes);
      side.batches.push_back(std::move(batch));
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
  out.SetArity(output_schema().num_fields());
  {
    std::lock_guard<std::mutex> lock(mu_);
    Side& mine = sides_[port];
    Side& theirs = sides_[other];
    for (size_t r = 0; r < n; ++r) {
      const uint64_t h = key_hashes[r];
      // Probe the opposite side.
      const auto [lo, hi] = theirs.table.equal_range(h);
      for (auto it = lo; it != hi; ++it) {
        const Batch& ob = theirs.batches[it->second.first];
        const size_t orow = it->second.second;
        if (!Batch::RowsEqualOn(batch, r, my_keys, ob, orow, other_keys)) {
          continue;
        }
        // Gather the output row column-wise (string columns copy dictionary
        // codes); a failing residual pops it right back off.
        if (port == 0) {
          out.AppendConcatRow(batch, r, ob, orow);
        } else {
          out.AppendConcatRow(ob, orow, batch, r);
        }
        if (residual_) {
          const Value v = residual_->Eval(out, out.size() - 1);
          if (v.is_null() || v.AsInt64() == 0) out.PopBackRow();
        }
      }
    }
    // Buffer for future probes from the other side — unless that side has
    // already finished (short-circuit: no future probes can arrive). The
    // whole batch is retained as-is; the table rows point into it.
    if (mine.buffering && !theirs.finished && n > 0) {
      const uint32_t bi = static_cast<uint32_t>(mine.batches.size());
      for (size_t r = 0; r < n; ++r) {
        mine.table.emplace(key_hashes[r],
                           std::make_pair(bi, static_cast<uint32_t>(r)));
      }
      const int64_t bytes = static_cast<int64_t>(batch.FootprintBytes()) +
                            static_cast<int64_t>(n) * 48 /*table entries*/;
      mine.state_bytes += bytes;
      ctx_->state_tracker().Add(bytes);
      mine.batches.push_back(std::move(batch));
    }
    BumpPeak();
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
