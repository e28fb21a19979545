#include "exec/hash_aggregate.h"

#include <algorithm>

#include "util/serde.h"

namespace pushsip {

HashAggregate::HashAggregate(ExecContext* ctx, std::string name,
                             const Schema& in_schema,
                             std::vector<int> group_cols,
                             std::vector<AggSpec> aggs)
    : Operator(ctx, std::move(name), 1,
               MakeOutputSchema(in_schema, group_cols, aggs)),
      group_cols_(std::move(group_cols)),
      key_cols_(group_cols_.size()),
      aggs_(std::move(aggs)) {
  for (size_t i = 0; i < key_cols_.size(); ++i) {
    key_cols_[i] = static_cast<int>(i);
  }
}

HashAggregate::~HashAggregate() {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_bytes_ > 0) {
    ctx_->state_tracker().Release(state_bytes_);
    state_bytes_ = 0;
  }
}

Schema HashAggregate::MakeOutputSchema(const Schema& in_schema,
                                       const std::vector<int>& group_cols,
                                       const std::vector<AggSpec>& aggs) {
  Schema out;
  for (const int c : group_cols) {
    out.AddField(in_schema.field(static_cast<size_t>(c)));
  }
  for (const AggSpec& a : aggs) {
    out.AddField(Field{a.out_name, a.OutputType(), a.out_attr});
  }
  return out;
}

int64_t HashAggregate::StateBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_bytes_;
}

std::vector<uint64_t> HashAggregate::StateColumnHashes(int col) const {
  PUSHSIP_DCHECK(col >= 0 && col < static_cast<int>(group_cols_.size()));
  std::vector<uint64_t> hashes;
  std::lock_guard<std::mutex> lock(mu_);
  hashes.reserve(groups_.size());
  for (const auto& [_, g] : groups_) {
    hashes.push_back(g.key.at(static_cast<size_t>(col)).Hash());
  }
  return hashes;
}

int64_t HashAggregate::NumGroups() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(groups_.size());
}

void HashAggregate::ResetForReplay() {
  Operator::ResetForReplay();
  std::lock_guard<std::mutex> lock(mu_);
  groups_.clear();
  next_group_seq_ = 0;
  if (state_bytes_ > 0) {
    ctx_->state_tracker().Release(state_bytes_);
    state_bytes_ = 0;
  }
  results_emitted_ = false;
}

Status HashAggregate::SnapshotState(std::string* meta,
                                    std::vector<Batch>* batches) const {
  std::lock_guard<std::mutex> lock(mu_);
  serde::AppendU8(results_emitted_ ? 1 : 0, meta);
  serde::AppendU64(groups_.size(), meta);
  // Serialize in group-creation order (seq), not iteration order: the
  // restore replays the snapshot as an emplace sequence, and only the
  // original sequence rebuilds the original table layout.
  std::vector<const Group*> ordered;
  ordered.reserve(groups_.size());
  for (const auto& [_, g] : groups_) ordered.push_back(&g);
  std::sort(ordered.begin(), ordered.end(),
            [](const Group* a, const Group* b) { return a->seq < b->seq; });
  Batch state;
  state.SetArity(group_cols_.size() + aggs_.size() * 5);
  state.Reserve(groups_.size());
  std::vector<Value> row;
  for (const Group* g : ordered) {
    row.clear();
    for (const Value& v : g->key.values()) row.push_back(v);
    for (const AggState& s : g->states) {
      const AggState::Parts p = s.ToParts();
      row.push_back(Value::Int64(p.count));
      row.push_back(Value::Double(p.sum));
      row.push_back(Value::Int64(p.sum_integral ? 1 : 0));
      row.push_back(Value::Int64(p.isum));
      row.push_back(p.extreme);
    }
    state.AppendRow(row);
  }
  batches->push_back(std::move(state));
  return Status::OK();
}

Status HashAggregate::RestoreState(const std::string& meta,
                                   std::vector<Batch>&& batches) {
  serde::Reader reader(meta);
  uint8_t emitted;
  uint64_t count;
  PUSHSIP_RETURN_NOT_OK(reader.ReadU8(&emitted));
  PUSHSIP_RETURN_NOT_OK(reader.ReadU64(&count));
  if (batches.size() != 1 || batches[0].size() != count) {
    return Status::IOError(name() + ": aggregate checkpoint shape mismatch");
  }
  if (count == 0) {
    // A cut before any group formed: the wire encoding drops the arity of
    // an empty batch, so there is no layout to validate (or replay).
    std::lock_guard<std::mutex> lock(mu_);
    next_group_seq_ = 0;
    results_emitted_ = emitted != 0;
    return Status::OK();
  }
  const Batch& state = batches[0];
  const size_t k = group_cols_.size();
  if (state.num_cols() != k + aggs_.size() * 5) {
    return Status::IOError(name() + ": aggregate checkpoint arity mismatch");
  }
  // Group hashes are recomputed from the restored key values with the same
  // column-hash formula DoPush used, and groups are re-emplaced in their
  // original creation order, reproducing the table layout — and with it
  // DoFinish's emission order — exactly.
  std::vector<uint64_t> scratch;
  const std::vector<uint64_t>& key_hashes =
      state.KeyHashes(key_cols_, &scratch);
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t r = 0; r < count; ++r) {
    Group g;
    std::vector<Value> key_values;
    key_values.reserve(k);
    for (size_t c = 0; c < k; ++c) key_values.push_back(state.ValueAt(r, c));
    g.key = Tuple(std::move(key_values));
    g.seq = static_cast<int64_t>(r);
    g.states.reserve(aggs_.size());
    for (size_t i = 0; i < aggs_.size(); ++i) {
      const size_t base = k + i * 5;
      AggState::Parts p;
      p.count = state.ValueAt(r, base).AsInt64();
      p.sum = state.ValueAt(r, base + 1).AsDouble();
      p.sum_integral = state.ValueAt(r, base + 2).AsInt64() != 0;
      p.isum = state.ValueAt(r, base + 3).AsInt64();
      p.extreme = state.ValueAt(r, base + 4);
      g.states.push_back(AggState::FromParts(aggs_[i].func, p));
    }
    const int64_t bytes = static_cast<int64_t>(g.key.FootprintBytes()) +
                          static_cast<int64_t>(aggs_.size()) * 48 + 16;
    state_bytes_ += bytes;
    ctx_->state_tracker().Add(bytes);
    groups_.emplace(key_hashes[r], std::move(g));
  }
  next_group_seq_ = static_cast<int64_t>(count);
  results_emitted_ = emitted != 0;
  const int64_t now = state_bytes_;
  int64_t prev = peak_state_.load(std::memory_order_relaxed);
  while (now > prev && !peak_state_.compare_exchange_weak(prev, now)) {
  }
  return Status::OK();
}

HashAggregate::Group* HashAggregate::FindOrAddGroup(const Batch& batch,
                                                    size_t r, uint64_t h) {
  const auto [lo, hi] = groups_.equal_range(h);
  for (auto it = lo; it != hi; ++it) {
    if (batch.RowEqualsTupleOn(r, group_cols_, it->second.key, key_cols_)) {
      return &it->second;
    }
  }
  // Group keys are state, not flow: materializing one Tuple per group is
  // bounded by the group cardinality, not the input size.
  Group g;
  std::vector<Value> key_values;
  key_values.reserve(group_cols_.size());
  for (const int c : group_cols_) {
    key_values.push_back(batch.ValueAt(r, static_cast<size_t>(c)));
  }
  g.key = Tuple(std::move(key_values));
  g.seq = next_group_seq_++;
  g.states.reserve(aggs_.size());
  for (const AggSpec& a : aggs_) g.states.emplace_back(a.func);
  const int64_t bytes = static_cast<int64_t>(g.key.FootprintBytes()) +
                        static_cast<int64_t>(aggs_.size()) * 48 + 16;
  state_bytes_ += bytes;
  ctx_->state_tracker().Add(bytes);
  return &groups_.emplace(h, std::move(g))->second;
}

namespace {

// Folds rows [0, n) of `batch` into aggregate `a`, row r into the state
// state_of(r), in row order. A bare INT64 or DOUBLE input column folds its
// raw slots in one typed loop (AggState::UpdateI64/F64, which match Update
// exactly); MIN/MAX, computed inputs and other-typed columns take the
// per-row Eval path.
template <typename StateOf>
void FoldAggregate(const AggSpec& a, const Batch& batch, StateOf state_of) {
  const size_t n = batch.size();
  if (a.func == AggFunc::kCount && !a.input) {  // COUNT(*): every row
    for (size_t r = 0; r < n; ++r) state_of(r).UpdateI64(1);
    return;
  }
  const int c = a.input->column_index();
  if (c >= 0 && a.func != AggFunc::kMin && a.func != AggFunc::kMax) {
    const Column& col = batch.col(static_cast<size_t>(c));
    const std::vector<uint64_t>& nulls = col.null_words();
    const auto is_null = [&nulls](size_t r) {
      return !nulls.empty() && ((nulls[r >> 6] >> (r & 63)) & 1) != 0;
    };
    if (col.type() == TypeId::kInt64) {
      const int64_t* v = col.i64_data();
      for (size_t r = 0; r < n; ++r) {
        if (!is_null(r)) state_of(r).UpdateI64(v[r]);
      }
      return;
    }
    if (col.type() == TypeId::kDouble) {
      const double* v = col.f64_data();
      for (size_t r = 0; r < n; ++r) {
        if (!is_null(r)) state_of(r).UpdateF64(v[r]);
      }
      return;
    }
  }
  for (size_t r = 0; r < n; ++r) state_of(r).Update(a.input->Eval(batch, r));
}

}  // namespace

Status HashAggregate::DoPush(int, Batch&& batch) {
  const size_t n = batch.size();
  if (n == 0) return Status::OK();
  // Group-key hashes come from the batch's cached lane when available
  // (e.g. computed by an AIP filter or shuffle on the same keys), and are
  // computed outside the lock otherwise.
  std::vector<uint64_t> scratch;
  const std::vector<uint64_t>* key_hashes =
      group_cols_.empty() ? nullptr : &batch.KeyHashes(group_cols_, &scratch);
  std::lock_guard<std::mutex> lock(mu_);
  // First each row's group, in row order, so groups are created in the
  // order a row-at-a-time loop would create them; then each aggregate
  // folds the batch in row order, so every group accumulates its rows in
  // the same order as before.
  if (key_hashes == nullptr) {
    // Scalar aggregation: every row belongs to the one group.
    Group* group = FindOrAddGroup(batch, 0, batch.RowHashColumns(0, {}));
    for (size_t i = 0; i < aggs_.size(); ++i) {
      AggState& state = group->states[i];
      FoldAggregate(aggs_[i], batch,
                    [&state](size_t) -> AggState& { return state; });
    }
  } else {
    std::vector<Group*> row_group(n);
    for (size_t r = 0; r < n; ++r) {
      row_group[r] = FindOrAddGroup(batch, r, (*key_hashes)[r]);
    }
    for (size_t i = 0; i < aggs_.size(); ++i) {
      FoldAggregate(aggs_[i], batch, [&row_group, i](size_t r) -> AggState& {
        return row_group[r]->states[i];
      });
    }
  }
  const int64_t now = state_bytes_;
  int64_t prev = peak_state_.load(std::memory_order_relaxed);
  while (now > prev && !peak_state_.compare_exchange_weak(prev, now)) {
  }
  return Status::OK();
}

Status HashAggregate::DoFinish(int) {
  const size_t batch_size = ctx_->batch_size();
  const size_t arity = output_schema().num_fields();
  std::vector<std::vector<Value>> rows;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A checkpoint-restored operator whose results already flowed (and were
    // snapshotted inside the downstream state) must not emit them twice;
    // only the finish signal is replayed.
    if (results_emitted_) return EmitFinish();
    results_emitted_ = true;
    rows.reserve(groups_.size());
    // NULL-key groups never arise: group keys with NULLs are legal SQL but
    // the workload's grouping keys are key columns; handled uniformly here
    // regardless.
    for (const auto& [_, g] : groups_) {
      std::vector<Value> values;
      values.reserve(arity);
      for (const Value& v : g.key.values()) values.push_back(v);
      for (const AggState& s : g.states) values.push_back(s.Finalize());
      rows.push_back(std::move(values));
    }
    // Empty input with no group columns: SQL scalar aggregates still
    // produce one row (e.g. SUM(..) over zero rows is NULL).
    if (rows.empty() && group_cols_.empty()) {
      std::vector<Value> values;
      for (const AggSpec& a : aggs_) {
        values.push_back(AggState(a.func).Finalize());
      }
      rows.push_back(std::move(values));
    }
  }
  // Emit outside the lock, in columnar chunks (row-at-a-time building is
  // fine here: output size is the group cardinality, not the input size).
  for (size_t start = 0; start < rows.size(); start += batch_size) {
    const size_t end = std::min(rows.size(), start + batch_size);
    Batch chunk;
    chunk.SetArity(arity);
    chunk.Reserve(end - start);
    for (size_t i = start; i < end; ++i) chunk.AppendRow(rows[i]);
    PUSHSIP_RETURN_NOT_OK(Emit(std::move(chunk)));
  }
  return EmitFinish();
}

}  // namespace pushsip
