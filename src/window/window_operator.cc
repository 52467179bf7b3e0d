#include "window/window_operator.h"

#include "common/coding.h"

namespace railgun::window {

using reservoir::Event;
using reservoir::ReservoirIterator;

WindowOperator* WindowManager::GetOrCreate(const WindowSpec& spec) {
  const std::string key = spec.Key();
  auto it = operators_.find(key);
  if (it != operators_.end()) return it->second.get();

  auto op = std::make_unique<WindowOperator>(spec, reservoir_);

  // Wire shared edges.
  switch (spec.kind) {
    case WindowKind::kSliding:
      if (heads_.count(spec.HeadOffset()) == 0) {
        heads_[spec.HeadOffset()] = reservoir_->NewIterator();
      }
      if (tails_.count(spec.TailOffset()) == 0) {
        tails_[spec.TailOffset()] = reservoir_->NewIterator();
      }
      break;
    case WindowKind::kTumbling:
    case WindowKind::kInfinite:
      if (heads_.count(spec.HeadOffset()) == 0) {
        heads_[spec.HeadOffset()] = reservoir_->NewIterator();
      }
      break;
    case WindowKind::kCountSliding:
      if (heads_.count(0) == 0) {
        heads_[0] = reservoir_->NewIterator();
      }
      op->count_tail_ = reservoir_->NewIterator();
      break;
  }

  // State restored before this operator was re-created (recovery may
  // run RestorePositions first): apply it now, replacing the fresh
  // count tail with the checkpointed position.
  auto pending = pending_restores_.find(key);
  if (pending != pending_restores_.end()) {
    op->current_epoch_ = pending->second.epoch;
    op->in_window_ = pending->second.in_window;
    if (pending->second.has_tail) {
      op->count_tail_ = reservoir_->NewIteratorAtPosition(
          pending->second.tail_chunk_seq, pending->second.tail_index);
    }
    pending_restores_.erase(pending);
  }

  WindowOperator* raw = op.get();
  operators_[key] = std::move(op);
  return raw;
}

Status WindowManager::Advance(Micros now, EdgeDeltas* deltas) {
  Status status;
  // Heads: every event with timestamp <= now - offset enters.
  for (auto& [offset, iter] : heads_) {
    EventRun& out = deltas->entered_by_offset[offset];
    out.clear();
    const Micros threshold = now - offset;
    iter->Refresh();
    while (!iter->AtEnd() && iter->timestamp() <= threshold) {
      iter->ReadEvent(out.Add());
      iter->Advance();
      iter->Refresh();
    }
    if (status.ok()) status = iter->status();
  }

  // Tails: every event with timestamp < now - offset expires
  // (T_eval - ws <= t_i keeps the boundary event inside; see §2).
  for (auto& [offset, iter] : tails_) {
    EventRun& out = deltas->expired_by_offset[offset];
    out.clear();
    const Micros threshold = now - offset;
    iter->Refresh();
    while (!iter->AtEnd() && iter->timestamp() < threshold) {
      iter->ReadEvent(out.Add());
      iter->Advance();
      iter->Refresh();
    }
    if (status.ok()) status = iter->status();
  }
  return status;
}

void WindowManager::SavePositions(std::string* blob) const {
  // Layout: [kind byte, key, chunk_seq, index]* with kind 'h'(ead),
  // 't'(ail) keyed by offset, 'c'(ount tail) keyed by operator key, plus
  // per-operator scalar state for tumbling/count windows.
  PutVarint32(blob, static_cast<uint32_t>(heads_.size()));
  for (const auto& [offset, iter] : heads_) {
    PutVarsint64(blob, offset);
    PutVarint64(blob, iter->chunk_seq());
    PutVarint64(blob, iter->index());
  }
  PutVarint32(blob, static_cast<uint32_t>(tails_.size()));
  for (const auto& [offset, iter] : tails_) {
    PutVarsint64(blob, offset);
    PutVarint64(blob, iter->chunk_seq());
    PutVarint64(blob, iter->index());
  }
  uint32_t num_ops_with_state = 0;
  for (const auto& [key, op] : operators_) {
    if (op->count_tail_ != nullptr ||
        op->spec_.kind == WindowKind::kTumbling) {
      ++num_ops_with_state;
    }
  }
  PutVarint32(blob, num_ops_with_state);
  for (const auto& [key, op] : operators_) {
    if (op->count_tail_ == nullptr &&
        op->spec_.kind != WindowKind::kTumbling) {
      continue;
    }
    PutLengthPrefixedSlice(blob, key);
    PutVarsint64(blob, op->current_epoch_);
    PutVarint64(blob, op->in_window_);
    const bool has_tail = op->count_tail_ != nullptr;
    blob->push_back(has_tail ? 1 : 0);
    if (has_tail) {
      PutVarint64(blob, op->count_tail_->chunk_seq());
      PutVarint64(blob, op->count_tail_->index());
    }
  }
}

Status WindowManager::RestorePositions(const std::string& blob) {
  Slice in(blob);
  uint32_t n;
  if (!GetVarint32(&in, &n)) return Status::Corruption("window positions");
  for (uint32_t i = 0; i < n; ++i) {
    int64_t offset;
    uint64_t seq, index;
    if (!GetVarsint64(&in, &offset) || !GetVarint64(&in, &seq) ||
        !GetVarint64(&in, &index)) {
      return Status::Corruption("window head position");
    }
    heads_[offset] = reservoir_->NewIteratorAtPosition(seq, index);
  }
  if (!GetVarint32(&in, &n)) return Status::Corruption("window positions");
  for (uint32_t i = 0; i < n; ++i) {
    int64_t offset;
    uint64_t seq, index;
    if (!GetVarsint64(&in, &offset) || !GetVarint64(&in, &seq) ||
        !GetVarint64(&in, &index)) {
      return Status::Corruption("window tail position");
    }
    tails_[offset] = reservoir_->NewIteratorAtPosition(seq, index);
  }
  if (!GetVarint32(&in, &n)) return Status::Corruption("window positions");
  for (uint32_t i = 0; i < n; ++i) {
    Slice key;
    int64_t epoch;
    uint64_t in_window;
    if (!GetLengthPrefixedSlice(&in, &key) || !GetVarsint64(&in, &epoch) ||
        !GetVarint64(&in, &in_window) || in.empty()) {
      return Status::Corruption("window operator state");
    }
    const bool has_tail = in[0] != 0;
    in.remove_prefix(1);
    uint64_t seq = 0, index = 0;
    if (has_tail &&
        (!GetVarint64(&in, &seq) || !GetVarint64(&in, &index))) {
      return Status::Corruption("count tail position");
    }
    auto it = operators_.find(key.ToString());
    if (it != operators_.end()) {
      it->second->current_epoch_ = epoch;
      it->second->in_window_ = in_window;
      if (has_tail) {
        it->second->count_tail_ =
            reservoir_->NewIteratorAtPosition(seq, index);
      }
    } else {
      // The operator has not been re-created yet (restore ran before the
      // plan registered its windows): stash for GetOrCreate instead of
      // silently dropping recovery state.
      PendingOperatorState& pending = pending_restores_[key.ToString()];
      pending.epoch = epoch;
      pending.in_window = in_window;
      pending.has_tail = has_tail;
      pending.tail_chunk_seq = seq;
      pending.tail_index = index;
    }
  }
  return Status::OK();
}

WindowOperator::WindowOperator(WindowSpec spec,
                               reservoir::Reservoir* reservoir)
    : spec_(spec), reservoir_(reservoir) {}

namespace {
void AppendPointers(const EventRun& events, std::vector<const Event*>* out) {
  for (size_t i = 0; i < events.size(); ++i) out->push_back(&events[i]);
}
}  // namespace

Status WindowOperator::Collect(Micros now, const EdgeDeltas& deltas,
                               WindowDelta* out) {
  out->entered.clear();
  out->expired.clear();
  out->owned.clear();
  out->reset = false;
  out->epoch = 0;

  auto entered_it = deltas.entered_by_offset.find(spec_.HeadOffset());
  const EventRun* entered =
      entered_it == deltas.entered_by_offset.end() ? nullptr
                                                   : &entered_it->second;

  switch (spec_.kind) {
    case WindowKind::kSliding: {
      if (entered != nullptr) AppendPointers(*entered, &out->entered);
      auto expired_it = deltas.expired_by_offset.find(spec_.TailOffset());
      if (expired_it != deltas.expired_by_offset.end()) {
        AppendPointers(expired_it->second, &out->expired);
      }
      break;
    }
    case WindowKind::kTumbling: {
      const Micros epoch = (now / spec_.size) * spec_.size;
      out->epoch = epoch;
      if (epoch != current_epoch_) {
        out->reset = true;
        current_epoch_ = epoch;
      }
      if (entered != nullptr) AppendPointers(*entered, &out->entered);
      break;
    }
    case WindowKind::kInfinite: {
      if (entered != nullptr) AppendPointers(*entered, &out->entered);
      break;
    }
    case WindowKind::kCountSliding: {
      auto head_it = deltas.entered_by_offset.find(0);
      if (head_it != deltas.entered_by_offset.end()) {
        AppendPointers(head_it->second, &out->entered);
        in_window_ += head_it->second.size();
      }
      // The count tail drains a private iterator: decode into owned
      // slots, then point at them once the run stops growing.
      count_tail_->Refresh();
      while (in_window_ > spec_.count && !count_tail_->AtEnd()) {
        count_tail_->ReadEvent(out->owned.Add());
        count_tail_->Advance();
        count_tail_->Refresh();
        --in_window_;
      }
      AppendPointers(out->owned, &out->expired);
      return count_tail_->status();
    }
  }
  return Status::OK();
}

}  // namespace railgun::window
