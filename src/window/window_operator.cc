#include "window/window_operator.h"

#include "common/coding.h"

namespace railgun::window {

using reservoir::Event;
using reservoir::ReservoirIterator;

WindowOperator* WindowManager::GetOrCreate(const WindowSpec& spec) {
  const std::string key = spec.Key();
  auto it = operators_.find(key);
  if (it != operators_.end()) return it->second.get();

  auto op = std::make_unique<WindowOperator>(spec);

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

namespace {

using EdgeIterators = std::map<Micros, std::unique_ptr<ReservoirIterator>>;

void PutPosition(const ReservoirIterator& iter, std::string* blob) {
  PutVarint64(blob, iter.chunk_seq());
  PutVarint64(blob, iter.index());
}

std::unique_ptr<ReservoirIterator> GetPosition(
    Slice* in, reservoir::Reservoir* reservoir) {
  uint64_t seq, index;
  if (!GetVarint64(in, &seq) || !GetVarint64(in, &index)) return nullptr;
  return reservoir->NewIteratorAtPosition(seq, index);
}

void SaveEdges(const EdgeIterators& edges, std::string* blob) {
  PutVarint32(blob, static_cast<uint32_t>(edges.size()));
  for (const auto& [offset, iter] : edges) {
    PutVarsint64(blob, offset);
    PutPosition(*iter, blob);
  }
}

// The blob lists the same offsets as `edges`, in the same (map) order.
Status RestoreEdges(Slice* in, reservoir::Reservoir* reservoir,
                    EdgeIterators* edges) {
  uint32_t n;
  if (!GetVarint32(in, &n) || n != edges->size()) {
    return Status::Corruption("window edge count");
  }
  for (auto& [offset, iter] : *edges) {
    int64_t saved_offset;
    if (!GetVarsint64(in, &saved_offset) || saved_offset != offset) {
      return Status::Corruption("window edge offset");
    }
    iter = GetPosition(in, reservoir);
    if (iter == nullptr) return Status::Corruption("window edge position");
  }
  return Status::OK();
}

}  // namespace

void WindowManager::SavePositions(std::string* blob) const {
  // Layout: heads and tails as [count, (offset, chunk_seq, index)*], then
  // count windows as [count, (operator key, in_window, chunk_seq, index)*].
  SaveEdges(heads_, blob);
  SaveEdges(tails_, blob);
  uint32_t num_count_windows = 0;
  for (const auto& [key, op] : operators_) {
    if (op->count_tail_ != nullptr) ++num_count_windows;
  }
  PutVarint32(blob, num_count_windows);
  for (const auto& [key, op] : operators_) {
    if (op->count_tail_ == nullptr) continue;
    PutLengthPrefixedSlice(blob, key);
    PutVarint64(blob, op->in_window_);
    PutPosition(*op->count_tail_, blob);
  }
}

Status WindowManager::RestorePositions(const Slice& blob) {
  Slice in(blob);
  RAILGUN_RETURN_IF_ERROR(RestoreEdges(&in, reservoir_, &heads_));
  RAILGUN_RETURN_IF_ERROR(RestoreEdges(&in, reservoir_, &tails_));
  uint32_t n;
  if (!GetVarint32(&in, &n)) return Status::Corruption("count window count");
  for (auto& [key, op] : operators_) {
    if (op->count_tail_ == nullptr) continue;
    Slice saved_key;
    if (n-- == 0 || !GetLengthPrefixedSlice(&in, &saved_key) ||
        saved_key != Slice(key) || !GetVarint64(&in, &op->in_window_)) {
      return Status::Corruption("count window names no operator");
    }
    op->count_tail_ = GetPosition(&in, reservoir_);
    if (op->count_tail_ == nullptr) {
      return Status::Corruption("count window position");
    }
  }
  if (n != 0 || !in.empty()) {
    return Status::Corruption("window positions: trailing entries");
  }
  return Status::OK();
}

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
      out->epoch = (now / spec_.size) * spec_.size;
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
