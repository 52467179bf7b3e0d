#include "reservoir/chunk.h"

#include <algorithm>
#include <numeric>

#include "common/coding.h"
#include "common/compression.h"
#include "common/logging.h"

namespace railgun::reservoir {

void Chunk::Add(const Event& event) {
  RAILGUN_CHECK(state_ != ChunkState::kClosed);
  if (empty()) {
    min_ts_ = max_ts_ = base_ts_ = event.timestamp;
  } else {
    const Micros last_ts = timestamps_.back();
    if (event.timestamp < last_ts ||
        (event.timestamp == last_ts && event.offset < last_offset_)) {
      in_order_ = false;
    }
    min_ts_ = std::min(min_ts_, event.timestamp);
    max_ts_ = std::max(max_ts_, event.timestamp);
  }
  last_offset_ = event.offset;
  max_offset_ = std::max(max_offset_, event.offset);
  // 16 header bytes + ~12 bytes per numeric field + string sizes.
  estimated_bytes_ += 16 + event.values.size() * 12;
  for (const auto& v : event.values) {
    if (v.is_string()) estimated_bytes_ += v.as_string().size();
  }
  RAILGUN_CHECK(buffer_.size() <= UINT32_MAX);
  starts_.push_back(static_cast<uint32_t>(buffer_.size()));
  timestamps_.push_back(event.timestamp);
  EventCodec(schema_).Encode(event, base_ts_, &buffer_);
}

Slice Chunk::EventBytes(size_t i) const {
  const size_t end = i + 1 < starts_.size() ? starts_[i + 1] : buffer_.size();
  return Slice(buffer_.data() + starts_[i], end - starts_[i]);
}

void Chunk::DecodeEvent(size_t i, Event* event) const {
  Slice input = EventBytes(i);
  RAILGUN_CHECK_OK(EventCodec(schema_).Decode(&input, base_ts_, event));
}

size_t Chunk::MemoryBytes() const {
  return buffer_.capacity() + starts_.capacity() * sizeof(uint32_t) +
         timestamps_.capacity() * sizeof(Micros);
}

void Chunk::Close() {
  if (!in_order_) SortBuffer();
  buffer_.shrink_to_fit();
  starts_.shrink_to_fit();
  timestamps_.shrink_to_fit();
  state_ = ChunkState::kClosed;
}

void Chunk::SortBuffer() {
  // Each event is ts delta | id | offset | fields: the sort key needs the
  // offset, and re-encoding needs only a new ts delta before the rest.
  const size_t n = starts_.size();
  std::vector<uint64_t> offsets(n);
  std::vector<Slice> rests(n);
  for (size_t i = 0; i < n; ++i) {
    Slice input = EventBytes(i);
    int64_t ts_delta = 0;
    uint64_t id = 0;
    GetVarsint64(&input, &ts_delta);
    rests[i] = input;
    GetVarint64(&input, &id);
    GetVarint64(&input, &offsets[i]);
  }
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (timestamps_[a] != timestamps_[b]) {
      return timestamps_[a] < timestamps_[b];
    }
    return offsets[a] < offsets[b];
  });

  std::string sorted;
  sorted.reserve(buffer_.size() + n);
  std::vector<uint32_t> starts;
  std::vector<Micros> timestamps;
  starts.reserve(n);
  timestamps.reserve(n);
  for (uint32_t i : order) {
    starts.push_back(static_cast<uint32_t>(sorted.size()));
    timestamps.push_back(timestamps_[i]);
    PutVarsint64(&sorted, timestamps_[i] - min_ts_);
    sorted.append(rests[i].data(), rests[i].size());
  }
  buffer_.swap(sorted);
  starts_.swap(starts);
  timestamps_.swap(timestamps);
  base_ts_ = min_ts_;
  in_order_ = true;
}

void Chunk::SerializeTo(std::string* dst) const {
  RAILGUN_CHECK(state_ == ChunkState::kClosed);
  PutVarint32(dst, schema_id());
  PutVarint32(dst, static_cast<uint32_t>(num_events()));
  PutVarsint64(dst, min_ts_);
  PutVarsint64(dst, max_ts_);
  PutVarint64(dst, max_offset_);
  LzCompress(Slice(buffer_), dst);
}

Status Chunk::Deserialize(ChunkSeq seq, const Schema* schema, Slice payload,
                          std::unique_ptr<Chunk>* chunk) {
  uint32_t schema_id, count;
  int64_t min_ts, max_ts;
  uint64_t max_offset;
  if (!GetVarint32(&payload, &schema_id) || !GetVarint32(&payload, &count) ||
      !GetVarsint64(&payload, &min_ts) || !GetVarsint64(&payload, &max_ts) ||
      !GetVarint64(&payload, &max_offset)) {
    return Status::Corruption("bad chunk header");
  }
  if (schema_id != schema->id()) {
    return Status::InvalidArgument("schema mismatch during chunk decode");
  }

  auto c = std::make_unique<Chunk>(seq, schema);
  RAILGUN_RETURN_IF_ERROR(LzUncompress(payload, &c->buffer_));
  // An encoded event takes at least three bytes: a count beyond the
  // buffer is corrupt, and bounding it bounds the side arrays.
  if (count > c->buffer_.size()) {
    return Status::Corruption("chunk event count exceeds its payload");
  }
  c->starts_.reserve(count);
  c->timestamps_.reserve(count);
  const EventCodec codec(schema);
  Slice input(c->buffer_);
  for (uint32_t i = 0; i < count; ++i) {
    c->starts_.push_back(
        static_cast<uint32_t>(input.data() - c->buffer_.data()));
    Micros ts = 0;
    RAILGUN_RETURN_IF_ERROR(codec.Skip(&input, min_ts, &ts));
    c->timestamps_.push_back(ts);
  }
  if (!input.empty()) return Status::Corruption("trailing chunk bytes");
  c->base_ts_ = c->min_ts_ = min_ts;
  c->max_ts_ = max_ts;
  c->max_offset_ = max_offset;
  c->state_ = ChunkState::kClosed;  // Already sorted when serialized.
  *chunk = std::move(c);
  return Status::OK();
}

}  // namespace railgun::reservoir
