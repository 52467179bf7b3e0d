// A chunk groups contiguous events (paper §4.1.1). Chunks are built
// in-memory (kOpen), optionally held in a grace window for late events
// (kTransition), then sorted, compressed and persisted (kClosed). Closed
// chunks are the unit of reservoir I/O and caching.
//
// A chunk holds its events in the form they are serialized in: one
// buffer of EventCodec-encoded events plus a start offset and a
// timestamp per event, ~0.5 KB for a 103-field event where a decoded
// Event takes ~4 KB. Readers decode one event at a time into storage
// they own. The buffer is encoded against the first event's timestamp;
// Close() re-encodes it in (timestamp, offset) order against the minimum
// only when events arrived out of that order, so the buffer of a closed
// chunk is exactly the event payload SerializeTo compresses.
#ifndef RAILGUN_RESERVOIR_CHUNK_H_
#define RAILGUN_RESERVOIR_CHUNK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/slice.h"
#include "common/status.h"
#include "reservoir/event.h"

namespace railgun::reservoir {

enum class ChunkState : uint8_t {
  kOpen = 0,        // Accepting new events.
  kTransition = 1,  // Closed for recent events, open for late arrivals.
  kClosed = 2,      // Immutable; sorted and serializable.
};

// Global, monotonically increasing chunk number within a reservoir.
using ChunkSeq = uint64_t;

class Chunk {
 public:
  // `schema` is borrowed and must outlive the chunk.
  Chunk(ChunkSeq seq, const Schema* schema) : seq_(seq), schema_(schema) {}

  Chunk(const Chunk&) = delete;
  Chunk& operator=(const Chunk&) = delete;

  ChunkSeq seq() const { return seq_; }
  uint32_t schema_id() const { return schema_->id(); }
  ChunkState state() const { return state_; }

  // Encodes and appends an event. REQUIRES: state != kClosed.
  void Add(const Event& event);

  size_t num_events() const { return starts_.size(); }
  bool empty() const { return starts_.empty(); }
  // REQUIRES: i < num_events().
  Micros timestamp(size_t i) const { return timestamps_[i]; }
  // Decodes event i into *event, overwriting its value slots in place, so
  // a warm event decodes without allocating. REQUIRES: i < num_events().
  void DecodeEvent(size_t i, Event* event) const;

  Micros min_timestamp() const { return min_ts_; }
  Micros max_timestamp() const { return max_ts_; }
  uint64_t max_offset() const { return max_offset_; }

  // Rough serialized-size estimate driving chunk closure.
  size_t EstimatedBytes() const { return estimated_bytes_; }
  // Heap bytes the events occupy: the buffer's capacity plus the side
  // arrays'.
  size_t MemoryBytes() const;

  void MarkTransition(Micros deadline) {
    state_ = ChunkState::kTransition;
    transition_deadline_ = deadline;
  }
  Micros transition_deadline() const { return transition_deadline_; }

  // Orders events by (timestamp, offset) and freezes the chunk.
  void Close();

  // Serializes a closed chunk (header + compressed payload).
  // Layout: schema_id (varint32) | count (varint32) | min_ts (varsint64)
  //         | max_ts (varsint64) | max_offset (varint64)
  //         | LzCompress(events encoded against min_ts).
  void SerializeTo(std::string* dst) const;

  // Rebuilds a closed chunk from SerializeTo output. Every field of every
  // event is checked here, so a malformed payload fails with Corruption
  // and decoding an event of the result cannot fail. `schema` is
  // borrowed as in the constructor.
  static Status Deserialize(ChunkSeq seq, const Schema* schema,
                            Slice payload, std::unique_ptr<Chunk>* chunk);

 private:
  // The encoded bytes of event i.
  Slice EventBytes(size_t i) const;
  // Re-encodes buffer_ in (timestamp, offset) order against min_ts_.
  void SortBuffer();

  ChunkSeq seq_;
  const Schema* schema_;
  ChunkState state_ = ChunkState::kOpen;
  // Events back to back; each timestamp is a delta from base_ts_.
  std::string buffer_;
  Micros base_ts_ = 0;
  std::vector<uint32_t> starts_;   // Event i begins at buffer_[starts_[i]].
  std::vector<Micros> timestamps_;
  // Every event so far came in (timestamp, offset) order.
  bool in_order_ = true;
  uint64_t last_offset_ = 0;
  Micros min_ts_ = 0;
  Micros max_ts_ = 0;
  uint64_t max_offset_ = 0;
  size_t estimated_bytes_ = 0;
  Micros transition_deadline_ = 0;
};

}  // namespace railgun::reservoir

#endif  // RAILGUN_RESERVOIR_CHUNK_H_
