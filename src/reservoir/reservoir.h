// The event reservoir (paper §4.1.1): stores all events of one task
// processor with a tiny in-memory footprint. Events accumulate in an
// open chunk; closed chunks are sorted, compressed and appended to
// immutable segment files by an asynchronous writer so that persistence
// never blocks event processing. Chunks in memory (open, in flight or
// cached) hold their events encoded, as on disk, so the cache's capacity
// in chunks bounds memory at ~0.5 KB per 103-field event. Windows read
// events through iterators that pin at most one chunk each, decode one
// event at a time, and eagerly prefetch the next chunk, keeping disk I/O
// off the critical path.
#ifndef RAILGUN_RESERVOIR_RESERVOIR_H_
#define RAILGUN_RESERVOIR_RESERVOIR_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/clock.h"
#include "common/env.h"
#include "common/mutex.h"
#include "common/status.h"
#include "reservoir/chunk.h"
#include "reservoir/chunk_cache.h"
#include "reservoir/event.h"
#include "reservoir/schema_registry.h"
#include "reservoir/segment.h"

namespace railgun::reservoir {

// Policy for events older than the last closed chunk (and outside any
// transition chunk's grace window).
enum class LateEventPolicy {
  kDiscard,
  kRewriteTimestamp,  // Rewritten to the open chunk's first timestamp.
};

struct ReservoirOptions {
  // Serialized-size threshold that closes the open chunk.
  size_t chunk_target_bytes = 64 * 1024;
  // Segment files become immutable at this size.
  uint64_t segment_max_bytes = 8 * 1024 * 1024;
  // Chunk cache capacity, in chunks (the paper's experiments use 220).
  size_t cache_capacity = 220;
  // Grace period during which a closed chunk stays in the transition
  // state and still accepts late events (paper's watermark-like knob).
  Micros ooo_grace = 0;
  LateEventPolicy late_policy = LateEventPolicy::kRewriteTimestamp;
  // Run chunk persistence and prefetching on background threads. Tests
  // may disable for determinism.
  bool async_io = true;
  // Eagerly prefetch the successor chunk when an iterator crosses a
  // chunk boundary (paper §4.1.1). Disable only for the ablation bench.
  bool enable_prefetch = true;
  // File system for the segment files; null means Env::Default().
  Env* env = nullptr;
  std::vector<SchemaField> schema_fields;
};

struct ReservoirStats {
  uint64_t appends = 0;
  uint64_t dedup_drops = 0;
  uint64_t late_drops = 0;
  uint64_t late_rewrites = 0;
  uint64_t late_transition_adds = 0;
  uint64_t chunks_closed = 0;
  uint64_t chunks_written = 0;
  uint64_t sync_chunk_loads = 0;   // Cache misses on the read path.
  uint64_t prefetches_issued = 0;
};

class Reservoir;

// Forward iterator over the reservoir's events in time order. Pins the
// chunk it is positioned in; crossing a chunk boundary triggers an eager
// prefetch of the following chunk (paper §4.1.1).
class ReservoirIterator {
 public:
  ~ReservoirIterator();
  ReservoirIterator(const ReservoirIterator&) = delete;
  ReservoirIterator& operator=(const ReservoirIterator&) = delete;

  // False when positioned past the newest available event, or when a
  // chunk failed to load (status() says which).
  bool AtEnd() const { return !valid_; }
  // The error that stopped the iterator at a chunk it could not read
  // (Corruption, IOError); OK at the real end. Refresh retries the read.
  const Status& status() const { return status_; }
  // REQUIRES: !AtEnd() for the three readers below.
  // The current event's timestamp, read without decoding the event.
  Micros timestamp() const { return chunk_->timestamp(index_); }
  // Decodes the current event into *event, overwriting its value slots.
  void ReadEvent(Event* event) const { chunk_->DecodeEvent(index_, event); }
  // Decodes the current event into scratch the iterator owns. The
  // reference is valid until the iterator moves (Advance, Refresh) or is
  // destroyed.
  const Event& event() {
    ReadEvent(&scratch_);
    return scratch_;
  }

  // Moves forward one event. After AtEnd(), call Refresh() (cheap) to
  // pick up newly appended events.
  void Advance();
  void Refresh();

  // Position snapshot (persisted in checkpoints so window edges can be
  // restored exactly after recovery).
  ChunkSeq chunk_seq() const { return chunk_seq_; }
  size_t index() const { return index_; }

 private:
  friend class Reservoir;
  explicit ReservoirIterator(Reservoir* reservoir);

  void PositionAt(ChunkSeq seq, size_t index);
  void LoadCurrent();

  Reservoir* reservoir_;
  std::shared_ptr<Chunk> chunk_;  // Pin.
  ChunkSeq chunk_seq_ = 0;
  size_t index_ = 0;
  bool valid_ = false;
  Status status_;
  Event scratch_;  // Backs event().
};

class Reservoir {
 public:
  Reservoir(const ReservoirOptions& options, std::string dir);
  ~Reservoir();
  Reservoir(const Reservoir&) = delete;
  Reservoir& operator=(const Reservoir&) = delete;

  // Loads or initializes the on-disk state and starts I/O threads.
  Status Open();

  // Appends one event (dedup, late handling, chunk rollover). Returns OK
  // even when the event is dropped by policy; *accepted reports whether
  // the event entered the reservoir.
  Status Append(const Event& event, bool* accepted = nullptr);

  // Creates an iterator positioned at the oldest event.
  std::unique_ptr<ReservoirIterator> NewIterator();
  // Creates an iterator positioned at the first event with
  // timestamp >= ts (random read path used by backfill).
  std::unique_ptr<ReservoirIterator> NewIteratorAt(Micros ts);
  // Restores an iterator to a checkpointed (chunk_seq, index) position.
  std::unique_ptr<ReservoirIterator> NewIteratorAtPosition(ChunkSeq seq,
                                                           size_t index);

  const Schema* schema() const { return registry_->Current(); }

  // Largest message-log offset among *persisted* chunks: the replay
  // point after a crash.
  uint64_t LastPersistedOffset() const;
  // Number of chunks durable on disk (0 = nothing persisted yet).
  size_t NumPersistedChunks() const;
  // Blocks until the write queue drains and segments are synced.
  Status Sync();

  // Copies segment files absent from `target_dir` (plus the schema
  // registry). Because segments are immutable once sealed, this acts as
  // a natural delta copy for replica recovery (paper §4.2).
  Status CopyMissingTo(const std::string& target_dir);

  // Drops whole segment files whose every chunk is older than ts.
  Status TruncateBefore(Micros ts);

  ReservoirStats stats() const;
  ChunkCache::Stats cache_stats() const { return cache_.stats(); }
  ChunkCache::Footprint cache_footprint() const { return cache_.footprint(); }
  size_t num_live_iterators() const;
  Micros MaxTimestamp() const;
  uint64_t NumBufferedEvents() const;  // Events not yet persisted.

 private:
  friend class ReservoirIterator;

  struct InMemoryChunk {
    std::shared_ptr<Chunk> chunk;
    std::unordered_set<uint64_t> ids;  // Dedup probe set.
  };

  Status AppendLocked(const Event& event, bool* accepted) REQUIRES(mu_);
  void CloseOpenChunkLocked() REQUIRES(mu_);
  void MaybeCloseTransitionsLocked(Micros newest_ts) REQUIRES(mu_);
  void FinalizeChunkLocked(InMemoryChunk in_mem) REQUIRES(mu_);
  Status WriteChunk(const std::shared_ptr<Chunk>& chunk);
  void WriterLoop();
  void PrefetchLoop();
  void SchedulePrefetch(ChunkSeq seq);

  // Fetches a chunk by sequence from memory, cache or disk.
  StatusOr<std::shared_ptr<Chunk>> GetChunk(ChunkSeq seq,
                                            bool prefetch_next);
  StatusOr<std::shared_ptr<Chunk>> LoadChunkFromDisk(ChunkSeq seq);
  // Oldest chunk seq that still exists (after truncation).
  ChunkSeq OldestSeqLocked() const REQUIRES(mu_);

  ReservoirOptions options_;
  std::string dir_;
  Env* env_;

  std::unique_ptr<SchemaRegistry> registry_;
  std::unique_ptr<SegmentWriter> writer_;
  std::unique_ptr<SegmentReader> reader_;
  ChunkCache cache_;

  mutable Mutex mu_{kRankStorageReservoir};
  InMemoryChunk open_ GUARDED_BY(mu_);
  std::deque<InMemoryChunk> transition_ GUARDED_BY(mu_);
  // Closed but not yet persisted, by seq.
  std::deque<std::shared_ptr<Chunk>> write_queue_ GUARDED_BY(mu_);
  std::unordered_map<ChunkSeq, std::shared_ptr<Chunk>> in_flight_
      GUARDED_BY(mu_);
  // Persisted chunks, seq-ascending.
  std::vector<ChunkLocation> index_ GUARDED_BY(mu_);
  ChunkSeq next_chunk_seq_ GUARDED_BY(mu_) = 1;
  Micros last_closed_max_ts_ GUARDED_BY(mu_) = -1;
  uint64_t last_persisted_offset_ GUARDED_BY(mu_) = 0;
  ReservoirStats stats_ GUARDED_BY(mu_);
  size_t live_iterators_ GUARDED_BY(mu_) = 0;

  CondVar writer_cv_;
  CondVar writer_done_cv_;
  std::thread writer_thread_;
  std::deque<ChunkSeq> prefetch_queue_ GUARDED_BY(mu_);
  CondVar prefetch_cv_;
  std::thread prefetch_thread_;
  bool shutdown_ GUARDED_BY(mu_) = false;
};

}  // namespace railgun::reservoir

#endif  // RAILGUN_RESERVOIR_RESERVOIR_H_
