// LRU cache of decoded chunks, sized in chunk elements (paper §5.2 used
// 220). Iterators hold shared_ptr pins, so an evicted-but-iterated chunk
// stays alive; eviction only drops the cache's reference. Tracks the hit
// and miss statistics that drive the Figure 9(b) analysis.
#ifndef RAILGUN_RESERVOIR_CHUNK_CACHE_H_
#define RAILGUN_RESERVOIR_CHUNK_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>

#include "common/mutex.h"
#include "reservoir/chunk.h"

namespace railgun::reservoir {

class ChunkCache {
 public:
  explicit ChunkCache(size_t capacity) : capacity_(capacity) {}

  // Inserts (or refreshes) a chunk, evicting the LRU entry if needed.
  void Insert(const std::shared_ptr<Chunk>& chunk);

  // Returns the chunk or nullptr; a hit refreshes recency.
  std::shared_ptr<Chunk> Get(ChunkSeq seq);

  bool Contains(ChunkSeq seq) const;

  size_t size() const;
  size_t capacity() const { return capacity_; }

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t inserts = 0;
  };
  Stats stats() const;
  void ResetStats();

  // Heap bytes (Chunk::MemoryBytes) and events of the cached chunks.
  struct Footprint {
    size_t bytes = 0;
    size_t events = 0;
  };
  Footprint footprint() const;

 private:
  mutable Mutex mu_{kRankStorageChunkCache};
  size_t capacity_;
  // MRU at front.
  std::list<ChunkSeq> lru_ GUARDED_BY(mu_);
  struct Entry {
    std::shared_ptr<Chunk> chunk;
    std::list<ChunkSeq>::iterator lru_pos;
  };
  std::unordered_map<ChunkSeq, Entry> map_ GUARDED_BY(mu_);
  Stats stats_ GUARDED_BY(mu_);
};

}  // namespace railgun::reservoir

#endif  // RAILGUN_RESERVOIR_CHUNK_CACHE_H_
