#include "reservoir/chunk_cache.h"

namespace railgun::reservoir {

void ChunkCache::Insert(const std::shared_ptr<Chunk>& chunk) {
  MutexLock lock(&mu_);
  const ChunkSeq seq = chunk->seq();
  auto it = map_.find(seq);
  if (it != map_.end()) {
    lru_.erase(it->second.lru_pos);
    lru_.push_front(seq);
    it->second.lru_pos = lru_.begin();
    it->second.chunk = chunk;
    return;
  }
  while (map_.size() >= capacity_ && !lru_.empty()) {
    const ChunkSeq victim = lru_.back();
    lru_.pop_back();
    map_.erase(victim);
    ++stats_.evictions;
  }
  lru_.push_front(seq);
  map_[seq] = Entry{chunk, lru_.begin()};
  ++stats_.inserts;
}

std::shared_ptr<Chunk> ChunkCache::Get(ChunkSeq seq) {
  MutexLock lock(&mu_);
  auto it = map_.find(seq);
  if (it == map_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  lru_.erase(it->second.lru_pos);
  lru_.push_front(seq);
  it->second.lru_pos = lru_.begin();
  return it->second.chunk;
}

bool ChunkCache::Contains(ChunkSeq seq) const {
  MutexLock lock(&mu_);
  return map_.count(seq) > 0;
}

size_t ChunkCache::size() const {
  MutexLock lock(&mu_);
  return map_.size();
}

ChunkCache::Stats ChunkCache::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

ChunkCache::Footprint ChunkCache::footprint() const {
  MutexLock lock(&mu_);
  Footprint footprint;
  for (const auto& [seq, entry] : map_) {
    footprint.bytes += entry.chunk->MemoryBytes();
    footprint.events += entry.chunk->num_events();
  }
  return footprint;
}

void ChunkCache::ResetStats() {
  MutexLock lock(&mu_);
  stats_ = Stats();
}

}  // namespace railgun::reservoir
