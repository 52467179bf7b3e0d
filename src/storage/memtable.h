// In-memory buffer of recent writes for one column family, holding one
// entry per user key in a hash index: a point read is one probe and a
// write to a key already present replaces its entry in place. Keys are
// sorted only when a flush iterates them.
//
// Keeping only the newest version is safe because the store has no
// snapshots: reads are always at the newest sequence, and a flush only
// wants the newest version of each key (a deletion stays as a
// tombstone, which still shadows older tables).
#ifndef RAILGUN_STORAGE_MEMTABLE_H_
#define RAILGUN_STORAGE_MEMTABLE_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/arena.h"
#include "common/slice.h"
#include "storage/dbformat.h"

namespace railgun::storage {

class MemTable {
 public:
  MemTable() = default;
  MemTable(const MemTable&) = delete;
  MemTable& operator=(const MemTable&) = delete;

  // Replaces the key's entry (a deletion leaves a tombstone).
  void Add(SequenceNumber seq, ValueType type, const Slice& key,
           const Slice& value);

  // If the user key exists: returns true and sets *found_value /
  // *is_deleted. Returns false if the memtable has no entry for the key.
  bool Get(const Slice& user_key, std::string* found_value,
           bool* is_deleted) const;

  // Key bytes, index nodes and the value bytes held outside the strings'
  // inline buffers. It grows with distinct keys, not with overwrites, so
  // write_buffer_size bounds the key count.
  size_t ApproximateMemoryUsage() const;
  bool Empty() const { return index_.empty(); }

  class Iterator;

 private:
  // The newest version of one key: tag packs its (sequence, type).
  struct Slot {
    uint64_t tag = 0;
    std::string value;
  };
  // Keys view their bytes in arena_, so a lookup needs no copy of the
  // key.
  using Index = std::unordered_map<std::string_view, Slot>;

  Arena arena_;
  Index index_;
  // Value bytes allocated outside the strings' inline buffers.
  size_t value_heap_bytes_ = 0;
};

// Iterates entries in internal-key order, one per user key, whose tag is
// the newest (sequence, type) written to it. The key set is sorted at
// construction, so the memtable must not change while it is in use.
class MemTable::Iterator {
 public:
  explicit Iterator(const MemTable* mem);

  bool Valid() const { return pos_ < entries_.size(); }
  void SeekToFirst() { Position(0); }
  void Next() { Position(pos_ + 1); }
  Slice internal_key() const { return Slice(key_); }
  Slice value() const { return Slice(entries_[pos_]->second.value); }

 private:
  void Position(size_t pos);

  std::vector<const Index::value_type*> entries_;
  size_t pos_ = 0;
  std::string key_;  // Internal key of entries_[pos_].
};

}  // namespace railgun::storage

#endif  // RAILGUN_STORAGE_MEMTABLE_H_
