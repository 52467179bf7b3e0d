// In-memory buffer of the store's recent writes, holding one entry per
// user key in a hash index: a point read is one probe and a write to a
// key already present replaces its entry in place. Keys are sorted only
// when a flush iterates them.
//
// Keeping only the newest write is safe because the store has no
// snapshots: reads always want the newest state, and a flush only wants
// the newest entry of each key (a deletion stays as a tombstone, which
// still shadows older tables).
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
  void Add(ValueType type, const Slice& key, const Slice& value);

  // kFound sets *value; kDeleted for a tombstone; kAbsent when the
  // memtable has no entry for the key.
  Lookup Get(const Slice& key, std::string* value) const;

  // Key bytes, index nodes and the value bytes held outside the strings'
  // inline buffers. It grows with distinct keys, not with overwrites, so
  // write_buffer_size bounds the key count.
  size_t ApproximateMemoryUsage() const;
  bool Empty() const { return index_.empty(); }

  class Iterator;

 private:
  // The newest write to one key.
  struct Slot {
    ValueType type = kTypeValue;
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

// Iterates entries in user-key order, one per key, holding the newest
// write to it. The key set is sorted at construction, so the memtable
// must not change while it is in use.
class MemTable::Iterator {
 public:
  explicit Iterator(const MemTable* mem);

  bool Valid() const { return pos_ < entries_.size(); }
  void SeekToFirst() { pos_ = 0; }
  void Next() { ++pos_; }
  Slice key() const { return Slice(entries_[pos_]->first); }
  ValueType type() const { return entries_[pos_]->second.type; }
  Slice value() const { return Slice(entries_[pos_]->second.value); }

 private:
  std::vector<const Index::value_type*> entries_;
  size_t pos_ = 0;
};

}  // namespace railgun::storage

#endif  // RAILGUN_STORAGE_MEMTABLE_H_
