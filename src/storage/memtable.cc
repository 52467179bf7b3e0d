#include "storage/memtable.h"

#include <algorithm>
#include <cstring>

namespace railgun::storage {

namespace {

// Bytes a string holds outside its inline (short-string) buffer.
size_t HeapBytes(const std::string& s) {
  static const size_t kInlineCapacity = std::string().capacity();
  return s.capacity() > kInlineCapacity ? s.capacity() + 1 : 0;
}

}  // namespace

size_t MemTable::ApproximateMemoryUsage() const {
  // A node holds the (key, slot) pair, the chain's next pointer and the
  // cached hash.
  constexpr size_t kNodeBytes =
      sizeof(Index::value_type) + 2 * sizeof(void*);
  return arena_.MemoryUsage() + index_.size() * kNodeBytes +
         index_.bucket_count() * sizeof(void*) + value_heap_bytes_;
}

void MemTable::Add(SequenceNumber seq, ValueType type, const Slice& key,
                   const Slice& value) {
  auto it = index_.find(key.ToView());
  if (it == index_.end()) {
    char* bytes = arena_.Allocate(key.size() + 1);  // Never 0 bytes.
    memcpy(bytes, key.data(), key.size());
    it = index_.emplace(std::string_view(bytes, key.size()), Slot()).first;
  }
  Slot& slot = it->second;
  slot.tag = PackSequenceAndType(seq, type);
  value_heap_bytes_ -= HeapBytes(slot.value);
  slot.value.assign(value.data(), value.size());
  value_heap_bytes_ += HeapBytes(slot.value);
}

bool MemTable::Get(const Slice& user_key, std::string* found_value,
                   bool* is_deleted) const {
  auto it = index_.find(user_key.ToView());
  if (it == index_.end()) return false;
  const Slot& slot = it->second;
  *is_deleted = (slot.tag & 0xff) == kTypeDeletion;
  if (!*is_deleted) *found_value = slot.value;
  return true;
}

MemTable::Iterator::Iterator(const MemTable* mem) {
  entries_.reserve(mem->index_.size());
  for (const auto& entry : mem->index_) entries_.push_back(&entry);
  std::sort(entries_.begin(), entries_.end(),
            [](const Index::value_type* a, const Index::value_type* b) {
              return a->first < b->first;
            });
  pos_ = entries_.size();
}

void MemTable::Iterator::Position(size_t pos) {
  pos_ = pos;
  if (!Valid()) return;
  key_.assign(entries_[pos_]->first);
  PutFixed64(&key_, entries_[pos_]->second.tag);
}

}  // namespace railgun::storage
