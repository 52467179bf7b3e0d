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

void MemTable::Add(ValueType type, const Slice& key, const Slice& value) {
  auto it = index_.find(key.ToView());
  if (it == index_.end()) {
    char* bytes = arena_.Allocate(key.size() + 1);  // Never 0 bytes.
    memcpy(bytes, key.data(), key.size());
    it = index_.emplace(std::string_view(bytes, key.size()), Slot()).first;
  }
  Slot& slot = it->second;
  slot.type = type;
  value_heap_bytes_ -= HeapBytes(slot.value);
  slot.value.assign(value.data(), value.size());
  value_heap_bytes_ += HeapBytes(slot.value);
}

Lookup MemTable::Get(const Slice& key, std::string* value) const {
  auto it = index_.find(key.ToView());
  if (it == index_.end()) return Lookup::kAbsent;
  const Slot& slot = it->second;
  if (slot.type == kTypeDeletion) return Lookup::kDeleted;
  *value = slot.value;
  return Lookup::kFound;
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

}  // namespace railgun::storage
