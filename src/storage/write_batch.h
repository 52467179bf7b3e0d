// A WriteBatch groups updates (possibly across column families) that are
// applied to the memtables under one lock, so readers see all or none.
//
// Serialized layout:
//   count (fixed32) | record*
//   record := kTypeValue    cf (varint32) key (lp) value (lp)
//           | kTypeDeletion cf (varint32) key (lp)
#ifndef RAILGUN_STORAGE_WRITE_BATCH_H_
#define RAILGUN_STORAGE_WRITE_BATCH_H_

#include <cstdint>
#include <string>

#include "common/slice.h"
#include "common/status.h"

namespace railgun::storage {

class WriteBatch {
 public:
  WriteBatch();

  void Put(uint32_t cf_id, const Slice& key, const Slice& value);
  void Delete(uint32_t cf_id, const Slice& key);
  void Clear();

  int Count() const;
  size_t ByteSize() const { return rep_.size(); }

  // Applies every record in order through the handler.
  class Handler {
   public:
    virtual ~Handler() = default;
    virtual void Put(uint32_t cf_id, const Slice& key, const Slice& value) = 0;
    virtual void Delete(uint32_t cf_id, const Slice& key) = 0;
  };
  Status Iterate(Handler* handler) const;

 private:
  void SetCount(int n);

  std::string rep_;
};

}  // namespace railgun::storage

#endif  // RAILGUN_STORAGE_WRITE_BATCH_H_
