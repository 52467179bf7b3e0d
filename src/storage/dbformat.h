// Entry format of the LSM store. Memtables and tables hold one entry per
// user key: the key itself, and a value whose first byte is the entry's
// type (a value or a tombstone). Entries carry no sequence number: which
// copy of a key is newest follows from where it lives — the memtable,
// then L0 tables newest first, then each deeper level in turn.
#ifndef RAILGUN_STORAGE_DBFORMAT_H_
#define RAILGUN_STORAGE_DBFORMAT_H_

#include <cstdint>

#include "common/slice.h"
#include "common/status.h"

namespace railgun::storage {

enum ValueType : uint8_t {
  kTypeDeletion = 0,
  kTypeValue = 1,
};

// Splits a stored entry value into its type and the user value.
// Corruption for an empty slot or a type byte that is neither a value nor
// a tombstone.
inline Status DecodeEntryValue(const Slice& stored, ValueType* type,
                               Slice* value) {
  if (stored.empty()) return Status::Corruption("empty entry value");
  const uint8_t t = static_cast<uint8_t>(stored[0]);
  if (t != kTypeDeletion && t != kTypeValue) {
    return Status::Corruption("bad entry type");
  }
  *type = static_cast<ValueType>(t);
  *value = Slice(stored.data() + 1, stored.size() - 1);
  return Status::OK();
}

// Outcome of a point lookup in one memtable or table, or below the
// memtable.
enum class Lookup { kFound, kDeleted, kAbsent };

}  // namespace railgun::storage

#endif  // RAILGUN_STORAGE_DBFORMAT_H_
