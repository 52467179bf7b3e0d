// Internal key format of the LSM store. An internal key is the user key
// followed by an 8-byte tag packing (sequence << 8 | value_type). Keys
// order by user key ascending, then by sequence descending so the newest
// version of a key is seen first.
#ifndef RAILGUN_STORAGE_DBFORMAT_H_
#define RAILGUN_STORAGE_DBFORMAT_H_

#include <cstdint>
#include <string>

#include "common/coding.h"
#include "common/slice.h"

namespace railgun::storage {

using SequenceNumber = uint64_t;

enum ValueType : uint8_t {
  kTypeDeletion = 0,
  kTypeValue = 1,
};

constexpr SequenceNumber kMaxSequenceNumber = (uint64_t{1} << 56) - 1;

inline uint64_t PackSequenceAndType(SequenceNumber seq, ValueType t) {
  return (seq << 8) | t;
}

inline void AppendInternalKey(std::string* result, const Slice& user_key,
                              SequenceNumber seq, ValueType t) {
  result->append(user_key.data(), user_key.size());
  PutFixed64(result, PackSequenceAndType(seq, t));
}

// Parsed view over an internal key.
struct ParsedInternalKey {
  Slice user_key;
  SequenceNumber sequence = 0;
  ValueType type = kTypeValue;
};

inline bool ParseInternalKey(const Slice& internal_key,
                             ParsedInternalKey* result) {
  if (internal_key.size() < 8) return false;
  const uint64_t tag = DecodeFixed64(internal_key.data() +
                                     internal_key.size() - 8);
  result->user_key = Slice(internal_key.data(), internal_key.size() - 8);
  result->sequence = tag >> 8;
  result->type = static_cast<ValueType>(tag & 0xff);
  return result->type <= kTypeValue;
}

inline Slice ExtractUserKey(const Slice& internal_key) {
  return Slice(internal_key.data(), internal_key.size() - 8);
}

// Orders internal keys: user key ascending, then tag (sequence)
// descending.
struct InternalKeyComparator {
  int Compare(const Slice& a, const Slice& b) const {
    const int r = ExtractUserKey(a).compare(ExtractUserKey(b));
    if (r != 0) return r;
    const uint64_t atag = DecodeFixed64(a.data() + a.size() - 8);
    const uint64_t btag = DecodeFixed64(b.data() + b.size() - 8);
    if (atag > btag) return -1;
    if (atag < btag) return +1;
    return 0;
  }
  int operator()(const Slice& a, const Slice& b) const { return Compare(a, b); }
};

// A lookup key is the internal key that probes the tables for a user
// key at a sequence.
class LookupKey {
 public:
  LookupKey(const Slice& user_key, SequenceNumber seq) {
    AppendInternalKey(&rep_, user_key, seq, kTypeValue);
  }

  Slice internal_key() const { return Slice(rep_); }
  Slice user_key() const { return ExtractUserKey(Slice(rep_)); }

 private:
  std::string rep_;
};

}  // namespace railgun::storage

#endif  // RAILGUN_STORAGE_DBFORMAT_H_
