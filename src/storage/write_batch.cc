#include "storage/write_batch.h"

#include "common/coding.h"
#include "storage/dbformat.h"

namespace railgun::storage {

namespace {
constexpr size_t kHeader = 4;  // count (fixed32).
}  // namespace

WriteBatch::WriteBatch() { Clear(); }

void WriteBatch::Clear() {
  rep_.clear();
  rep_.resize(kHeader, '\0');
}

int WriteBatch::Count() const {
  return static_cast<int>(DecodeFixed32(rep_.data()));
}

void WriteBatch::SetCount(int n) {
  EncodeFixed32(rep_.data(), static_cast<uint32_t>(n));
}

void WriteBatch::Put(uint32_t cf_id, const Slice& key, const Slice& value) {
  SetCount(Count() + 1);
  rep_.push_back(static_cast<char>(kTypeValue));
  PutVarint32(&rep_, cf_id);
  PutLengthPrefixedSlice(&rep_, key);
  PutLengthPrefixedSlice(&rep_, value);
}

void WriteBatch::Delete(uint32_t cf_id, const Slice& key) {
  SetCount(Count() + 1);
  rep_.push_back(static_cast<char>(kTypeDeletion));
  PutVarint32(&rep_, cf_id);
  PutLengthPrefixedSlice(&rep_, key);
}

Status WriteBatch::Iterate(Handler* handler) const {
  Slice input(rep_);
  if (input.size() < kHeader) {
    return Status::Corruption("write batch too small");
  }
  input.remove_prefix(kHeader);
  int found = 0;
  while (!input.empty()) {
    const char tag = input[0];
    input.remove_prefix(1);
    uint32_t cf_id;
    Slice key, value;
    if (!GetVarint32(&input, &cf_id)) {
      return Status::Corruption("bad write batch cf id");
    }
    switch (tag) {
      case kTypeValue:
        if (!GetLengthPrefixedSlice(&input, &key) ||
            !GetLengthPrefixedSlice(&input, &value)) {
          return Status::Corruption("bad write batch Put");
        }
        handler->Put(cf_id, key, value);
        break;
      case kTypeDeletion:
        if (!GetLengthPrefixedSlice(&input, &key)) {
          return Status::Corruption("bad write batch Delete");
        }
        handler->Delete(cf_id, key);
        break;
      default:
        return Status::Corruption("unknown write batch tag");
    }
    ++found;
  }
  if (found != Count()) {
    return Status::Corruption("write batch count mismatch");
  }
  return Status::OK();
}

}  // namespace railgun::storage
