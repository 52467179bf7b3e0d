#include "storage/block.h"

#include "common/coding.h"

namespace railgun::storage {

Block::Block(std::string contents) : data_(std::move(contents)) {}

Block::Iter::Iter(const Block* block) : block_(block) {
  const std::string& data = block_->data_;
  num_restarts_ = 0;
  restarts_offset_ = current_ = next_offset_ = 0;
  if (data.size() < sizeof(uint32_t)) {
    status_ = Status::Corruption("block too small");
    return;
  }
  const uint32_t num_restarts =
      DecodeFixed32(data.data() + data.size() - sizeof(uint32_t));
  if (num_restarts > (data.size() - sizeof(uint32_t)) / sizeof(uint32_t)) {
    status_ = Status::Corruption("bad block restart count");
    return;
  }
  num_restarts_ = num_restarts;
  restarts_offset_ = static_cast<uint32_t>(
      data.size() - (1 + num_restarts_) * sizeof(uint32_t));
  current_ = restarts_offset_;  // Invalid until positioned.
  next_offset_ = restarts_offset_;
}

uint32_t Block::Iter::RestartPoint(uint32_t index) const {
  return DecodeFixed32(block_->data_.data() + restarts_offset_ +
                       index * sizeof(uint32_t));
}

void Block::Iter::SeekToRestartPoint(uint32_t index) {
  key_.clear();
  next_offset_ = RestartPoint(index);
  current_ = restarts_offset_;  // Not valid until ParseNextEntry.
}

bool Block::Iter::ParseNextEntry() {
  if (next_offset_ >= restarts_offset_) {
    current_ = restarts_offset_;
    return false;
  }
  const char* p = block_->data_.data() + next_offset_;
  const char* limit = block_->data_.data() + restarts_offset_;

  uint32_t shared, non_shared, value_len;
  p = GetVarint32Ptr(p, limit, &shared);
  if (p == nullptr) goto corrupt;
  p = GetVarint32Ptr(p, limit, &non_shared);
  if (p == nullptr) goto corrupt;
  p = GetVarint32Ptr(p, limit, &value_len);
  if (p == nullptr) goto corrupt;
  if (uint64_t{non_shared} + value_len > static_cast<uint64_t>(limit - p) ||
      shared > key_.size()) {
    goto corrupt;
  }

  current_ = next_offset_;
  key_.resize(shared);
  key_.append(p, non_shared);
  value_ = Slice(p + non_shared, value_len);
  next_offset_ =
      static_cast<uint32_t>((p + non_shared + value_len) -
                            block_->data_.data());
  return true;

corrupt:
  current_ = restarts_offset_;
  status_ = Status::Corruption("bad block entry");
  return false;
}

void Block::Iter::SeekToFirst() {
  if (num_restarts_ == 0) return;
  SeekToRestartPoint(0);
  ParseNextEntry();
}

void Block::Iter::Seek(const Slice& target) {
  if (num_restarts_ == 0) return;
  // Binary search over restart points for the last restart whose key is
  // < target.
  uint32_t left = 0;
  uint32_t right = num_restarts_ - 1;
  while (left < right) {
    const uint32_t mid = (left + right + 1) / 2;
    SeekToRestartPoint(mid);
    if (!ParseNextEntry()) return;
    if (Slice(key_).compare(target) < 0) {
      left = mid;
    } else {
      right = mid - 1;
    }
  }
  SeekToRestartPoint(left);
  while (ParseNextEntry()) {
    if (Slice(key_).compare(target) >= 0) return;
  }
}

void Block::Iter::Next() { ParseNextEntry(); }

}  // namespace railgun::storage
