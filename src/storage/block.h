// Read-side of an SSTable block: owns the decoded bytes and exposes a
// seekable iterator using the restart array for binary search.
#ifndef RAILGUN_STORAGE_BLOCK_H_
#define RAILGUN_STORAGE_BLOCK_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/slice.h"
#include "common/status.h"

namespace railgun::storage {

class Block {
 public:
  // Takes ownership of the contents string.
  explicit Block(std::string contents);

  Block(const Block&) = delete;
  Block& operator=(const Block&) = delete;

  size_t size() const { return data_.size(); }

  class Iter {
   public:
    explicit Iter(const Block* block);

    bool Valid() const { return current_ < restarts_offset_; }
    void SeekToFirst();
    // Positions at the first entry whose key is >= target, bytewise.
    void Seek(const Slice& target);
    void Next();
    Slice key() const { return Slice(key_); }
    Slice value() const { return value_; }
    Status status() const { return status_; }

   private:
    void SeekToRestartPoint(uint32_t index);
    bool ParseNextEntry();
    uint32_t RestartPoint(uint32_t index) const;

    const Block* block_;
    uint32_t num_restarts_;
    uint32_t restarts_offset_;  // Offset of the restart array.
    uint32_t current_;          // Offset of current entry.
    uint32_t next_offset_;      // Offset right after current entry.
    std::string key_;
    Slice value_;
    Status status_;
  };

 private:
  friend class Iter;
  std::string data_;
};

}  // namespace railgun::storage

#endif  // RAILGUN_STORAGE_BLOCK_H_
