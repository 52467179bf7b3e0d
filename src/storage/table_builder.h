// Writes an SSTable file from user keys added in bytewise order, one
// entry per key. An entry's stored value is its type byte followed by
// the value.
#ifndef RAILGUN_STORAGE_TABLE_BUILDER_H_
#define RAILGUN_STORAGE_TABLE_BUILDER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/env.h"
#include "common/slice.h"
#include "common/status.h"
#include "storage/block_builder.h"
#include "storage/dbformat.h"
#include "storage/table_format.h"

namespace railgun::storage {

struct TableBuilderOptions {
  size_t block_size = 4096;
  CompressionType compression = kLzCompression;
};

class TableBuilder {
 public:
  TableBuilder(const TableBuilderOptions& options, WritableFile* file);

  TableBuilder(const TableBuilder&) = delete;
  TableBuilder& operator=(const TableBuilder&) = delete;

  // REQUIRES: keys added in strictly increasing order.
  void Add(const Slice& key, ValueType type, const Slice& value);

  Status Finish();

  uint64_t NumEntries() const { return num_entries_; }
  uint64_t FileSize() const { return offset_; }
  Status status() const { return status_; }

 private:
  void FlushDataBlock();
  Status WriteBlock(BlockBuilder* block, BlockHandle* handle);

  TableBuilderOptions options_;
  WritableFile* file_;
  uint64_t offset_ = 0;
  uint64_t num_entries_ = 0;
  Status status_;
  BlockBuilder data_block_;
  BlockBuilder index_block_;
  std::string last_key_;
  std::string entry_;  // Stored value of the entry being added.
  bool pending_index_entry_ = false;
  BlockHandle pending_handle_;
  std::string compress_buf_;
};

}  // namespace railgun::storage

#endif  // RAILGUN_STORAGE_TABLE_BUILDER_H_
