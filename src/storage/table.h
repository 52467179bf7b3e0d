// Read side of an SSTable: index lookup + block fetch with an LRU-free
// simple per-table block cache (tables are small in the state store; the
// index is kept resident and data blocks are cached by offset).
//
// A table holds one entry per user key, in bytewise key order; each
// entry's value starts with its type byte (see dbformat.h).
#ifndef RAILGUN_STORAGE_TABLE_H_
#define RAILGUN_STORAGE_TABLE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/env.h"
#include "common/slice.h"
#include "common/status.h"
#include "storage/block.h"
#include "storage/dbformat.h"
#include "storage/table_format.h"

namespace railgun::storage {

class Table {
 public:
  // Opens a table over the given file (takes ownership).
  static Status Open(std::unique_ptr<RandomAccessFile> file,
                     std::unique_ptr<Table>* table);

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  // Point lookup of a user key: kFound sets *value, kDeleted is a
  // tombstone, kAbsent means the table holds no entry for the key.
  StatusOr<Lookup> Get(const Slice& key, std::string* value);

  // Forward iterator over all entries, in key order. It stops at the
  // first block that fails to read or decode, or at the first entry whose
  // type is bad, and status() then holds the error, so a scan that ends
  // with an OK status saw every entry.
  class Iterator {
   public:
    explicit Iterator(Table* table);

    bool Valid() const;
    void SeekToFirst();
    void Next();
    Slice key() const { return data_iter_->key(); }
    ValueType type() const { return type_; }
    // The user value; empty for a tombstone.
    Slice value() const { return value_; }
    Status status() const { return status_; }

   private:
    void InitDataBlock();
    void SkipEmptyBlocks();
    // Skips empty blocks, then decodes the entry it lands on.
    void Settle();

    Table* table_;
    std::unique_ptr<Block::Iter> index_iter_;
    std::shared_ptr<Block> data_block_;
    std::unique_ptr<Block::Iter> data_iter_;
    ValueType type_ = kTypeValue;
    Slice value_;
    Status status_;
  };

 private:
  Table() = default;

  Status ReadDataBlock(const Slice& index_value,
                       std::shared_ptr<Block>* block);

  std::unique_ptr<RandomAccessFile> file_;
  std::unique_ptr<Block> index_block_;
  // Tiny cache keyed by block offset.
  std::map<uint64_t, std::shared_ptr<Block>> block_cache_;
};

}  // namespace railgun::storage

#endif  // RAILGUN_STORAGE_TABLE_H_
