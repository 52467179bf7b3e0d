#include "storage/table.h"

namespace railgun::storage {

Status Table::Open(std::unique_ptr<RandomAccessFile> file,
                   std::unique_ptr<Table>* table) {
  const uint64_t size = file->Size();
  if (size < Footer::kEncodedLength) {
    return Status::Corruption("file too short to be an sstable");
  }

  char footer_space[Footer::kEncodedLength];
  Slice footer_input;
  RAILGUN_RETURN_IF_ERROR(file->Read(size - Footer::kEncodedLength,
                                     Footer::kEncodedLength, &footer_input,
                                     footer_space));
  Footer footer;
  RAILGUN_RETURN_IF_ERROR(footer.DecodeFrom(&footer_input));

  std::string index_contents;
  RAILGUN_RETURN_IF_ERROR(
      ReadBlockContents(file.get(), footer.index_handle, &index_contents));

  std::unique_ptr<Table> t(new Table());
  t->file_ = std::move(file);
  t->index_block_.reset(new Block(std::move(index_contents)));
  *table = std::move(t);
  return Status::OK();
}

Status Table::ReadDataBlock(const Slice& index_value,
                            std::shared_ptr<Block>* block) {
  BlockHandle handle;
  Slice input = index_value;
  RAILGUN_RETURN_IF_ERROR(handle.DecodeFrom(&input));

  auto it = block_cache_.find(handle.offset);
  if (it != block_cache_.end()) {
    *block = it->second;
    return Status::OK();
  }

  std::string contents;
  RAILGUN_RETURN_IF_ERROR(ReadBlockContents(file_.get(), handle, &contents));
  auto b = std::make_shared<Block>(std::move(contents));
  // Bounded cache with single-entry eviction (clearing wholesale made
  // every read a miss under uniform key access).
  if (block_cache_.size() >= 512) {
    block_cache_.erase(block_cache_.begin());
  }
  block_cache_[handle.offset] = b;
  *block = std::move(b);
  return Status::OK();
}

StatusOr<Lookup> Table::Get(const Slice& key, std::string* value) {
  Block::Iter index_iter(index_block_.get());
  index_iter.Seek(key);
  if (!index_iter.Valid()) {
    RAILGUN_RETURN_IF_ERROR(index_iter.status());
    return Lookup::kAbsent;  // Past the last block.
  }

  std::shared_ptr<Block> block;
  RAILGUN_RETURN_IF_ERROR(ReadDataBlock(index_iter.value(), &block));
  Block::Iter data_iter(block.get());
  data_iter.Seek(key);
  if (!data_iter.Valid()) {
    RAILGUN_RETURN_IF_ERROR(data_iter.status());
    return Lookup::kAbsent;
  }
  if (data_iter.key() != key) return Lookup::kAbsent;

  ValueType type;
  Slice found;
  RAILGUN_RETURN_IF_ERROR(DecodeEntryValue(data_iter.value(), &type, &found));
  if (type == kTypeDeletion) return Lookup::kDeleted;
  value->assign(found.data(), found.size());
  return Lookup::kFound;
}

Table::Iterator::Iterator(Table* table)
    : table_(table),
      index_iter_(new Block::Iter(table->index_block_.get())) {}

bool Table::Iterator::Valid() const {
  return data_iter_ != nullptr && data_iter_->Valid();
}

void Table::Iterator::InitDataBlock() {
  data_block_.reset();
  data_iter_.reset();
  if (!index_iter_->Valid()) return;
  Status s = table_->ReadDataBlock(index_iter_->value(), &data_block_);
  if (!s.ok()) {
    status_ = s;
    return;
  }
  data_iter_.reset(new Block::Iter(data_block_.get()));
}

// Advances through the index until the data iterator holds an entry,
// stopping at the end of the table or at the first failed block.
void Table::Iterator::SkipEmptyBlocks() {
  while (!Valid()) {
    if (data_iter_ != nullptr) status_ = data_iter_->status();
    if (status_.ok()) status_ = index_iter_->status();
    if (!status_.ok() || !index_iter_->Valid()) {
      data_iter_.reset();
      return;
    }
    index_iter_->Next();
    InitDataBlock();
    if (data_iter_ != nullptr) data_iter_->SeekToFirst();
  }
}

void Table::Iterator::Settle() {
  SkipEmptyBlocks();
  if (!Valid()) return;
  status_ = DecodeEntryValue(data_iter_->value(), &type_, &value_);
  if (!status_.ok()) data_iter_.reset();
}

void Table::Iterator::SeekToFirst() {
  index_iter_->SeekToFirst();
  InitDataBlock();
  if (data_iter_ != nullptr) data_iter_->SeekToFirst();
  Settle();
}

void Table::Iterator::Next() {
  if (data_iter_ != nullptr) data_iter_->Next();
  Settle();
}

}  // namespace railgun::storage
