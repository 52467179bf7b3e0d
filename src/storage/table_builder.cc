#include "storage/table_builder.h"

#include "common/coding.h"
#include "common/compression.h"
#include "common/crc32c.h"

namespace railgun::storage {

TableBuilder::TableBuilder(const TableBuilderOptions& options,
                           WritableFile* file)
    : options_(options), file_(file) {}

void TableBuilder::Add(const Slice& key, ValueType type,
                       const Slice& value) {
  if (!status_.ok()) return;

  if (pending_index_entry_) {
    // last_key_ is the final key of the completed block; since keys are
    // sorted, it is a valid upper bound for index lookups.
    std::string handle_encoding;
    pending_handle_.EncodeTo(&handle_encoding);
    index_block_.Add(Slice(last_key_), Slice(handle_encoding));
    pending_index_entry_ = false;
  }

  last_key_.assign(key.data(), key.size());
  entry_.assign(1, static_cast<char>(type));
  entry_.append(value.data(), value.size());
  data_block_.Add(key, Slice(entry_));
  ++num_entries_;

  if (data_block_.CurrentSizeEstimate() >= options_.block_size) {
    FlushDataBlock();
  }
}

void TableBuilder::FlushDataBlock() {
  if (data_block_.empty() || !status_.ok()) return;
  status_ = WriteBlock(&data_block_, &pending_handle_);
  if (status_.ok()) pending_index_entry_ = true;
}

Status TableBuilder::WriteBlock(BlockBuilder* block, BlockHandle* handle) {
  const Slice raw = block->Finish();

  Slice block_contents;
  CompressionType type = options_.compression;
  if (type == kLzCompression) {
    compress_buf_.clear();
    LzCompress(raw, &compress_buf_);
    if (compress_buf_.size() < raw.size()) {
      block_contents = Slice(compress_buf_);
    } else {
      // Incompressible: store raw.
      type = kNoCompression;
      block_contents = raw;
    }
  } else {
    block_contents = raw;
  }

  handle->offset = offset_;
  handle->size = block_contents.size();

  RAILGUN_RETURN_IF_ERROR(file_->Append(block_contents));

  char trailer[kBlockTrailerSize];
  trailer[0] = static_cast<char>(type);
  const uint32_t crc =
      crc32c::Extend(crc32c::Value(block_contents.data(),
                                   block_contents.size()),
                     trailer, 1);
  EncodeFixed32(trailer + 1, crc32c::Mask(crc));
  RAILGUN_RETURN_IF_ERROR(file_->Append(Slice(trailer, kBlockTrailerSize)));

  offset_ += block_contents.size() + kBlockTrailerSize;
  block->Reset();
  return Status::OK();
}

Status TableBuilder::Finish() {
  FlushDataBlock();
  if (!status_.ok()) return status_;

  if (pending_index_entry_) {
    std::string handle_encoding;
    pending_handle_.EncodeTo(&handle_encoding);
    index_block_.Add(Slice(last_key_), Slice(handle_encoding));
    pending_index_entry_ = false;
  }

  BlockHandle index_handle;
  status_ = WriteBlock(&index_block_, &index_handle);
  if (!status_.ok()) return status_;

  Footer footer;
  footer.index_handle = index_handle;
  std::string footer_encoding;
  footer.EncodeTo(&footer_encoding);
  status_ = file_->Append(Slice(footer_encoding));
  if (status_.ok()) offset_ += footer_encoding.size();
  return status_;
}

}  // namespace railgun::storage
