#include "storage/table_format.h"

#include <memory>

#include "common/coding.h"
#include "common/compression.h"
#include "common/crc32c.h"

namespace railgun::storage {

void BlockHandle::EncodeTo(std::string* dst) const {
  PutVarint64(dst, offset);
  PutVarint64(dst, size);
}

Status BlockHandle::DecodeFrom(Slice* input) {
  if (!GetVarint64(input, &offset) || !GetVarint64(input, &size)) {
    return Status::Corruption("bad block handle");
  }
  return Status::OK();
}

void Footer::EncodeTo(std::string* dst) const {
  const size_t original_size = dst->size();
  index_handle.EncodeTo(dst);
  dst->resize(original_size + kEncodedLength - 8);  // Zero padding.
  PutFixed64(dst, kTableMagicNumber);
}

Status Footer::DecodeFrom(Slice* input) {
  if (input->size() < kEncodedLength) {
    return Status::Corruption("footer too short");
  }
  const char* magic_ptr = input->data() + kEncodedLength - 8;
  if (DecodeFixed64(magic_ptr) != kTableMagicNumber) {
    return Status::Corruption("bad table magic number");
  }
  Slice handle_input(input->data(), kEncodedLength - 8);
  return index_handle.DecodeFrom(&handle_input);
}

Status ReadBlockContents(RandomAccessFile* file, const BlockHandle& handle,
                         std::string* contents) {
  // The footer carries no checksum, so a handle can state any extent:
  // bound it by the file before allocating (written to not overflow).
  const uint64_t file_size = file->Size();
  if (handle.offset > file_size ||
      handle.size > file_size - handle.offset ||
      kBlockTrailerSize > file_size - handle.offset - handle.size) {
    return Status::Corruption("block handle past end of file");
  }
  const size_t n = static_cast<size_t>(handle.size);
  std::unique_ptr<char[]> buf(new char[n + kBlockTrailerSize]);
  Slice block;
  RAILGUN_RETURN_IF_ERROR(
      file->Read(handle.offset, n + kBlockTrailerSize, &block, buf.get()));
  if (block.size() != n + kBlockTrailerSize) {
    return Status::Corruption("truncated block read");
  }

  const char* data = block.data();
  const uint32_t expected_crc = crc32c::Unmask(DecodeFixed32(data + n + 1));
  const uint32_t actual_crc = crc32c::Extend(crc32c::Value(data, n),
                                             data + n, 1);  // Includes type.
  if (expected_crc != actual_crc) {
    return Status::Corruption("block checksum mismatch");
  }

  contents->clear();
  switch (static_cast<CompressionType>(data[n])) {
    case kNoCompression:
      contents->assign(data, n);
      return Status::OK();
    case kLzCompression:
      return LzUncompress(Slice(data, n), contents);
  }
  return Status::Corruption("unknown block compression type");
}

}  // namespace railgun::storage
