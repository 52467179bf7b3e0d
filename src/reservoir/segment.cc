#include "reservoir/segment.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/coding.h"
#include "common/crc32c.h"

namespace railgun::reservoir {

namespace {
constexpr size_t kRecordHeaderSize = 4 + 4 + 8;  // size + crc + seq.

// Validates one whole record (header and payload) read off disk and
// points *payload into it.
Status CheckRecord(const Slice& record, Slice* payload) {
  const uint32_t size = DecodeFixed32(record.data());
  if (record.size() != kRecordHeaderSize + size) {
    return Status::Corruption("chunk record size mismatch");
  }
  const uint32_t crc = crc32c::Unmask(DecodeFixed32(record.data() + 4));
  // The checksum starts at the seq field, 8 bytes into the header.
  if (crc32c::Value(record.data() + 8, record.size() - 8) != crc) {
    return Status::Corruption("chunk record checksum mismatch");
  }
  *payload = Slice(record.data() + kRecordHeaderSize, size);
  return Status::OK();
}

// Decodes the uncompressed chunk header fields from a serialized payload
// (everything before the compressed event data).
Status PeekChunkHeader(Slice payload, ChunkLocation* loc) {
  uint32_t schema_id, count;
  int64_t min_ts, max_ts;
  uint64_t max_offset;
  if (!GetVarint32(&payload, &schema_id) || !GetVarint32(&payload, &count) ||
      !GetVarsint64(&payload, &min_ts) || !GetVarsint64(&payload, &max_ts) ||
      !GetVarint64(&payload, &max_offset)) {
    return Status::Corruption("bad chunk payload header");
  }
  loc->min_ts = min_ts;
  loc->max_ts = max_ts;
  loc->num_events = count;
  loc->max_offset = max_offset;
  return Status::OK();
}
}  // namespace

std::string SegmentFileName(const std::string& dir, uint64_t number) {
  char buf[40];
  snprintf(buf, sizeof(buf), "/segment-%06" PRIu64 ".seg", number);
  return dir + buf;
}

SegmentWriter::SegmentWriter(Env* env, std::string dir,
                             uint64_t max_file_bytes)
    : env_(env), dir_(std::move(dir)), max_file_bytes_(max_file_bytes) {}

Status SegmentWriter::Open(uint64_t last_file_number,
                           uint64_t last_file_size) {
  RAILGUN_RETURN_IF_ERROR(env_->CreateDir(dir_));
  file_number_ = last_file_number;
  file_size_ = last_file_size;
  const std::string last_file = SegmentFileName(dir_, file_number_);
  uint64_t physical_size = 0;
  // A torn tail stays where it is: records appended behind it would sit
  // at offsets the scan never reaches, so start a new file instead.
  if (file_number_ == 0 || file_size_ >= max_file_bytes_ ||
      !env_->GetFileSize(last_file, &physical_size).ok() ||
      physical_size != file_size_) {
    return RollFile();
  }
  return env_->NewAppendableFile(last_file, &file_);
}

Status SegmentWriter::RollFile() {
  if (file_ != nullptr) {
    RAILGUN_RETURN_IF_ERROR(file_->Sync());
    RAILGUN_RETURN_IF_ERROR(file_->Close());
  }
  ++file_number_;
  file_size_ = 0;
  return env_->NewWritableFile(SegmentFileName(dir_, file_number_), &file_);
}

Status SegmentWriter::Append(const Chunk& chunk, const std::string& payload,
                             ChunkLocation* location) {
  if (file_size_ >= max_file_bytes_) {
    RAILGUN_RETURN_IF_ERROR(RollFile());
  }

  location->seq = chunk.seq();
  location->file_number = file_number_;
  location->offset = file_size_;
  location->size = static_cast<uint32_t>(payload.size());
  location->min_ts = chunk.min_timestamp();
  location->max_ts = chunk.max_timestamp();
  location->num_events = static_cast<uint32_t>(chunk.num_events());
  location->max_offset = chunk.max_offset();

  std::string seq;
  PutFixed64(&seq, chunk.seq());
  std::string header;
  PutFixed32(&header, static_cast<uint32_t>(payload.size()));
  PutFixed32(&header, crc32c::Mask(crc32c::Extend(
                          crc32c::Value(seq.data(), seq.size()),
                          payload.data(), payload.size())));
  header.append(seq);

  RAILGUN_RETURN_IF_ERROR(file_->Append(header));
  RAILGUN_RETURN_IF_ERROR(file_->Append(payload));
  RAILGUN_RETURN_IF_ERROR(file_->Flush());
  file_size_ += header.size() + payload.size();
  return Status::OK();
}

Status SegmentWriter::Sync() {
  return file_ != nullptr ? file_->Sync() : Status::OK();
}

SegmentReader::SegmentReader(Env* env, std::string dir)
    : env_(env), dir_(std::move(dir)) {}

Status SegmentReader::ReadChunkPayload(const ChunkLocation& location,
                                       std::string* payload) const {
  std::unique_ptr<RandomAccessFile> file;
  RAILGUN_RETURN_IF_ERROR(env_->NewRandomAccessFile(
      SegmentFileName(dir_, location.file_number), &file));

  std::unique_ptr<char[]> buf(new char[kRecordHeaderSize + location.size]);
  Slice record;
  RAILGUN_RETURN_IF_ERROR(file->Read(
      location.offset, kRecordHeaderSize + location.size, &record,
      buf.get()));
  if (record.size() != kRecordHeaderSize + location.size) {
    return Status::Corruption("truncated chunk record");
  }
  Slice data;
  RAILGUN_RETURN_IF_ERROR(CheckRecord(record, &data));
  if (DecodeFixed64(record.data() + 8) != location.seq) {
    return Status::Corruption("chunk record seq mismatch");
  }
  payload->assign(data.data(), data.size());
  return Status::OK();
}

Status SegmentReader::ScanAll(std::vector<ChunkLocation>* locations,
                              uint64_t* last_file_number,
                              uint64_t* last_file_size) const {
  locations->clear();
  *last_file_number = 0;
  *last_file_size = 0;

  std::vector<std::string> children;
  Status s = env_->ListDir(dir_, &children);
  if (s.IsNotFound()) return Status::OK();
  RAILGUN_RETURN_IF_ERROR(s);

  std::vector<uint64_t> numbers;
  for (const auto& child : children) {
    uint64_t number;
    if (sscanf(child.c_str(), "segment-%" SCNu64 ".seg", &number) == 1) {
      numbers.push_back(number);
    }
  }
  std::sort(numbers.begin(), numbers.end());

  for (uint64_t number : numbers) {
    const std::string path = SegmentFileName(dir_, number);
    std::unique_ptr<RandomAccessFile> file;
    RAILGUN_RETURN_IF_ERROR(env_->NewRandomAccessFile(path, &file));
    const uint64_t file_size = file->Size();
    uint64_t pos = 0;
    std::string buf;
    while (pos + kRecordHeaderSize <= file_size) {
      char header_buf[kRecordHeaderSize];
      Slice header;
      RAILGUN_RETURN_IF_ERROR(
          file->Read(pos, kRecordHeaderSize, &header, header_buf));
      if (header.size() < kRecordHeaderSize) break;
      const uint32_t payload_size = DecodeFixed32(header.data());
      const uint64_t record_size = kRecordHeaderSize + payload_size;
      if (pos + record_size > file_size) break;  // Torn tail.
      buf.resize(record_size);
      Slice record, payload;
      RAILGUN_RETURN_IF_ERROR(file->Read(pos, record_size, &record, &buf[0]));
      RAILGUN_RETURN_IF_ERROR(CheckRecord(record, &payload));
      ChunkLocation loc;
      loc.seq = DecodeFixed64(record.data() + 8);
      loc.file_number = number;
      loc.offset = pos;
      loc.size = payload_size;
      RAILGUN_RETURN_IF_ERROR(PeekChunkHeader(payload, &loc));
      locations->push_back(loc);
      pos += record_size;
    }
    *last_file_number = number;
    *last_file_size = pos;
  }
  return Status::OK();
}

}  // namespace railgun::reservoir
