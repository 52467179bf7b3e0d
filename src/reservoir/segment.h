// Segment files: ordered, append-only files of serialized chunks (paper
// §4.1.1 "files hold multiple chunks of events, until they reach a fixed
// size, after which they become immutable").
//
// Record framing: payload_size (fixed32) | masked crc32c (fixed32)
//                 | chunk_seq (fixed64) | payload.
// The checksum covers chunk_seq and payload. A record that runs past
// the end of its file is a torn tail (a crash mid-append): the scan
// drops it whole and its events replay from the message log. Any other
// damage reads back as Corruption.
#ifndef RAILGUN_RESERVOIR_SEGMENT_H_
#define RAILGUN_RESERVOIR_SEGMENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/status.h"
#include "reservoir/chunk.h"

namespace railgun::reservoir {

// Durable location of one chunk.
struct ChunkLocation {
  ChunkSeq seq = 0;
  uint64_t file_number = 0;
  uint64_t offset = 0;      // Offset of the record header.
  uint32_t size = 0;        // Payload size.
  Micros min_ts = 0;
  Micros max_ts = 0;
  uint32_t num_events = 0;
  uint64_t max_offset = 0;  // Largest message-log offset inside the chunk.
};

std::string SegmentFileName(const std::string& dir, uint64_t number);

// Appends chunk records across a sequence of size-capped segment files.
class SegmentWriter {
 public:
  SegmentWriter(Env* env, std::string dir, uint64_t max_file_bytes);

  // Resumes file `last_file_number` at `last_file_size` (where ScanAll
  // found its last whole record ends), or starts the next file when that
  // one is full or ends in a torn tail.
  Status Open(uint64_t last_file_number, uint64_t last_file_size);

  // Appends a serialized chunk; fills *location.
  Status Append(const Chunk& chunk, const std::string& payload,
                ChunkLocation* location);

  Status Sync();

 private:
  Status RollFile();

  Env* env_;
  std::string dir_;
  uint64_t max_file_bytes_;
  uint64_t file_number_ = 0;
  uint64_t file_size_ = 0;
  std::unique_ptr<WritableFile> file_;
};

// Reads chunk payloads back and scans segments to rebuild the index.
class SegmentReader {
 public:
  SegmentReader(Env* env, std::string dir);

  // Reads the payload of the chunk at the given location. Corruption
  // unless the record there is whole, checksums and holds that chunk.
  Status ReadChunkPayload(const ChunkLocation& location,
                          std::string* payload) const;

  // Scans every segment file in the directory in file order and returns
  // the chunk locations (every record's checksum is verified; payloads
  // are not decompressed). Used on recovery. *last_file_size is where
  // the newest file's last whole record ends.
  Status ScanAll(std::vector<ChunkLocation>* locations,
                 uint64_t* last_file_number, uint64_t* last_file_size) const;

 private:
  Env* env_;
  std::string dir_;
};

}  // namespace railgun::reservoir

#endif  // RAILGUN_RESERVOIR_SEGMENT_H_
