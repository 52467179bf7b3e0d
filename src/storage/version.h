// Version state of the LSM tree: one keyspace, one leveled file list,
// persisted as full-snapshot manifests (MANIFEST-N + CURRENT pointer),
// each starting with a format number and ending in a masked crc32c of the
// snapshot.
// Full-snapshot manifests trade write amplification for simplicity; the
// state store's table counts are small enough that this is negligible.
//
// File position alone decides which copy of a key is newest: L0 files
// may overlap and are kept newest first (by file number), each deeper
// level holds non-overlapping files sorted by key, and a level's copy of
// a key is newer than any copy further down.
#ifndef RAILGUN_STORAGE_VERSION_H_
#define RAILGUN_STORAGE_VERSION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/slice.h"
#include "common/status.h"

namespace railgun::storage {

constexpr int kNumLevels = 7;

struct FileMetaData {
  uint64_t number = 0;
  uint64_t file_size = 0;
  std::string smallest;  // Smallest user key.
  std::string largest;   // Largest user key.
};

// VersionSet owns the durable metadata: the file list of each level and
// the next file number.
class VersionSet {
 public:
  VersionSet(Env* env, std::string dbname);

  // Loads CURRENT -> MANIFEST, or initializes a fresh, empty database.
  Status Recover(bool create_if_missing);

  // Writes a new manifest snapshot and repoints CURRENT.
  Status LogAndApply();

  uint64_t NewFileNumber() { return next_file_number_++; }
  uint64_t next_file_number() const { return next_file_number_; }

  // files(0) is newest first; deeper levels are sorted by smallest key.
  const std::vector<FileMetaData>& files(int level) const {
    return levels_[level];
  }
  // Total bytes at a level.
  uint64_t LevelBytes(int level) const;
  // Files at a level whose key range meets [smallest, largest].
  std::vector<FileMetaData> OverlappingFiles(int level, const Slice& smallest,
                                             const Slice& largest) const;

  // File bookkeeping helpers used by flush/compaction. AddFile keeps
  // each level in its order above.
  void AddFile(int level, FileMetaData meta);
  void RemoveFile(int level, uint64_t number);

  // All live SST file numbers (for GC and checkpoints).
  std::vector<uint64_t> LiveFiles() const;

  std::string ManifestPath(uint64_t number) const;

 private:
  Status WriteSnapshot(uint64_t manifest_number);
  Status ReadSnapshot(const std::string& path);

  Env* env_;
  std::string dbname_;
  uint64_t next_file_number_ = 2;  // 1 is reserved for the first manifest.
  std::vector<std::vector<FileMetaData>> levels_{
      static_cast<size_t>(kNumLevels)};
};

// File name helpers.
std::string SstFileName(const std::string& dbname, uint64_t number);
std::string CurrentFileName(const std::string& dbname);

}  // namespace railgun::storage

#endif  // RAILGUN_STORAGE_VERSION_H_
