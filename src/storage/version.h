// Version state of the LSM tree: per-column-family leveled file lists,
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
#include <map>
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

struct ColumnFamilyMeta {
  uint32_t id = 0;
  std::string name;
  // levels[0] newest first; deeper levels sorted by smallest key.
  std::vector<std::vector<FileMetaData>> levels{
      static_cast<size_t>(kNumLevels)};

  // Total bytes at a level.
  uint64_t LevelBytes(int level) const;
  // Files at a level whose key range meets [smallest, largest].
  std::vector<const FileMetaData*> OverlappingFiles(
      int level, const Slice& smallest, const Slice& largest) const;
};

// VersionSet owns the durable metadata: column families, file lists and
// the next file number.
class VersionSet {
 public:
  VersionSet(Env* env, std::string dbname);

  // Loads CURRENT -> MANIFEST, or initializes a fresh database with the
  // default column family.
  Status Recover(bool create_if_missing);

  // Writes a new manifest snapshot and repoints CURRENT.
  Status LogAndApply();

  uint64_t NewFileNumber() { return next_file_number_++; }
  uint64_t next_file_number() const { return next_file_number_; }

  // Column family registry.
  StatusOr<uint32_t> CreateColumnFamily(const std::string& name);
  const std::map<uint32_t, ColumnFamilyMeta>& families() const {
    return families_;
  }
  ColumnFamilyMeta* GetFamily(uint32_t id);
  const ColumnFamilyMeta* FindFamilyByName(const std::string& name) const;

  // File bookkeeping helpers used by flush/compaction. AddFile keeps
  // each level in its order above.
  void AddFile(uint32_t cf_id, int level, FileMetaData meta);
  void RemoveFile(uint32_t cf_id, int level, uint64_t number);

  // All live SST file numbers across families (for GC and checkpoints).
  std::vector<uint64_t> LiveFiles() const;

  std::string ManifestPath(uint64_t number) const;

 private:
  Status WriteSnapshot(uint64_t manifest_number);
  Status ReadSnapshot(const std::string& path);

  Env* env_;
  std::string dbname_;
  uint64_t next_file_number_ = 2;  // 1 is reserved for the first manifest.
  uint32_t next_cf_id_ = 1;  // 0 = default CF.
  std::map<uint32_t, ColumnFamilyMeta> families_;
};

// File name helpers.
std::string SstFileName(const std::string& dbname, uint64_t number);
std::string CurrentFileName(const std::string& dbname);

}  // namespace railgun::storage

#endif  // RAILGUN_STORAGE_VERSION_H_
