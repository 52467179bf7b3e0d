#include "storage/version.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/coding.h"
#include "common/crc32c.h"

namespace railgun::storage {

namespace {

// Leads every manifest snapshot. The first layout had no format number:
// it began with the next file number, which is at least 3, so a manifest
// of that layout (internal keys with sequence numbers, and a last
// sequence field) never reads as this one. Format 2 listed column
// families (a count, then each family's id, name and levels); format 3
// has one keyspace and lists the levels alone.
constexpr uint32_t kManifestFormat = 3;

}  // namespace

std::string SstFileName(const std::string& dbname, uint64_t number) {
  char buf[32];
  snprintf(buf, sizeof(buf), "/%06" PRIu64 ".sst", number);
  return dbname + buf;
}

std::string CurrentFileName(const std::string& dbname) {
  return dbname + "/CURRENT";
}

std::string VersionSet::ManifestPath(uint64_t number) const {
  char buf[32];
  snprintf(buf, sizeof(buf), "/MANIFEST-%06" PRIu64, number);
  return dbname_ + buf;
}

uint64_t VersionSet::LevelBytes(int level) const {
  uint64_t total = 0;
  for (const auto& f : levels_[level]) total += f.file_size;
  return total;
}

std::vector<FileMetaData> VersionSet::OverlappingFiles(
    int level, const Slice& smallest, const Slice& largest) const {
  std::vector<FileMetaData> result;
  for (const auto& f : levels_[level]) {
    if (Slice(f.largest).compare(smallest) >= 0 &&
        Slice(f.smallest).compare(largest) <= 0) {
      result.push_back(f);
    }
  }
  return result;
}

VersionSet::VersionSet(Env* env, std::string dbname)
    : env_(env), dbname_(std::move(dbname)) {}

Status VersionSet::Recover(bool create_if_missing) {
  const std::string current = CurrentFileName(dbname_);
  if (!env_->FileExists(current)) {
    if (!create_if_missing) {
      return Status::NotFound("database does not exist: " + dbname_);
    }
    RAILGUN_RETURN_IF_ERROR(env_->CreateDir(dbname_));
    return LogAndApply();  // Fresh database: the first manifest.
  }

  std::string manifest_name;
  RAILGUN_RETURN_IF_ERROR(ReadFileToString(env_, current, &manifest_name));
  while (!manifest_name.empty() &&
         (manifest_name.back() == '\n' || manifest_name.back() == '\r')) {
    manifest_name.pop_back();
  }
  return ReadSnapshot(dbname_ + "/" + manifest_name);
}

Status VersionSet::LogAndApply() {
  const uint64_t manifest_number = next_file_number_++;
  RAILGUN_RETURN_IF_ERROR(WriteSnapshot(manifest_number));

  // Point CURRENT at the new manifest atomically.
  char buf[40];
  snprintf(buf, sizeof(buf), "MANIFEST-%06" PRIu64 "\n", manifest_number);
  const std::string tmp = dbname_ + "/CURRENT.tmp";
  RAILGUN_RETURN_IF_ERROR(WriteStringToFile(env_, buf, tmp, /*sync=*/true));
  RAILGUN_RETURN_IF_ERROR(env_->RenameFile(tmp, CurrentFileName(dbname_)));

  // Garbage-collect older manifests.
  std::vector<std::string> children;
  if (env_->ListDir(dbname_, &children).ok()) {
    char keep[40];
    snprintf(keep, sizeof(keep), "MANIFEST-%06" PRIu64, manifest_number);
    for (const auto& child : children) {
      if (child.rfind("MANIFEST-", 0) == 0 && child != keep) {
        // Best effort: stale manifests are harmless until the next GC.
        (void)env_->RemoveFile(dbname_ + "/" + child);
      }
    }
  }
  return Status::OK();
}

Status VersionSet::WriteSnapshot(uint64_t manifest_number) {
  std::string rep;
  PutVarint32(&rep, kManifestFormat);
  PutVarint64(&rep, next_file_number_);
  for (const auto& files : levels_) {
    PutVarint32(&rep, static_cast<uint32_t>(files.size()));
    for (const auto& f : files) {
      PutVarint64(&rep, f.number);
      PutVarint64(&rep, f.file_size);
      PutLengthPrefixedSlice(&rep, f.smallest);
      PutLengthPrefixedSlice(&rep, f.largest);
    }
  }
  PutFixed32(&rep, crc32c::Mask(crc32c::Value(rep.data(), rep.size())));
  return WriteStringToFile(env_, rep, ManifestPath(manifest_number),
                           /*sync=*/true);
}

Status VersionSet::ReadSnapshot(const std::string& path) {
  std::string rep;
  RAILGUN_RETURN_IF_ERROR(ReadFileToString(env_, path, &rep));
  if (rep.size() < 4) return Status::Corruption("manifest too short");
  const size_t body_size = rep.size() - 4;
  if (crc32c::Unmask(DecodeFixed32(rep.data() + body_size)) !=
      crc32c::Value(rep.data(), body_size)) {
    return Status::Corruption("manifest checksum mismatch");
  }
  Slice input(rep.data(), body_size);

  uint32_t format;
  if (!GetVarint32(&input, &format) || format != kManifestFormat) {
    return Status::Corruption("unsupported manifest format");
  }
  if (!GetVarint64(&input, &next_file_number_)) {
    return Status::Corruption("bad manifest header");
  }

  for (auto& files : levels_) {
    files.clear();
    uint32_t num_files;
    if (!GetVarint32(&input, &num_files)) {
      return Status::Corruption("bad manifest level");
    }
    for (uint32_t j = 0; j < num_files; ++j) {
      FileMetaData meta;
      Slice smallest, largest;
      if (!GetVarint64(&input, &meta.number) ||
          !GetVarint64(&input, &meta.file_size) ||
          !GetLengthPrefixedSlice(&input, &smallest) ||
          !GetLengthPrefixedSlice(&input, &largest)) {
        return Status::Corruption("bad manifest file entry");
      }
      meta.smallest = smallest.ToString();
      meta.largest = largest.ToString();
      files.push_back(std::move(meta));
    }
  }
  if (!input.empty()) return Status::Corruption("manifest trailing bytes");
  return Status::OK();
}

void VersionSet::AddFile(int level, FileMetaData meta) {
  auto& files = levels_[level];
  files.push_back(std::move(meta));
  std::sort(files.begin(), files.end(),
            [level](const FileMetaData& a, const FileMetaData& b) {
              return level == 0
                         ? a.number > b.number
                         : Slice(a.smallest).compare(b.smallest) < 0;
            });
}

void VersionSet::RemoveFile(int level, uint64_t number) {
  auto& files = levels_[level];
  files.erase(std::remove_if(files.begin(), files.end(),
                             [number](const FileMetaData& f) {
                               return f.number == number;
                             }),
              files.end());
}

std::vector<uint64_t> VersionSet::LiveFiles() const {
  std::vector<uint64_t> live;
  for (const auto& files : levels_) {
    for (const auto& f : files) live.push_back(f.number);
  }
  return live;
}

}  // namespace railgun::storage
