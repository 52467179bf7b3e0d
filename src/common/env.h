// POSIX filesystem access used by the LSM state store and event reservoir.
// Kept behind small interfaces so tests can inject fault wrappers.
#ifndef RAILGUN_COMMON_ENV_H_
#define RAILGUN_COMMON_ENV_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"

namespace railgun {

// Sequential append-only sink (SSTable, manifest and segment writers).
class WritableFile {
 public:
  virtual ~WritableFile() = default;
  virtual Status Append(const Slice& data) = 0;
  virtual Status Flush() = 0;
  virtual Status Sync() = 0;
  virtual Status Close() = 0;
  virtual uint64_t Size() const = 0;
};

// Positional reads (SSTable blocks, reservoir chunks).
class RandomAccessFile {
 public:
  virtual ~RandomAccessFile() = default;
  // Reads up to n bytes at offset into scratch; *result points into
  // scratch (or an internal buffer) and holds the bytes actually read.
  virtual Status Read(uint64_t offset, size_t n, Slice* result,
                      char* scratch) const = 0;
  virtual uint64_t Size() const = 0;
};

// Forward reads (ReadFileToString).
class SequentialFile {
 public:
  virtual ~SequentialFile() = default;
  virtual Status Read(size_t n, Slice* result, char* scratch) = 0;
  virtual Status Skip(uint64_t n) = 0;
};

// Filesystem environment. A process-wide default is provided; tests may
// wrap it to inject faults.
class Env {
 public:
  virtual ~Env() = default;

  virtual Status NewWritableFile(const std::string& path,
                                 std::unique_ptr<WritableFile>* file) = 0;
  virtual Status NewAppendableFile(const std::string& path,
                                   std::unique_ptr<WritableFile>* file) = 0;
  virtual Status NewRandomAccessFile(
      const std::string& path, std::unique_ptr<RandomAccessFile>* file) = 0;
  virtual Status NewSequentialFile(const std::string& path,
                                   std::unique_ptr<SequentialFile>* file) = 0;

  virtual bool FileExists(const std::string& path) = 0;
  virtual Status GetFileSize(const std::string& path, uint64_t* size) = 0;
  virtual Status RemoveFile(const std::string& path) = 0;
  virtual Status RenameFile(const std::string& from,
                            const std::string& to) = 0;
  virtual Status CreateDir(const std::string& path) = 0;       // mkdir -p
  virtual Status RemoveDirRecursive(const std::string& path) = 0;
  virtual Status ListDir(const std::string& path,
                         std::vector<std::string>* children) = 0;
  virtual Status CopyFile(const std::string& from, const std::string& to) = 0;

  static Env* Default();
};

// Convenience helpers.
Status WriteStringToFile(Env* env, const Slice& data, const std::string& path,
                         bool sync = false);
Status ReadFileToString(Env* env, const std::string& path, std::string* data);

// Joins path components with '/'.
std::string JoinPath(const std::string& a, const std::string& b);

}  // namespace railgun

#endif  // RAILGUN_COMMON_ENV_H_
