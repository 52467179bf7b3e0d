#include "common/env.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace railgun {

namespace {

Status PosixError(const std::string& context, int err) {
  if (err == ENOENT) return Status::NotFound(context + ": " + strerror(err));
  return Status::IOError(context + ": " + strerror(err));
}

class PosixWritableFile : public WritableFile {
 public:
  PosixWritableFile(std::string path, int fd, uint64_t size)
      : path_(std::move(path)), fd_(fd), size_(size) {
    buffer_.reserve(kBufferSize);
  }

  ~PosixWritableFile() override {
    if (fd_ >= 0) (void)Close();  // Destructor: nowhere to report.
  }

  Status Append(const Slice& data) override {
    size_ += data.size();
    if (buffer_.size() + data.size() <= kBufferSize) {
      buffer_.append(data.data(), data.size());
      return Status::OK();
    }
    RAILGUN_RETURN_IF_ERROR(FlushBuffer());
    if (data.size() <= kBufferSize) {
      buffer_.append(data.data(), data.size());
      return Status::OK();
    }
    return WriteRaw(data.data(), data.size());
  }

  Status Flush() override { return FlushBuffer(); }

  Status Sync() override {
    RAILGUN_RETURN_IF_ERROR(FlushBuffer());
    if (fdatasync(fd_) != 0) return PosixError(path_, errno);
    return Status::OK();
  }

  Status Close() override {
    Status s = FlushBuffer();
    if (fd_ >= 0) {
      if (close(fd_) != 0 && s.ok()) s = PosixError(path_, errno);
      fd_ = -1;
    }
    return s;
  }

  uint64_t Size() const override { return size_; }

 private:
  static constexpr size_t kBufferSize = 64 * 1024;

  Status FlushBuffer() {
    if (buffer_.empty()) return Status::OK();
    Status s = WriteRaw(buffer_.data(), buffer_.size());
    buffer_.clear();
    return s;
  }

  Status WriteRaw(const char* data, size_t n) {
    while (n > 0) {
      ssize_t written = write(fd_, data, n);
      if (written < 0) {
        if (errno == EINTR) continue;
        return PosixError(path_, errno);
      }
      data += written;
      n -= static_cast<size_t>(written);
    }
    return Status::OK();
  }

  std::string path_;
  int fd_;
  uint64_t size_;
  std::string buffer_;
};

class PosixRandomAccessFile : public RandomAccessFile {
 public:
  PosixRandomAccessFile(std::string path, int fd, uint64_t size)
      : path_(std::move(path)), fd_(fd), size_(size) {}

  ~PosixRandomAccessFile() override {
    if (fd_ >= 0) close(fd_);
  }

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    size_t got = 0;
    while (got < n) {
      ssize_t r = pread(fd_, scratch + got, n - got,
                        static_cast<off_t>(offset + got));
      if (r < 0) {
        if (errno == EINTR) continue;
        return PosixError(path_, errno);
      }
      if (r == 0) break;  // EOF.
      got += static_cast<size_t>(r);
    }
    *result = Slice(scratch, got);
    return Status::OK();
  }

  uint64_t Size() const override { return size_; }

 private:
  std::string path_;
  int fd_;
  uint64_t size_;
};

class PosixSequentialFile : public SequentialFile {
 public:
  PosixSequentialFile(std::string path, int fd)
      : path_(std::move(path)), fd_(fd) {}

  ~PosixSequentialFile() override {
    if (fd_ >= 0) close(fd_);
  }

  Status Read(size_t n, Slice* result, char* scratch) override {
    size_t got = 0;
    while (got < n) {
      ssize_t r = read(fd_, scratch + got, n - got);
      if (r < 0) {
        if (errno == EINTR) continue;
        return PosixError(path_, errno);
      }
      if (r == 0) break;
      got += static_cast<size_t>(r);
    }
    *result = Slice(scratch, got);
    return Status::OK();
  }

  Status Skip(uint64_t n) override {
    if (lseek(fd_, static_cast<off_t>(n), SEEK_CUR) == -1) {
      return PosixError(path_, errno);
    }
    return Status::OK();
  }

 private:
  std::string path_;
  int fd_;
};

class PosixEnv : public Env {
 public:
  Status NewWritableFile(const std::string& path,
                         std::unique_ptr<WritableFile>* file) override {
    int fd = open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) return PosixError(path, errno);
    file->reset(new PosixWritableFile(path, fd, 0));
    return Status::OK();
  }

  Status NewAppendableFile(const std::string& path,
                           std::unique_ptr<WritableFile>* file) override {
    int fd = open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd < 0) return PosixError(path, errno);
    struct stat st;
    uint64_t size = 0;
    if (fstat(fd, &st) == 0) size = static_cast<uint64_t>(st.st_size);
    file->reset(new PosixWritableFile(path, fd, size));
    return Status::OK();
  }

  Status NewRandomAccessFile(
      const std::string& path,
      std::unique_ptr<RandomAccessFile>* file) override {
    int fd = open(path.c_str(), O_RDONLY);
    if (fd < 0) return PosixError(path, errno);
    struct stat st;
    uint64_t size = 0;
    if (fstat(fd, &st) == 0) size = static_cast<uint64_t>(st.st_size);
    file->reset(new PosixRandomAccessFile(path, fd, size));
    return Status::OK();
  }

  Status NewSequentialFile(const std::string& path,
                           std::unique_ptr<SequentialFile>* file) override {
    int fd = open(path.c_str(), O_RDONLY);
    if (fd < 0) return PosixError(path, errno);
    file->reset(new PosixSequentialFile(path, fd));
    return Status::OK();
  }

  bool FileExists(const std::string& path) override {
    return access(path.c_str(), F_OK) == 0;
  }

  Status GetFileSize(const std::string& path, uint64_t* size) override {
    struct stat st;
    if (stat(path.c_str(), &st) != 0) return PosixError(path, errno);
    *size = static_cast<uint64_t>(st.st_size);
    return Status::OK();
  }

  Status RemoveFile(const std::string& path) override {
    if (unlink(path.c_str()) != 0) return PosixError(path, errno);
    return Status::OK();
  }

  Status RenameFile(const std::string& from, const std::string& to) override {
    if (rename(from.c_str(), to.c_str()) != 0) return PosixError(from, errno);
    return Status::OK();
  }

  Status CreateDir(const std::string& path) override {
    // mkdir -p semantics.
    std::string partial;
    for (size_t i = 0; i <= path.size(); ++i) {
      if (i == path.size() || path[i] == '/') {
        if (!partial.empty() && mkdir(partial.c_str(), 0755) != 0 &&
            errno != EEXIST) {
          return PosixError(partial, errno);
        }
      }
      if (i < path.size()) partial += path[i];
    }
    return Status::OK();
  }

  Status RemoveDirRecursive(const std::string& path) override {
    std::vector<std::string> children;
    Status s = ListDir(path, &children);
    if (s.IsNotFound()) return Status::OK();
    RAILGUN_RETURN_IF_ERROR(s);
    for (const auto& child : children) {
      const std::string full = JoinPath(path, child);
      struct stat st;
      if (stat(full.c_str(), &st) != 0) continue;
      if (S_ISDIR(st.st_mode)) {
        RAILGUN_RETURN_IF_ERROR(RemoveDirRecursive(full));
      } else {
        unlink(full.c_str());
      }
    }
    if (rmdir(path.c_str()) != 0 && errno != ENOENT) {
      return PosixError(path, errno);
    }
    return Status::OK();
  }

  Status ListDir(const std::string& path,
                 std::vector<std::string>* children) override {
    children->clear();
    DIR* dir = opendir(path.c_str());
    if (dir == nullptr) return PosixError(path, errno);
    struct dirent* entry;
    while ((entry = readdir(dir)) != nullptr) {
      const std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      children->push_back(name);
    }
    closedir(dir);
    return Status::OK();
  }

  // Streams the file through one block-sized buffer: copying a large
  // reservoir segment never holds the whole segment in memory.
  Status CopyFile(const std::string& from, const std::string& to) override {
    std::unique_ptr<SequentialFile> source;
    RAILGUN_RETURN_IF_ERROR(NewSequentialFile(from, &source));
    std::unique_ptr<WritableFile> target;
    RAILGUN_RETURN_IF_ERROR(NewWritableFile(to, &target));
    constexpr size_t kBlock = 64 * 1024;
    std::unique_ptr<char[]> scratch(new char[kBlock]);
    for (;;) {
      Slice block;
      RAILGUN_RETURN_IF_ERROR(source->Read(kBlock, &block, scratch.get()));
      if (block.empty()) break;
      RAILGUN_RETURN_IF_ERROR(target->Append(block));
    }
    return target->Close();
  }
};

}  // namespace

Env* Env::Default() {
  static Env* env = new PosixEnv();
  return env;
}

Status WriteStringToFile(Env* env, const Slice& data, const std::string& path,
                         bool sync) {
  std::unique_ptr<WritableFile> file;
  RAILGUN_RETURN_IF_ERROR(env->NewWritableFile(path, &file));
  RAILGUN_RETURN_IF_ERROR(file->Append(data));
  if (sync) RAILGUN_RETURN_IF_ERROR(file->Sync());
  return file->Close();
}

Status ReadFileToString(Env* env, const std::string& path, std::string* data) {
  data->clear();
  std::unique_ptr<SequentialFile> file;
  RAILGUN_RETURN_IF_ERROR(env->NewSequentialFile(path, &file));
  constexpr size_t kChunk = 64 * 1024;
  std::string scratch(kChunk, '\0');
  while (true) {
    Slice fragment;
    RAILGUN_RETURN_IF_ERROR(file->Read(kChunk, &fragment, scratch.data()));
    if (fragment.empty()) break;
    data->append(fragment.data(), fragment.size());
  }
  return Status::OK();
}

std::string JoinPath(const std::string& a, const std::string& b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  if (a.back() == '/') return a + b;
  return a + "/" + b;
}

}  // namespace railgun
