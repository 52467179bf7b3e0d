// Embedded LSM key-value store: Railgun's metric state store substrate
// (the role RocksDB plays in the paper, built from scratch here). It is a
// point store: task processors read and overwrite aggregation state by
// key, so the API is Put/Delete/Get per key, with no write batches and
// no scans.
//
// One keyspace: there are no column families. Callers that keep several
// kinds of record in one store give each kind its own key prefix (the
// plan's state keys, countDistinct's per-value counts and the task's
// checkpoint keys do). The `cf` argument of the per-key calls survives
// only for existing callers: kDefaultColumnFamily is the one valid value.
//
// One entry per user key, in memory and on disk: a write replaces the
// key's memtable entry, and a table entry is the user key plus a value
// whose first byte is its type (dbformat.h). No entry carries a sequence
// number; the newest copy of a key is the first one found in the order
// memtable, L0 newest first, L1, L2, ... (version.h).
//
// The first compaction error is kept: every later write, flush or
// checkpoint returns it without touching the files, while reads go on.
//
// Concurrency model: a coarse mutex guards all state. Flushes and
// compactions run synchronously on the writing thread — Railgun task
// processors are single-threaded by design (paper §3.2), so background
// compaction threads would only add nondeterminism.
#ifndef RAILGUN_STORAGE_DB_H_
#define RAILGUN_STORAGE_DB_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/mutex.h"
#include "common/slice.h"
#include "common/status.h"
#include "storage/dbformat.h"
#include "storage/memtable.h"
#include "storage/table.h"
#include "storage/table_builder.h"
#include "storage/version.h"

namespace railgun::storage {

struct DBOptions {
  bool create_if_missing = true;
  // Memtable bytes that trigger a flush.
  size_t write_buffer_size = 4 * 1024 * 1024;
  // Max bytes for L1; each further level is 10x larger.
  uint64_t max_bytes_for_level_base = 10 * 1024 * 1024;
  // Target size of one compaction output file.
  uint64_t target_file_size = 2 * 1024 * 1024;
  size_t block_size = 4096;
  CompressionType compression = kLzCompression;
  Env* env = nullptr;  // Defaults to Env::Default().
};

// The one keyspace's id; any other `cf` answers InvalidArgument.
constexpr uint32_t kDefaultColumnFamily = 0;

class DB {
 public:
  static Status Open(const DBOptions& options, const std::string& path,
                     std::unique_ptr<DB>* db);

  // Flushes the memtable, so a clean close loses nothing.
  ~DB();
  DB(const DB&) = delete;
  DB& operator=(const DB&) = delete;

  // Each write replaces the key's entry in the memtable.
  Status Put(uint32_t cf, const Slice& key, const Slice& value);
  Status Delete(uint32_t cf, const Slice& key);
  // Reads always see the newest write: the store keeps no snapshots, so
  // the memtable holds one entry per key and a flush writes one entry
  // per key. NotFound for an absent or deleted key. Reads keep answering
  // after a compaction error.
  Status Get(uint32_t cf, const Slice& key, std::string* value);

  // Forces the memtable to an SSTable. There is no write-ahead log: the
  // store is durable as of its last flush or checkpoint, and the engine
  // recovers newer state by replaying the message log.
  Status Flush();

  // Consistent on-disk snapshot: flush, then copy live files into dir,
  // which can be opened as a regular database.
  Status Checkpoint(const std::string& dir);

  // Introspection for tests/benchmarks.
  struct LevelStats {
    int num_files = 0;
    uint64_t bytes = 0;
  };
  // Zeroes for a cf other than kDefaultColumnFamily.
  std::vector<LevelStats> GetLevelStats(uint32_t cf);

  const std::string& path() const { return dbname_; }

 private:
  DB(const DBOptions& options, std::string dbname);

  Status Recover();
  Status AddLocked(uint32_t cf, ValueType type, const Slice& key,
                   const Slice& value) REQUIRES(mu_);
  Status FlushLocked() REQUIRES(mu_);
  Status FlushMemTable() REQUIRES(mu_);
  Status MaybeCompact() REQUIRES(mu_);
  // Merges the inputs into level + 1. Each key keeps the copy of the
  // first-ranked input holding it: inputs_level in order (L0 newest
  // first), then inputs_next.
  Status CompactRange(int level, const std::vector<FileMetaData>& inputs_level,
                      const std::vector<FileMetaData>& inputs_next)
      REQUIRES(mu_);
  // The table stays owned by table_cache_ until its file is removed.
  StatusOr<Table*> GetTable(uint64_t file_number) REQUIRES(mu_);
  StatusOr<Lookup> GetFromTables(const Slice& key, std::string* value)
      REQUIRES(mu_);
  void RemoveObsoleteFiles() REQUIRES(mu_);

  DBOptions options_;
  std::string dbname_;
  Env* env_;

  Mutex mu_{kRankStorageDb};
  std::unique_ptr<MemTable> mem_ GUARDED_BY(mu_);
  std::unique_ptr<VersionSet> versions_ GUARDED_BY(mu_);
  std::map<uint64_t, std::unique_ptr<Table>> table_cache_ GUARDED_BY(mu_);
  // The first compaction error; once set, writes and flushes return it.
  Status bg_error_ GUARDED_BY(mu_);
};

// Removes the database directory and all its contents.
Status DestroyDB(const std::string& path, Env* env = nullptr);

}  // namespace railgun::storage

#endif  // RAILGUN_STORAGE_DB_H_
