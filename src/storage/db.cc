#include "storage/db.h"

#include <algorithm>

#include "common/logging.h"

namespace railgun::storage {

namespace {

// Number of L0 files that triggers an L0->L1 compaction.
constexpr size_t kL0CompactionTrigger = 4;

uint64_t MaxBytesForLevel(const DBOptions& options, int level) {
  uint64_t result = options.max_bytes_for_level_base;
  for (int i = 1; i < level; ++i) result *= 10;
  return result;
}

// Parses "000007.sst" style names.
bool ParseFileName(const std::string& name, uint64_t* number,
                   std::string* suffix) {
  const size_t dot = name.find('.');
  if (dot == std::string::npos) return false;
  const std::string num_part = name.substr(0, dot);
  if (num_part.empty() ||
      num_part.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *number = std::stoull(num_part);
  *suffix = name.substr(dot + 1);
  return true;
}

}  // namespace

DB::DB(const DBOptions& options, std::string dbname)
    : options_(options),
      dbname_(std::move(dbname)),
      env_(options.env != nullptr ? options.env : Env::Default()),
      mem_(std::make_unique<MemTable>()),
      versions_(std::make_unique<VersionSet>(env_, dbname_)) {}

DB::~DB() {
  MutexLock lock(&mu_);
  const Status s = FlushLocked();
  if (!s.ok()) {
    RAILGUN_LOG(kError, "storage", "flush on close of %s failed: %s",
                dbname_.c_str(), s.ToString().c_str());
  }
}

Status DB::Open(const DBOptions& options, const std::string& path,
                std::unique_ptr<DB>* db) {
  std::unique_ptr<DB> impl(new DB(options, path));
  RAILGUN_RETURN_IF_ERROR(impl->Recover());
  *db = std::move(impl);
  return Status::OK();
}

Status DB::Recover() {
  MutexLock lock(&mu_);
  RAILGUN_RETURN_IF_ERROR(versions_->Recover(options_.create_if_missing));
  // Tables a crash left half-written are not in the manifest.
  RemoveObsoleteFiles();
  return Status::OK();
}

Status DB::Put(uint32_t cf, const Slice& key, const Slice& value) {
  MutexLock lock(&mu_);
  return AddLocked(cf, kTypeValue, key, value);
}

Status DB::Delete(uint32_t cf, const Slice& key) {
  MutexLock lock(&mu_);
  return AddLocked(cf, kTypeDeletion, key, Slice());
}

Status DB::AddLocked(uint32_t cf, ValueType type, const Slice& key,
                     const Slice& value) {
  if (!bg_error_.ok()) return bg_error_;
  if (cf != kDefaultColumnFamily) {
    return Status::InvalidArgument("unknown column family");
  }
  mem_->Add(type, key, value);
  if (mem_->ApproximateMemoryUsage() >= options_.write_buffer_size) {
    return FlushLocked();
  }
  return Status::OK();
}

Status DB::Get(uint32_t cf, const Slice& key, std::string* value) {
  if (cf != kDefaultColumnFamily) {
    return Status::InvalidArgument("unknown column family");
  }
  MutexLock lock(&mu_);
  Lookup lookup = mem_->Get(key, value);
  if (lookup == Lookup::kAbsent) {
    RAILGUN_ASSIGN_OR_RETURN(lookup, GetFromTables(key, value));
  }
  return lookup == Lookup::kFound ? Status::OK() : Status::NotFound("");
}

StatusOr<Lookup> DB::GetFromTables(const Slice& key, std::string* value) {
  auto check_file = [&](const FileMetaData& f) -> StatusOr<Lookup> {
    if (key.compare(f.smallest) < 0 || key.compare(f.largest) > 0) {
      return Lookup::kAbsent;
    }
    RAILGUN_ASSIGN_OR_RETURN(Table * table, GetTable(f.number));
    return table->Get(key, value);
  };

  // L0 files may overlap and are kept newest first.
  for (const FileMetaData& f : versions_->files(0)) {
    RAILGUN_ASSIGN_OR_RETURN(Lookup lookup, check_file(f));
    if (lookup != Lookup::kAbsent) return lookup;
  }

  // L1+: files are non-overlapping and sorted; binary search by range.
  for (int level = 1; level < kNumLevels; ++level) {
    const auto& files = versions_->files(level);
    // Find the first file whose largest key >= key.
    auto iter = std::lower_bound(
        files.begin(), files.end(), key,
        [](const FileMetaData& f, const Slice& k) {
          return Slice(f.largest).compare(k) < 0;
        });
    if (iter == files.end()) continue;
    RAILGUN_ASSIGN_OR_RETURN(Lookup lookup, check_file(*iter));
    if (lookup != Lookup::kAbsent) return lookup;
  }
  return Lookup::kAbsent;
}

StatusOr<Table*> DB::GetTable(uint64_t file_number) {
  auto it = table_cache_.find(file_number);
  if (it != table_cache_.end()) return it->second.get();

  std::unique_ptr<RandomAccessFile> file;
  RAILGUN_RETURN_IF_ERROR(
      env_->NewRandomAccessFile(SstFileName(dbname_, file_number), &file));
  std::unique_ptr<Table> table;
  RAILGUN_RETURN_IF_ERROR(Table::Open(std::move(file), &table));
  Table* raw = table.get();
  table_cache_[file_number] = std::move(table);
  return raw;
}

Status DB::Flush() {
  MutexLock lock(&mu_);
  return FlushLocked();
}

Status DB::FlushLocked() {
  if (!bg_error_.ok()) return bg_error_;
  if (mem_->Empty()) return Status::OK();
  RAILGUN_RETURN_IF_ERROR(FlushMemTable());
  RAILGUN_RETURN_IF_ERROR(versions_->LogAndApply());
  mem_ = std::make_unique<MemTable>();

  // A failed compaction is not retried: its inputs would fail again,
  // and L0 would grow with every flush.
  bg_error_ = MaybeCompact();
  return bg_error_;
}

Status DB::FlushMemTable() {
  const uint64_t file_number = versions_->NewFileNumber();
  const std::string fname = SstFileName(dbname_, file_number);

  std::unique_ptr<WritableFile> file;
  RAILGUN_RETURN_IF_ERROR(env_->NewWritableFile(fname, &file));

  TableBuilderOptions topts;
  topts.block_size = options_.block_size;
  topts.compression = options_.compression;
  TableBuilder builder(topts, file.get());

  FileMetaData meta;
  meta.number = file_number;

  MemTable::Iterator iter(mem_.get());
  for (iter.SeekToFirst(); iter.Valid(); iter.Next()) {
    if (builder.NumEntries() == 0) meta.smallest = iter.key().ToString();
    meta.largest = iter.key().ToString();
    builder.Add(iter.key(), iter.type(), iter.value());
  }
  RAILGUN_RETURN_IF_ERROR(builder.Finish());
  RAILGUN_RETURN_IF_ERROR(file->Sync());
  RAILGUN_RETURN_IF_ERROR(file->Close());

  meta.file_size = builder.FileSize();
  versions_->AddFile(0, std::move(meta));
  return Status::OK();
}

Status DB::MaybeCompact() {
  while (true) {
    // L0 -> L1 when too many overlapping L0 files accumulate.
    if (versions_->files(0).size() >= kL0CompactionTrigger) {
      // Newest first, which ranks them for the merge.
      const std::vector<FileMetaData> l0_inputs = versions_->files(0);
      // All L1 files overlapping the union of L0 ranges participate.
      std::string smallest = l0_inputs[0].smallest;
      std::string largest = l0_inputs[0].largest;
      for (const auto& f : l0_inputs) {
        smallest = std::min(smallest, f.smallest);
        largest = std::max(largest, f.largest);
      }
      RAILGUN_RETURN_IF_ERROR(CompactRange(
          0, l0_inputs, versions_->OverlappingFiles(1, smallest, largest)));
      continue;
    }

    // Size-triggered compactions down the levels.
    bool compacted = false;
    for (int level = 1; level + 1 < kNumLevels; ++level) {
      if (versions_->LevelBytes(level) > MaxBytesForLevel(options_, level) &&
          !versions_->files(level).empty()) {
        const FileMetaData input = versions_->files(level)[0];
        RAILGUN_RETURN_IF_ERROR(CompactRange(
            level, {input},
            versions_->OverlappingFiles(level + 1, input.smallest,
                                        input.largest)));
        compacted = true;
        break;
      }
    }
    if (!compacted) return Status::OK();
  }
}

Status DB::CompactRange(int level,
                        const std::vector<FileMetaData>& inputs_level,
                        const std::vector<FileMetaData>& inputs_next) {
  const int output_level = level + 1;

  // Tombstones can be dropped when no level below the output can still
  // hold an older version of the key.
  bool deeper_data = false;
  for (int l = output_level + 1; l < kNumLevels; ++l) {
    if (!versions_->files(l).empty()) {
      deeper_data = true;
      break;
    }
  }

  // Open iterators over every input table.
  std::vector<std::unique_ptr<Table::Iterator>> iters;
  for (const auto* inputs : {&inputs_level, &inputs_next}) {
    for (const auto& f : *inputs) {
      RAILGUN_ASSIGN_OR_RETURN(Table * t, GetTable(f.number));
      iters.emplace_back(new Table::Iterator(t));
      iters.back()->SeekToFirst();
    }
  }

  // The smallest key; on a tie the first-ranked input, which holds the
  // newest copy.
  auto pick_min = [&]() -> Table::Iterator* {
    Table::Iterator* best = nullptr;
    for (auto& it : iters) {
      if (!it->Valid()) continue;
      if (best == nullptr || it->key().compare(best->key()) < 0) {
        best = it.get();
      }
    }
    return best;
  };

  // Merge, keeping the newest copy of each key.
  std::vector<FileMetaData> outputs;
  std::unique_ptr<WritableFile> out_file;
  std::unique_ptr<TableBuilder> builder;
  FileMetaData current_out;

  TableBuilderOptions topts;
  topts.block_size = options_.block_size;
  topts.compression = options_.compression;

  auto open_output = [&]() -> Status {
    current_out = FileMetaData();
    current_out.number = versions_->NewFileNumber();
    RAILGUN_RETURN_IF_ERROR(env_->NewWritableFile(
        SstFileName(dbname_, current_out.number), &out_file));
    builder.reset(new TableBuilder(topts, out_file.get()));
    return Status::OK();
  };
  auto close_output = [&]() -> Status {
    if (builder == nullptr || builder->NumEntries() == 0) {
      if (out_file != nullptr) {
        // Abandoning an empty output: deletion failures leave an
        // orphan .sst that RemoveObsoleteFiles collects.
        (void)out_file->Close();
        (void)env_->RemoveFile(SstFileName(dbname_, current_out.number));
        out_file.reset();
        builder.reset();
      }
      return Status::OK();
    }
    RAILGUN_RETURN_IF_ERROR(builder->Finish());
    RAILGUN_RETURN_IF_ERROR(out_file->Sync());
    RAILGUN_RETURN_IF_ERROR(out_file->Close());
    current_out.file_size = builder->FileSize();
    outputs.push_back(current_out);
    out_file.reset();
    builder.reset();
    return Status::OK();
  };

  std::string last_key;
  bool has_last = false;
  while (Table::Iterator* it = pick_min()) {
    const Slice key = it->key();
    const bool shadowed = has_last && key == Slice(last_key);
    if (!shadowed) {
      last_key.assign(key.data(), key.size());
      has_last = true;
      const bool drop_tombstone = it->type() == kTypeDeletion && !deeper_data;
      if (!drop_tombstone) {
        if (builder == nullptr) RAILGUN_RETURN_IF_ERROR(open_output());
        if (builder->NumEntries() == 0) current_out.smallest = key.ToString();
        current_out.largest = key.ToString();
        builder->Add(key, it->type(), it->value());
        if (builder->FileSize() >= options_.target_file_size) {
          RAILGUN_RETURN_IF_ERROR(close_output());
        }
      }
    }
    it->Next();
  }
  // An input whose block read or entry decode failed ended early:
  // installing the merge would lose that block's keys, so the inputs and
  // the manifest stay.
  for (const auto& it : iters) {
    if (!it->status().ok()) {
      if (out_file != nullptr) (void)out_file->Close();
      RemoveObsoleteFiles();  // The outputs written so far.
      return it->status();
    }
  }
  RAILGUN_RETURN_IF_ERROR(close_output());

  // Install: remove inputs, add outputs.
  for (const auto& f : inputs_level) {
    versions_->RemoveFile(level, f.number);
    table_cache_.erase(f.number);
  }
  for (const auto& f : inputs_next) {
    versions_->RemoveFile(output_level, f.number);
    table_cache_.erase(f.number);
  }
  for (auto& f : outputs) {
    versions_->AddFile(output_level, std::move(f));
  }
  RAILGUN_RETURN_IF_ERROR(versions_->LogAndApply());
  RemoveObsoleteFiles();
  return Status::OK();
}

void DB::RemoveObsoleteFiles() {
  std::vector<std::string> children;
  if (!env_->ListDir(dbname_, &children).ok()) return;
  const std::vector<uint64_t> live = versions_->LiveFiles();
  for (const auto& child : children) {
    uint64_t number;
    std::string suffix;
    if (!ParseFileName(child, &number, &suffix)) continue;
    if (suffix == "sst" &&
        std::find(live.begin(), live.end(), number) == live.end()) {
      // Best effort: a survivor is retried on the next GC pass.
      (void)env_->RemoveFile(dbname_ + "/" + child);
      table_cache_.erase(number);
    }
  }
}

Status DB::Checkpoint(const std::string& dir) {
  MutexLock lock(&mu_);
  RAILGUN_RETURN_IF_ERROR(FlushLocked());
  RAILGUN_RETURN_IF_ERROR(env_->RemoveDirRecursive(dir));
  RAILGUN_RETURN_IF_ERROR(env_->CreateDir(dir));

  // Copy live SSTs plus manifest state.
  for (uint64_t number : versions_->LiveFiles()) {
    RAILGUN_RETURN_IF_ERROR(env_->CopyFile(
        SstFileName(dbname_, number), SstFileName(dir, number)));
  }
  std::vector<std::string> children;
  RAILGUN_RETURN_IF_ERROR(env_->ListDir(dbname_, &children));
  for (const auto& child : children) {
    if (child.rfind("MANIFEST-", 0) == 0 || child == "CURRENT") {
      RAILGUN_RETURN_IF_ERROR(
          env_->CopyFile(dbname_ + "/" + child, dir + "/" + child));
    }
  }
  return Status::OK();
}

std::vector<DB::LevelStats> DB::GetLevelStats(uint32_t cf) {
  MutexLock lock(&mu_);
  std::vector<LevelStats> stats(kNumLevels);
  if (cf != kDefaultColumnFamily) return stats;
  for (int level = 0; level < kNumLevels; ++level) {
    stats[level].num_files = static_cast<int>(versions_->files(level).size());
    stats[level].bytes = versions_->LevelBytes(level);
  }
  return stats;
}

Status DestroyDB(const std::string& path, Env* env) {
  if (env == nullptr) env = Env::Default();
  return env->RemoveDirRecursive(path);
}

}  // namespace railgun::storage
