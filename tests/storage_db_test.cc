// Tests for the full LSM store: put/get/delete in its one keyspace,
// flush, compaction, recovery, checkpoints and corruption handling.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/env.h"
#include "common/random.h"
#include "storage/db.h"

namespace railgun::storage {
namespace {

// Replaces `to` with a copy of every file in `from`.
void CopyDir(Env* env, const std::string& from, const std::string& to) {
  ASSERT_TRUE(env->RemoveDirRecursive(to).ok());
  ASSERT_TRUE(env->CreateDir(to).ok());
  std::vector<std::string> children;
  ASSERT_TRUE(env->ListDir(from, &children).ok());
  for (const auto& child : children) {
    ASSERT_TRUE(env->CopyFile(from + "/" + child, to + "/" + child).ok());
  }
}

class DBTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "/tmp/railgun_db_test";
    ASSERT_TRUE(DestroyDB(dir_).ok());
    options_.write_buffer_size = 32 * 1024;  // Flush often.
    options_.max_bytes_for_level_base = 128 * 1024;
    options_.target_file_size = 32 * 1024;
    Open();
  }

  void Open() { ASSERT_TRUE(DB::Open(options_, dir_, &db_).ok()); }
  void Reopen() {
    db_.reset();
    Open();
  }

  std::string Get(uint32_t cf, const std::string& key) {
    std::string value;
    Status s = db_->Get(cf, key, &value);
    if (s.IsNotFound()) return "NOT_FOUND";
    if (!s.ok()) return "ERROR:" + s.ToString();
    return value;
  }

  // The database's table files, oldest first.
  std::vector<std::string> TableFiles() {
    std::vector<std::string> children;
    EXPECT_TRUE(Env::Default()->ListDir(dir_, &children).ok());
    std::vector<std::string> tables;
    for (const auto& child : children) {
      if (child.size() > 4 &&
          child.compare(child.size() - 4, 4, ".sst") == 0) {
        tables.push_back(dir_ + "/" + child);
      }
    }
    std::sort(tables.begin(), tables.end());
    return tables;
  }

  // Entries per user key across every table file.
  std::map<std::string, int> VersionsInTables() {
    std::map<std::string, int> versions;
    for (const auto& path : TableFiles()) {
      std::unique_ptr<RandomAccessFile> file;
      EXPECT_TRUE(Env::Default()->NewRandomAccessFile(path, &file).ok());
      std::unique_ptr<Table> table;
      EXPECT_TRUE(Table::Open(std::move(file), &table).ok()) << path;
      if (table == nullptr) continue;
      Table::Iterator iter(table.get());
      for (iter.SeekToFirst(); iter.Valid(); iter.Next()) {
        ++versions[iter.key().ToString()];
      }
      EXPECT_TRUE(iter.status().ok()) << path << ": "
                                      << iter.status().ToString();
    }
    return versions;
  }

  // The corrupt-compaction cases: kKeys keys per L0 table.
  static constexpr int kKeys = 300;
  static std::string TableKey(int table, int i) {
    char buf[32];
    snprintf(buf, sizeof(buf), "t%d-key%04d", table, i);
    return std::string(buf);
  }
  static std::string TableValue(int table, int i) {
    return "value-" + std::to_string(table) + "-" + std::to_string(i) +
           std::string(24, 'x');
  }

  // Writes tables 0-2 as three L0 tables, then flips one byte in the
  // oldest table's first data block.
  void WriteThreeTablesAndDamageTheOldest() {
    options_.write_buffer_size = DBOptions().write_buffer_size;  // Flush below.
    Reopen();
    for (int table = 0; table < 3; ++table) {
      for (int i = 0; i < kKeys; ++i) {
        ASSERT_TRUE(
            db_->Put(0, TableKey(table, i), TableValue(table, i)).ok());
      }
      ASSERT_TRUE(db_->Flush().ok());
    }
    db_.reset();

    const std::vector<std::string> tables = TableFiles();
    ASSERT_EQ(tables.size(), 3u);
    Env* env = Env::Default();
    std::string contents;
    ASSERT_TRUE(ReadFileToString(env, tables[0], &contents).ok());
    contents[16] = static_cast<char>(contents[16] ^ 0x40);  // First block.
    ASSERT_TRUE(WriteStringToFile(env, contents, tables[0]).ok());
    Open();
  }

  DBOptions options_;
  std::string dir_;
  std::unique_ptr<DB> db_;
};

TEST_F(DBTest, PutGetDelete) {
  ASSERT_TRUE(db_->Put(0, "key", "value").ok());
  EXPECT_EQ(Get(0, "key"), "value");
  ASSERT_TRUE(db_->Put(0, "key", "value2").ok());
  EXPECT_EQ(Get(0, "key"), "value2");
  ASSERT_TRUE(db_->Delete(0, "key").ok());
  EXPECT_EQ(Get(0, "key"), "NOT_FOUND");
  EXPECT_EQ(Get(0, "never"), "NOT_FOUND");
}

TEST_F(DBTest, EmptyValueAndBinaryKeys) {
  ASSERT_TRUE(db_->Put(0, "empty", "").ok());
  EXPECT_EQ(Get(0, "empty"), "");
  const std::string binary_key("\x00\x01\xff\x7f", 4);
  ASSERT_TRUE(db_->Put(0, binary_key, "bin").ok());
  EXPECT_EQ(Get(0, binary_key), "bin");
  ASSERT_TRUE(db_->Put(0, "", "empty-key").ok());
  EXPECT_EQ(Get(0, ""), "empty-key");

  // The same keys from tables, before and after an L0 -> L1 compaction.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(db_->Put(0, "filler" + std::to_string(i), "f").ok());
    ASSERT_TRUE(db_->Flush().ok());
    EXPECT_EQ(Get(0, "empty"), "");
    EXPECT_EQ(Get(0, binary_key), "bin");
    EXPECT_EQ(Get(0, ""), "empty-key");
  }
  EXPECT_EQ(db_->GetLevelStats(0)[0].num_files, 0);
}

// The store has one keyspace: kDefaultColumnFamily is the only valid id.
TEST_F(DBTest, UnknownColumnFamilyIsInvalidArgument) {
  constexpr uint32_t kUnknown = 1;
  std::string value;
  EXPECT_TRUE(db_->Put(kUnknown, "k", "v").IsInvalidArgument());
  EXPECT_TRUE(db_->Delete(kUnknown, "k").IsInvalidArgument());
  EXPECT_TRUE(db_->Get(kUnknown, "k", &value).IsInvalidArgument());
  EXPECT_EQ(Get(0, "k"), "NOT_FOUND");
  for (const DB::LevelStats& level : db_->GetLevelStats(kUnknown)) {
    EXPECT_EQ(level.num_files, 0);
  }
}

TEST_F(DBTest, SurvivesFlushAndCompaction) {
  Random64 rng(11);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 30000; ++i) {
    char key[32];
    snprintf(key, sizeof(key), "key%06llu",
             static_cast<unsigned long long>(rng.Uniform(3000)));
    if (rng.OneIn(10)) {
      ASSERT_TRUE(db_->Delete(0, key).ok());
      model.erase(key);
    } else {
      const std::string value = "v" + std::to_string(i);
      ASSERT_TRUE(db_->Put(0, key, value).ok());
      model[key] = value;
    }
  }
  // Verify every model key and a sample of absent keys.
  for (const auto& [key, value] : model) {
    ASSERT_EQ(Get(0, key), value) << key;
  }
  EXPECT_EQ(Get(0, "key999999"), "NOT_FOUND");

  // Compaction actually happened (data beyond L0).
  auto stats = db_->GetLevelStats(0);
  int total_files = 0;
  for (int level = 1; level < static_cast<int>(stats.size()); ++level) {
    total_files += stats[level].num_files;
  }
  EXPECT_GT(total_files, 0);
}

TEST_F(DBTest, RecoversAfterCleanClose) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db_->Put(0, "k" + std::to_string(i),
                         "v" + std::to_string(i)).ok());
  }
  Reopen();  // Destructor flushes the unflushed memtable before closing.
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(Get(0, "k" + std::to_string(i)), "v" + std::to_string(i));
  }
}

TEST_F(DBTest, CheckpointIsConsistentSnapshot) {
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(db_->Put(0, "k" + std::to_string(i), "pre").ok());
  }
  const std::string ckpt_dir = dir_ + "_ckpt";
  ASSERT_TRUE(db_->Checkpoint(ckpt_dir).ok());

  // Writes after the checkpoint must not appear in it.
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(db_->Put(0, "k" + std::to_string(i), "post").ok());
  }

  std::unique_ptr<DB> snapshot;
  ASSERT_TRUE(DB::Open(options_, ckpt_dir, &snapshot).ok());
  std::string value;
  ASSERT_TRUE(snapshot->Get(0, "k0", &value).ok());
  EXPECT_EQ(value, "pre");
  ASSERT_TRUE(db_->Get(0, "k0", &value).ok());
  EXPECT_EQ(value, "post");
  snapshot.reset();
  ASSERT_TRUE(DestroyDB(ckpt_dir).ok());
}

// There is no write-ahead log: the store is durable as of its last
// flush or checkpoint. A crash image (the directory copied while the DB
// is open) holds what was flushed and loses the memtable.
TEST_F(DBTest, CrashImageHoldsLastFlushOrCheckpoint) {
  Env* env = Env::Default();
  auto put_set = [&](const std::string& set) {
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(db_->Put(0, set + std::to_string(i), set).ok());
    }
  };
  put_set("A");
  ASSERT_TRUE(db_->Flush().ok());
  put_set("B");
  const std::string ckpt_dir = dir_ + "_ckpt";
  ASSERT_TRUE(db_->Checkpoint(ckpt_dir).ok());
  put_set("C");
  const std::string image_dir = dir_ + "_crash";
  CopyDir(env, dir_, image_dir);

  for (const std::string& dir : {image_dir, ckpt_dir}) {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options_, dir, &db).ok()) << dir;
    for (int i = 0; i < 100; ++i) {
      std::string value;
      ASSERT_TRUE(db->Get(0, "A" + std::to_string(i), &value).ok()) << dir;
      EXPECT_EQ(value, "A");
      ASSERT_TRUE(db->Get(0, "B" + std::to_string(i), &value).ok()) << dir;
      EXPECT_EQ(value, "B");
      EXPECT_TRUE(db->Get(0, "C" + std::to_string(i), &value).IsNotFound())
          << dir;
    }
  }

  for (const std::string& dir : {dir_, image_dir, ckpt_dir}) {
    std::vector<std::string> children;
    ASSERT_TRUE(env->ListDir(dir, &children).ok());
    for (const auto& child : children) {
      EXPECT_FALSE(child.size() >= 4 &&
                   child.compare(child.size() - 4, 4, ".log") == 0)
          << dir << "/" << child;
    }
  }
  ASSERT_TRUE(DestroyDB(image_dir).ok());
  ASSERT_TRUE(DestroyDB(ckpt_dir).ok());
}

// Every truncation and every single-bit flip of a real MANIFEST fails
// DB::Open with Corruption; none may open and drop or misread keys.
TEST_F(DBTest, CorruptManifestFailsOpen) {
  Env* env = Env::Default();
  std::map<std::string, std::string> model;
  for (int i = 0; i < 200; ++i) {
    const std::string key = "k" + std::to_string(i);
    model[key] = "v" + std::to_string(i);
    ASSERT_TRUE(db_->Put(0, key, model[key]).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  db_.reset();

  std::string manifest_name;
  ASSERT_TRUE(
      ReadFileToString(env, dir_ + "/CURRENT", &manifest_name).ok());
  while (!manifest_name.empty() && manifest_name.back() == '\n') {
    manifest_name.pop_back();
  }
  std::string manifest;
  ASSERT_TRUE(
      ReadFileToString(env, dir_ + "/" + manifest_name, &manifest).ok());

  DBOptions options = options_;
  options.create_if_missing = false;
  const std::string work_dir = dir_ + "_corrupt";
  int cases = 0;
  int opened = 0;
  int wrong = 0;
  auto try_open = [&](const std::string& contents) {
    ++cases;
    CopyDir(env, dir_, work_dir);
    ASSERT_TRUE(
        WriteStringToFile(env, contents, work_dir + "/" + manifest_name)
            .ok());
    std::unique_ptr<DB> db;
    const Status s = DB::Open(options, work_dir, &db);
    if (!s.ok()) {
      EXPECT_TRUE(s.IsCorruption()) << s.ToString();
      return;
    }
    ++opened;
    for (const auto& [key, value] : model) {
      std::string got;
      const Status g = db->Get(0, key, &got);
      if (g.IsNotFound() || (g.ok() && got != value)) {
        ++wrong;
        break;
      }
    }
  };
  for (size_t len = 0; len < manifest.size(); ++len) {
    try_open(manifest.substr(0, len));
  }
  for (size_t bit = 0; bit < manifest.size() * 8; ++bit) {
    std::string flipped = manifest;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    try_open(flipped);
  }
  EXPECT_EQ(opened, 0) << opened << " of " << cases
                       << " corrupt manifests opened";
  EXPECT_EQ(wrong, 0) << wrong << " opened with keys lost or misread";
  ASSERT_TRUE(DestroyDB(work_dir).ok());
}

// A data block that fails its checksum during compaction fails the
// compaction: the inputs and the manifest stay, so every key of the
// damaged table still answers its value or Corruption, never NotFound.
TEST_F(DBTest, CompactionOfACorruptBlockKeepsItsInputs) {
  ASSERT_NO_FATAL_FAILURE(WriteThreeTablesAndDamageTheOldest());
  std::string got;
  EXPECT_TRUE(db_->Get(0, TableKey(0, 0), &got).IsCorruption());

  // The fourth L0 table triggers the compaction that reads the block.
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(db_->Put(0, TableKey(3, i), TableValue(3, i)).ok());
  }
  EXPECT_TRUE(db_->Flush().IsCorruption());
  EXPECT_EQ(db_->GetLevelStats(0)[0].num_files, 4);

  for (bool reopened : {false, true}) {
    int corrupt = 0;
    for (int table = 0; table < 4; ++table) {
      for (int i = 0; i < kKeys; ++i) {
        const Status s = db_->Get(0, TableKey(table, i), &got);
        if (table == 0 && s.IsCorruption()) {
          ++corrupt;
          continue;
        }
        ASSERT_TRUE(s.ok()) << TableKey(table, i) << " reopened=" << reopened
                            << ": " << s.ToString();
        EXPECT_EQ(got, TableValue(table, i));
      }
    }
    EXPECT_GT(corrupt, 0);
    EXPECT_LT(corrupt, kKeys);
    // The failed compaction left the manifest as it was.
    db_.reset();
    Open();
  }
}

// The first compaction error sticks: the damaged input is not re-read
// at every later flush (L0 would grow without bound), every later write
// answers the error, and reads keep answering.
TEST_F(DBTest, FailedCompactionIsStickyAndStopsL0Growth) {
  ASSERT_NO_FATAL_FAILURE(WriteThreeTablesAndDamageTheOldest());

  // Six more flushes; the first compacts and fails on the damaged block.
  int failed_writes = 0;
  for (int table = 3; table < 9; ++table) {
    for (int i = 0; i < kKeys; ++i) {
      const Status s = db_->Put(0, TableKey(table, i), TableValue(table, i));
      if (table == 3) {
        ASSERT_TRUE(s.ok()) << s.ToString();
      } else if (s.IsCorruption()) {
        ++failed_writes;
      }
    }
    if (table > 3) {
      EXPECT_TRUE(db_->Delete(0, TableKey(1, 0)).IsCorruption());
    }
    const Status flush = db_->Flush();
    EXPECT_TRUE(flush.IsCorruption()) << "flush " << table << ": "
                                      << flush.ToString();
    EXPECT_EQ(db_->GetLevelStats(0)[0].num_files, 4) << "flush " << table;
  }
  EXPECT_EQ(failed_writes, 5 * kKeys);  // Every write after the failure.
  EXPECT_TRUE(db_->Checkpoint(dir_ + "_ckpt").IsCorruption());
  EXPECT_EQ(TableFiles().size(), 4u);

  // Keys outside the damaged block still read back.
  std::string got;
  int corrupt = 0;
  for (int table = 0; table < 4; ++table) {
    for (int i = 0; i < kKeys; ++i) {
      const Status s = db_->Get(0, TableKey(table, i), &got);
      if (table == 0 && s.IsCorruption()) {
        ++corrupt;
        continue;
      }
      ASSERT_TRUE(s.ok()) << TableKey(table, i) << ": " << s.ToString();
      EXPECT_EQ(got, TableValue(table, i));
    }
  }
  EXPECT_GT(corrupt, 0);
  EXPECT_LT(corrupt, kKeys);
  EXPECT_EQ(Get(0, TableKey(5, 0)), "NOT_FOUND");
  ASSERT_TRUE(DestroyDB(dir_ + "_ckpt").ok());
}

// A MANIFEST in the layout before the format number (next file number,
// then a last sequence field) fails DB::Open with Corruption instead of
// being misread, even with a valid checksum.
TEST_F(DBTest, ManifestWithoutTheFormatNumberFailsOpen) {
  db_.reset();
  std::string rep;
  PutVarint64(&rep, 5);     // next_file_number
  PutVarint64(&rep, 1234);  // last sequence number
  PutVarint32(&rep, 1);     // next_cf_id
  PutVarint32(&rep, 1);     // one family
  PutVarint32(&rep, 0);
  PutLengthPrefixedSlice(&rep, "default");
  for (int level = 0; level < kNumLevels; ++level) PutVarint32(&rep, 0);
  PutFixed32(&rep, crc32c::Mask(crc32c::Value(rep.data(), rep.size())));

  Env* env = Env::Default();
  ASSERT_TRUE(DestroyDB(dir_).ok());
  ASSERT_TRUE(env->CreateDir(dir_).ok());
  ASSERT_TRUE(WriteStringToFile(env, rep, dir_ + "/MANIFEST-000004").ok());
  ASSERT_TRUE(
      WriteStringToFile(env, "MANIFEST-000004\n", dir_ + "/CURRENT").ok());
  const Status s = DB::Open(options_, dir_, &db_);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

// A well-formed MANIFEST of format 2, which listed column families,
// fails DB::Open with Corruption: directories written before the store
// had one keyspace must be wiped.
TEST_F(DBTest, FormatTwoManifestFailsOpen) {
  db_.reset();
  std::string rep;
  PutVarint32(&rep, 2);  // format
  PutVarint64(&rep, 5);  // next_file_number
  PutVarint32(&rep, 1);  // next_cf_id
  PutVarint32(&rep, 1);  // one family
  PutVarint32(&rep, 0);
  PutLengthPrefixedSlice(&rep, "default");
  for (int level = 0; level < kNumLevels; ++level) PutVarint32(&rep, 0);
  PutFixed32(&rep, crc32c::Mask(crc32c::Value(rep.data(), rep.size())));

  Env* env = Env::Default();
  ASSERT_TRUE(DestroyDB(dir_).ok());
  ASSERT_TRUE(env->CreateDir(dir_).ok());
  ASSERT_TRUE(WriteStringToFile(env, rep, dir_ + "/MANIFEST-000004").ok());
  ASSERT_TRUE(
      WriteStringToFile(env, "MANIFEST-000004\n", dir_ + "/CURRENT").ok());
  const Status s = DB::Open(options_, dir_, &db_);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

// Each key's newest state wins a compaction whatever mix of writes,
// tombstones and rewrites its inputs hold: every history of five steps
// (an L1 file, then four L0 tables, oldest first), each step a put, a
// delete or nothing, is written, compacted in one L0 -> L1 compaction
// and read back.
TEST_F(DBTest, CompactionKeepsTheNewestCopyOfEachKey) {
  constexpr int kSteps = 5;
  constexpr int kHistories = 243;  // 3^kSteps
  options_.write_buffer_size = DBOptions().write_buffer_size;  // Flush below.
  Reopen();
  // op(h, step): 0 nothing, 1 put, 2 delete.
  auto op = [](int history, int step) {
    for (int i = 0; i < step; ++i) history /= 3;
    return history % 3;
  };
  auto key = [](int history) { return "key" + std::to_string(history); };
  auto value = [](int history, int step) {
    return "v" + std::to_string(history) + "@" + std::to_string(step);
  };
  auto expected = [&](int history, int steps) {
    std::string want = "NOT_FOUND";
    for (int step = 0; step < steps; ++step) {
      if (op(history, step) == 1) want = value(history, step);
      if (op(history, step) == 2) want = "NOT_FOUND";
    }
    return want;
  };
  auto write_step = [&](int step) {
    for (int h = 0; h < kHistories; ++h) {
      if (op(h, step) == 1) {
        ASSERT_TRUE(db_->Put(0, key(h), value(h, step)).ok());
      } else if (op(h, step) == 2) {
        ASSERT_TRUE(db_->Delete(0, key(h)).ok());
      }
    }
  };
  auto check = [&](int steps) {
    for (int h = 0; h < kHistories; ++h) {
      ASSERT_EQ(Get(0, key(h)), expected(h, steps))
          << key(h) << " after " << steps << " steps";
    }
  };

  // Step 0 lands in L1: three filler flushes reach the L0 trigger.
  write_step(0);
  ASSERT_TRUE(db_->Flush().ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(db_->Put(0, "filler", std::to_string(i)).ok());
    ASSERT_TRUE(db_->Flush().ok());
  }
  std::vector<DB::LevelStats> stats = db_->GetLevelStats(0);
  ASSERT_EQ(stats[0].num_files, 0);
  ASSERT_EQ(stats[1].num_files, 1);
  check(1);

  // Steps 1-4 are four L0 tables; the fourth flush compacts all of them
  // with the L1 file.
  for (int step = 1; step < kSteps; ++step) {
    write_step(step);
    ASSERT_TRUE(db_->Flush().ok());
    check(step + 1);
  }
  stats = db_->GetLevelStats(0);
  EXPECT_EQ(stats[0].num_files, 0);
  EXPECT_EQ(stats[1].num_files, 1);
  Reopen();
  check(kSteps);
}

TEST_F(DBTest, LargeValuesRoundTrip) {
  const std::string big(512 * 1024, 'B');
  ASSERT_TRUE(db_->Put(0, "big", big).ok());
  ASSERT_TRUE(db_->Flush().ok());
  EXPECT_EQ(Get(0, "big"), big);
}

// --- One memtable entry per key -------------------------------------

TEST_F(DBTest, OverwriteKeepsOneEntryWithTheNewestValue) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db_->Put(0, "k", "v" + std::to_string(i)).ok());
  }
  EXPECT_EQ(Get(0, "k"), "v99");
  ASSERT_TRUE(db_->Flush().ok());
  EXPECT_EQ(Get(0, "k"), "v99");
  const std::map<std::string, int> versions = VersionsInTables();
  ASSERT_EQ(versions.size(), 1u);
  EXPECT_EQ(versions.at("k"), 1);
}

TEST_F(DBTest, DeletedThenPutAgainReadsTheNewValue) {
  ASSERT_TRUE(db_->Put(0, "k", "old").ok());
  ASSERT_TRUE(db_->Delete(0, "k").ok());
  EXPECT_EQ(Get(0, "k"), "NOT_FOUND");
  ASSERT_TRUE(db_->Put(0, "k", "new").ok());
  EXPECT_EQ(Get(0, "k"), "new");
  ASSERT_TRUE(db_->Flush().ok());
  EXPECT_EQ(Get(0, "k"), "new");
}

TEST_F(DBTest, MemtableTombstoneShadowsAnOlderTable) {
  ASSERT_TRUE(db_->Put(0, "k", "in-table").ok());
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->Delete(0, "k").ok());
  EXPECT_EQ(Get(0, "k"), "NOT_FOUND");
  // The flushed tombstone still shadows the older table.
  ASSERT_TRUE(db_->Flush().ok());
  EXPECT_EQ(Get(0, "k"), "NOT_FOUND");
}

TEST(MemTableOneEntryTest, IteratorYieldsKeysInOrderWithTheNewestWrite) {
  MemTable mem;
  mem.Add(kTypeValue, "b", "b1");
  mem.Add(kTypeValue, "a", "a1");
  mem.Add(kTypeValue, "c", "c1");
  mem.Add(kTypeValue, "b", "b2");
  mem.Add(kTypeDeletion, "a", "");
  mem.Add(kTypeValue, "c", "c2");

  std::string scanned;
  MemTable::Iterator iter(&mem);
  for (iter.SeekToFirst(); iter.Valid(); iter.Next()) {
    scanned += iter.key().ToString();
    scanned += iter.type() == kTypeDeletion
                   ? "D;"
                   : "=" + iter.value().ToString() + ";";
  }
  EXPECT_EQ(scanned, "aD;b=b2;c=c2;");
}

TEST(MemTableOneEntryTest, MemoryGrowsWithDistinctKeysNotOverwrites) {
  MemTable mem;
  const std::string value(32, 'v');
  for (int i = 0; i < 100; ++i) {
    mem.Add(kTypeValue, "key" + std::to_string(i), value);
  }
  const size_t after_inserts = mem.ApproximateMemoryUsage();
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 100; ++i) {
      mem.Add(kTypeValue, "key" + std::to_string(i), value);
    }
  }
  EXPECT_EQ(mem.ApproximateMemoryUsage(), after_inserts);
  for (int i = 100; i < 200; ++i) {
    mem.Add(kTypeValue, "key" + std::to_string(i), value);
  }
  EXPECT_GT(mem.ApproximateMemoryUsage(), after_inserts);
}

TEST_F(DBTest, FlushedTableHoldsOneEntryPerKey) {
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(db_->Put(0, "key" + std::to_string(i),
                           std::to_string(round))
                      .ok());
    }
  }
  ASSERT_TRUE(db_->Delete(0, "key3").ok());
  ASSERT_TRUE(db_->Flush().ok());

  const std::map<std::string, int> versions = VersionsInTables();
  ASSERT_EQ(versions.size(), 10u);  // The tombstone of key3 included.
  for (const auto& [key, count] : versions) EXPECT_EQ(count, 1) << key;
  EXPECT_EQ(Get(0, "key3"), "NOT_FOUND");
  EXPECT_EQ(Get(0, "key7"), "19");
}

TEST(DBOpenTest, MissingDbFailsWithoutCreateIfMissing) {
  DBOptions options;
  options.create_if_missing = false;
  std::unique_ptr<DB> db;
  EXPECT_TRUE(
      DB::Open(options, "/tmp/railgun_db_never_created", &db).IsNotFound());
}

}  // namespace
}  // namespace railgun::storage
