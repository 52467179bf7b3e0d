// Unit tests for the LSM store's internal layers: arena, memtable,
// internal keys, blocks and tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <string>

#include "common/arena.h"
#include "common/env.h"
#include "storage/block.h"
#include "storage/block_builder.h"
#include "storage/dbformat.h"
#include "storage/memtable.h"
#include "storage/table.h"
#include "storage/table_builder.h"
#include "storage/table_format.h"

namespace railgun::storage {
namespace {

TEST(ArenaTest, AllocatesAndTracksUsage) {
  Arena arena;
  EXPECT_EQ(arena.MemoryUsage(), 0u);
  char* p = arena.Allocate(100);
  ASSERT_NE(p, nullptr);
  memset(p, 0xab, 100);  // Must be writable.
  EXPECT_GT(arena.MemoryUsage(), 0u);
  // Large allocations get dedicated blocks.
  char* big = arena.Allocate(100000);
  ASSERT_NE(big, nullptr);
  memset(big, 1, 100000);
}

TEST(ArenaTest, AlignedAllocations) {
  Arena arena;
  arena.Allocate(1);  // Misalign the bump pointer.
  char* p = arena.AllocateAligned(64);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % sizeof(void*), 0u);
}

TEST(DbFormatTest, InternalKeyOrdering) {
  // Same user key: higher sequence sorts first.
  std::string k1, k2, k3;
  AppendInternalKey(&k1, "apple", 10, kTypeValue);
  AppendInternalKey(&k2, "apple", 5, kTypeValue);
  AppendInternalKey(&k3, "banana", 1, kTypeValue);
  InternalKeyComparator cmp;
  EXPECT_LT(cmp.Compare(k1, k2), 0);
  EXPECT_LT(cmp.Compare(k2, k3), 0);
  EXPECT_GT(cmp.Compare(k3, k1), 0);
}

TEST(DbFormatTest, ParseRoundTrip) {
  std::string key;
  AppendInternalKey(&key, "user_key", 42, kTypeDeletion);
  ParsedInternalKey parsed;
  ASSERT_TRUE(ParseInternalKey(key, &parsed));
  EXPECT_EQ(parsed.user_key.ToString(), "user_key");
  EXPECT_EQ(parsed.sequence, 42u);
  EXPECT_EQ(parsed.type, kTypeDeletion);
}

TEST(MemTableTest, AddGetWithVersions) {
  MemTable mem;
  EXPECT_TRUE(mem.Empty());
  mem.Add(1, kTypeValue, "k", "v1");
  mem.Add(2, kTypeValue, "k", "v2");
  EXPECT_FALSE(mem.Empty());

  std::string value;
  bool deleted = false;
  // The memtable keeps the newest version only (the store reads at the
  // newest sequence).
  ASSERT_TRUE(mem.Get("k", &value, &deleted));
  EXPECT_FALSE(deleted);
  EXPECT_EQ(value, "v2");

  mem.Add(3, kTypeDeletion, "k", "");
  ASSERT_TRUE(mem.Get("k", &value, &deleted));
  EXPECT_TRUE(deleted);

  EXPECT_FALSE(mem.Get("other", &value, &deleted));
}

TEST(BlockTest, BuildAndIterate) {
  BlockBuilder builder(4);  // Small restart interval to exercise restarts.
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 200; ++i) {
    char key[32];
    snprintf(key, sizeof(key), "key%06d", i);
    std::string ikey;
    AppendInternalKey(&ikey, key, 1, kTypeValue);
    builder.Add(ikey, "value" + std::to_string(i));
    entries[ikey] = "value" + std::to_string(i);
  }
  Block block(builder.Finish().ToString());
  Block::Iter iter(&block);

  iter.SeekToFirst();
  auto expected = entries.begin();
  while (iter.Valid()) {
    ASSERT_NE(expected, entries.end());
    EXPECT_EQ(iter.key().ToString(), expected->first);
    EXPECT_EQ(iter.value().ToString(), expected->second);
    ++expected;
    iter.Next();
  }
  EXPECT_EQ(expected, entries.end());

  // Seek to an existing key and to a key between entries.
  std::string target;
  AppendInternalKey(&target, "key000100", 1, kTypeValue);
  iter.Seek(target);
  ASSERT_TRUE(iter.Valid());
  EXPECT_EQ(iter.value().ToString(), "value100");

  std::string between;
  AppendInternalKey(&between, "key0000995", kMaxSequenceNumber, kTypeValue);
  iter.Seek(between);
  ASSERT_TRUE(iter.Valid());
  EXPECT_EQ(iter.value().ToString(), "value100");  // First key >= target.
}

// A restart count larger than the block fits fails as Corruption
// instead of reading restart offsets past the block.
TEST(BlockTest, RestartCountPastTheBlockIsCorruption) {
  std::string contents(4, '\0');
  PutFixed32(&contents, 1000);
  Block block(contents);
  Block::Iter iter(&block);
  iter.SeekToFirst();
  EXPECT_FALSE(iter.Valid());
  EXPECT_TRUE(iter.status().IsCorruption()) << iter.status().ToString();
}

TEST(TableTest, BuildWriteReadBack) {
  Env* env = Env::Default();
  const std::string path = "/tmp/railgun_table_test.sst";
  (void)env->RemoveFile(path);

  std::map<std::string, std::string> entries;
  {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env->NewWritableFile(path, &file).ok());
    TableBuilderOptions opts;
    opts.block_size = 512;  // Many blocks.
    TableBuilder builder(opts, file.get());
    for (int i = 0; i < 1000; ++i) {
      char key[32];
      snprintf(key, sizeof(key), "key%06d", i);
      std::string ikey;
      AppendInternalKey(&ikey, key, 7, kTypeValue);
      const std::string value = "payload-" + std::to_string(i * 3);
      builder.Add(ikey, value);
      entries[ikey] = value;
    }
    ASSERT_TRUE(builder.Finish().ok());
    EXPECT_EQ(builder.NumEntries(), 1000u);
    ASSERT_TRUE(file->Close().ok());
  }

  std::unique_ptr<RandomAccessFile> file;
  ASSERT_TRUE(env->NewRandomAccessFile(path, &file).ok());
  std::unique_ptr<Table> table;
  ASSERT_TRUE(Table::Open(std::move(file), &table).ok());

  // Point lookups.
  for (int i : {0, 1, 499, 998, 999}) {
    char key[32];
    snprintf(key, sizeof(key), "key%06d", i);
    std::string target;
    AppendInternalKey(&target, key, kMaxSequenceNumber, kTypeValue);
    std::string found_key, found_value;
    ASSERT_TRUE(table->InternalGet(target, &found_key, &found_value).ok());
    EXPECT_EQ(found_value, "payload-" + std::to_string(i * 3));
  }

  // Full scan matches insertion order.
  Table::Iterator iter(table.get());
  iter.SeekToFirst();
  auto expected = entries.begin();
  while (iter.Valid()) {
    ASSERT_NE(expected, entries.end());
    EXPECT_EQ(iter.key().ToString(), expected->first);
    EXPECT_EQ(iter.value().ToString(), expected->second);
    ++expected;
    iter.Next();
  }
  EXPECT_EQ(expected, entries.end());
  (void)env->RemoveFile(path);
}

TEST(TableTest, OpenRejectsGarbage) {
  Env* env = Env::Default();
  const std::string path = "/tmp/railgun_table_garbage.sst";
  ASSERT_TRUE(
      WriteStringToFile(env, std::string(500, 'g'), path).ok());
  std::unique_ptr<RandomAccessFile> file;
  ASSERT_TRUE(env->NewRandomAccessFile(path, &file).ok());
  std::unique_ptr<Table> table;
  EXPECT_FALSE(Table::Open(std::move(file), &table).ok());
  (void)env->RemoveFile(path);
}

// A table file held in memory.
class StringFile : public RandomAccessFile {
 public:
  explicit StringFile(std::string contents) : contents_(std::move(contents)) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    if (offset >= contents_.size()) {
      *result = Slice(scratch, 0);
      return Status::OK();
    }
    n = std::min<uint64_t>(n, contents_.size() - offset);
    memcpy(scratch, contents_.data() + offset, n);
    *result = Slice(scratch, n);
    return Status::OK();
  }
  uint64_t Size() const override { return contents_.size(); }

 private:
  std::string contents_;
};

Status OpenTable(const std::string& contents, std::unique_ptr<Table>* table) {
  return Table::Open(std::make_unique<StringFile>(contents), table);
}

// The footer carries no checksum: an index handle stating more bytes
// than the file holds must fail as Corruption before anything is
// allocated, including a size whose trailer arithmetic would wrap.
TEST(TableTest, OpenRejectsAnIndexHandlePastTheFile) {
  for (const uint64_t size :
       {uint64_t{1000000000000}, ~uint64_t{0} - kBlockTrailerSize + 3}) {
    std::string contents(100, 'd');
    Footer footer;
    footer.index_handle.offset = 0;
    footer.index_handle.size = size;
    footer.EncodeTo(&contents);
    std::unique_ptr<Table> table;
    const Status s = OpenTable(contents, &table);
    EXPECT_TRUE(s.IsCorruption()) << size << ": " << s.ToString();
  }
}

// Every truncation and every single-bit flip of a several-block table:
// Open, a full scan and a lookup of every key each return the original
// entries or Corruption, never a wrong or missing entry.
class TableCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Env* env = Env::Default();
    const std::string path = "/tmp/railgun_table_corruption_test.sst";
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env->NewWritableFile(path, &file).ok());
    TableBuilderOptions opts;
    opts.block_size = 128;
    TableBuilder builder(opts, file.get());
    for (int i = 0; i < 40; ++i) {
      char key[16];
      snprintf(key, sizeof(key), "key%04d", i);
      std::string ikey;
      AppendInternalKey(&ikey, key, 7, i % 5 == 0 ? kTypeDeletion : kTypeValue);
      const std::string value = "value-" + std::to_string(i * 7);
      builder.Add(ikey, value);
      entries_.emplace(ikey, value);
    }
    ASSERT_TRUE(builder.Finish().ok());
    ASSERT_TRUE(file->Close().ok());
    ASSERT_TRUE(ReadFileToString(env, path, &contents_).ok());
    ASSERT_TRUE(env->RemoveFile(path).ok());
  }

  // The first way `contents` departs from the contract, or "".
  std::string Check(const std::string& contents) {
    std::unique_ptr<Table> table;
    const Status open = OpenTable(contents, &table);
    if (!open.ok()) {
      return open.IsCorruption() ? "" : "open: " + open.ToString();
    }
    Table::Iterator iter(table.get());
    auto expected = entries_.begin();
    for (iter.SeekToFirst(); iter.Valid(); iter.Next(), ++expected) {
      if (expected == entries_.end()) return "scan: extra entry";
      if (iter.key() != Slice(expected->first) ||
          iter.value() != Slice(expected->second)) {
        return "scan: wrong entry";
      }
    }
    if (iter.status().ok() && expected != entries_.end()) {
      return "scan: entries missing with an OK status";
    }
    if (!iter.status().ok() && !iter.status().IsCorruption()) {
      return "scan: " + iter.status().ToString();
    }
    for (const auto& [ikey, value] : entries_) {
      std::string found_key, found_value;
      const Status s = table->InternalGet(ikey, &found_key, &found_value);
      if (s.ok() && (found_key != ikey || found_value != value)) {
        return "get: wrong entry";
      }
      if (!s.ok() && !s.IsCorruption()) return "get: " + s.ToString();
    }
    return "";
  }

  std::map<std::string, std::string> entries_;
  std::string contents_;
};

TEST_F(TableCorruptionTest, IntactTableReadsBack) {
  EXPECT_EQ(Check(contents_), "");
  // Several data blocks, so a damaged block leaves others readable.
  EXPECT_GT(contents_.size(), 4 * 128u);
}

TEST_F(TableCorruptionTest, EveryTruncationIsCorruption) {
  for (size_t len = 0; len < contents_.size(); ++len) {
    std::unique_ptr<Table> table;
    const Status s = OpenTable(contents_.substr(0, len), &table);
    EXPECT_TRUE(s.IsCorruption()) << "length " << len << ": " << s.ToString();
  }
}

TEST_F(TableCorruptionTest, EverySingleBitFlipReadsBackOrIsCorruption) {
  int failures = 0;
  std::string first;
  for (size_t bit = 0; bit < contents_.size() * 8; ++bit) {
    std::string flipped = contents_;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    const std::string problem = Check(flipped);
    if (!problem.empty() && failures++ == 0) {
      first = "bit " + std::to_string(bit) + ": " + problem;
    }
  }
  EXPECT_EQ(failures, 0) << "first: " << first;
}

}  // namespace
}  // namespace railgun::storage
