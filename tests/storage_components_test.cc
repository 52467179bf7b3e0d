// Unit tests for the LSM store's internal layers: arena, memtable,
// internal keys, write batch, blocks and tables.
#include <gtest/gtest.h>

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
#include "storage/write_batch.h"

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

TEST(WriteBatchTest, IterateReplaysInOrder) {
  WriteBatch batch;
  batch.Put(0, "a", "1");
  batch.Delete(1, "b");
  batch.Put(2, "c", "3");
  EXPECT_EQ(batch.Count(), 3);

  struct Collector : public WriteBatch::Handler {
    std::string log;
    void Put(uint32_t cf, const Slice& k, const Slice& v) override {
      log += "P" + std::to_string(cf) + k.ToString() + v.ToString() + ";";
    }
    void Delete(uint32_t cf, const Slice& k) override {
      log += "D" + std::to_string(cf) + k.ToString() + ";";
    }
  } collector;
  ASSERT_TRUE(batch.Iterate(&collector).ok());
  EXPECT_EQ(collector.log, "P0a1;D1b;P2c3;");
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

}  // namespace
}  // namespace railgun::storage
