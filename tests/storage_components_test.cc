// Unit tests for the LSM store's internal layers: arena, memtable,
// entry values, blocks and tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/coding.h"
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

TEST(DbFormatTest, DecodesValuesAndTombstones) {
  ValueType type;
  Slice value;
  ASSERT_TRUE(DecodeEntryValue(Slice("\x01payload", 8), &type, &value).ok());
  EXPECT_EQ(type, kTypeValue);
  EXPECT_EQ(value.ToString(), "payload");
  ASSERT_TRUE(DecodeEntryValue(Slice("\x00", 1), &type, &value).ok());
  EXPECT_EQ(type, kTypeDeletion);
  EXPECT_TRUE(value.empty());
}

TEST(DbFormatTest, EmptySlotAndBadTypeAreCorruption) {
  ValueType type;
  Slice value;
  EXPECT_TRUE(DecodeEntryValue(Slice(), &type, &value).IsCorruption());
  for (const char bad : {'\x02', '\x7f', '\xff'}) {
    const std::string stored = std::string(1, bad) + "v";
    EXPECT_TRUE(DecodeEntryValue(stored, &type, &value).IsCorruption())
        << static_cast<int>(bad);
  }
}

TEST(MemTableTest, AddGetKeepsTheNewestWrite) {
  MemTable mem;
  EXPECT_TRUE(mem.Empty());
  mem.Add(kTypeValue, "k", "v1");
  mem.Add(kTypeValue, "k", "v2");
  EXPECT_FALSE(mem.Empty());

  std::string value;
  // The memtable keeps the newest write only (the store has no
  // snapshots).
  ASSERT_EQ(mem.Get("k", &value), Lookup::kFound);
  EXPECT_EQ(value, "v2");

  mem.Add(kTypeDeletion, "k", "");
  EXPECT_EQ(mem.Get("k", &value), Lookup::kDeleted);
  EXPECT_EQ(mem.Get("other", &value), Lookup::kAbsent);
}

TEST(BlockTest, BuildAndIterate) {
  BlockBuilder builder(4);  // Small restart interval to exercise restarts.
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 200; ++i) {
    char key[32];
    snprintf(key, sizeof(key), "key%06d", i);
    builder.Add(key, "value" + std::to_string(i));
    entries[key] = "value" + std::to_string(i);
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
  iter.Seek("key000100");
  ASSERT_TRUE(iter.Valid());
  EXPECT_EQ(iter.value().ToString(), "value100");

  iter.Seek("key0000995");
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
      const std::string value = "payload-" + std::to_string(i * 3);
      builder.Add(key, kTypeValue, value);
      entries[key] = value;
    }
    ASSERT_TRUE(builder.Finish().ok());
    EXPECT_EQ(builder.NumEntries(), 1000u);
    ASSERT_TRUE(file->Close().ok());
  }

  std::unique_ptr<RandomAccessFile> file;
  ASSERT_TRUE(env->NewRandomAccessFile(path, &file).ok());
  std::unique_ptr<Table> table;
  ASSERT_TRUE(Table::Open(std::move(file), &table).ok());

  // Point lookups, including keys before, between and after entries.
  for (int i : {0, 1, 499, 998, 999}) {
    char key[32];
    snprintf(key, sizeof(key), "key%06d", i);
    std::string value;
    auto found = table->Get(key, &value);
    ASSERT_TRUE(found.ok()) << found.status().ToString();
    EXPECT_EQ(found.value(), Lookup::kFound);
    EXPECT_EQ(value, "payload-" + std::to_string(i * 3));
  }
  for (const char* absent : {"a", "key0004995", "key001000", "z"}) {
    std::string value;
    auto found = table->Get(absent, &value);
    ASSERT_TRUE(found.ok()) << found.status().ToString();
    EXPECT_EQ(found.value(), Lookup::kAbsent) << absent;
  }

  // Full scan matches insertion order.
  Table::Iterator iter(table.get());
  iter.SeekToFirst();
  auto expected = entries.begin();
  while (iter.Valid()) {
    ASSERT_NE(expected, entries.end());
    EXPECT_EQ(iter.key().ToString(), expected->first);
    EXPECT_EQ(iter.type(), kTypeValue);
    EXPECT_EQ(iter.value().ToString(), expected->second);
    ++expected;
    iter.Next();
  }
  EXPECT_EQ(expected, entries.end());
  EXPECT_TRUE(iter.status().ok()) << iter.status().ToString();
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

// A writable file held in memory.
class StringSink : public WritableFile {
 public:
  Status Append(const Slice& data) override {
    contents_.append(data.data(), data.size());
    return Status::OK();
  }
  Status Flush() override { return Status::OK(); }
  Status Sync() override { return Status::OK(); }
  Status Close() override { return Status::OK(); }
  uint64_t Size() const override { return contents_.size(); }
  const std::string& contents() const { return contents_; }

 private:
  std::string contents_;
};

struct Entry {
  std::string key;
  ValueType type;
  std::string value;
};

// The bytes of a table of `entries` (sorted by key) with small blocks.
std::string BuildTable(const std::vector<Entry>& entries) {
  StringSink sink;
  TableBuilderOptions opts;
  opts.block_size = 128;
  TableBuilder builder(opts, &sink);
  for (const Entry& e : entries) builder.Add(e.key, e.type, e.value);
  EXPECT_TRUE(builder.Finish().ok());
  return sink.contents();
}

// The fixture's 40 keys: every fifth a tombstone, the rest values.
std::vector<Entry> CorruptionTestEntries() {
  std::vector<Entry> entries;
  for (int i = 0; i < 40; ++i) {
    char key[16];
    snprintf(key, sizeof(key), "key%04d", i);
    if (i % 5 == 0) {
      entries.push_back({key, kTypeDeletion, ""});
    } else {
      entries.push_back({key, kTypeValue, "value-" + std::to_string(i * 7)});
    }
  }
  return entries;
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
    entries_ = CorruptionTestEntries();
    contents_ = BuildTable(entries_);
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
      if (iter.key() != Slice(expected->key) ||
          iter.type() != expected->type ||
          iter.value() != Slice(expected->value)) {
        return "scan: wrong entry";
      }
    }
    if (iter.status().ok() && expected != entries_.end()) {
      return "scan: entries missing with an OK status";
    }
    if (!iter.status().ok() && !iter.status().IsCorruption()) {
      return "scan: " + iter.status().ToString();
    }
    for (const Entry& e : entries_) {
      std::string value;
      const StatusOr<Lookup> found = table->Get(e.key, &value);
      if (!found.ok()) {
        if (!found.status().IsCorruption()) {
          return "get: " + found.status().ToString();
        }
        continue;
      }
      const Lookup want =
          e.type == kTypeDeletion ? Lookup::kDeleted : Lookup::kFound;
      if (found.value() != want ||
          (want == Lookup::kFound && value != e.value)) {
        return "get: wrong entry";
      }
    }
    return "";
  }

  std::vector<Entry> entries_;
  std::string contents_;
};

// Entries in a table's index block: one per data block.
int DataBlocks(const std::string& contents) {
  Slice footer_input(contents.data() + contents.size() - Footer::kEncodedLength,
                     Footer::kEncodedLength);
  Footer footer;
  EXPECT_TRUE(footer.DecodeFrom(&footer_input).ok());
  StringFile file(contents);
  std::string index;
  EXPECT_TRUE(ReadBlockContents(&file, footer.index_handle, &index).ok());
  Block block(std::move(index));
  Block::Iter iter(&block);
  int blocks = 0;
  for (iter.SeekToFirst(); iter.Valid(); iter.Next()) ++blocks;
  return blocks;
}

TEST_F(TableCorruptionTest, IntactTableReadsBack) {
  EXPECT_EQ(Check(contents_), "");
  // Several data blocks, so a damaged block leaves others readable.
  EXPECT_GE(DataBlocks(contents_), 4);
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

// A block whose checksum holds but whose entry has a type byte that is
// neither a value nor a tombstone: the scan stops there with Corruption,
// a lookup of that key answers Corruption, and keys in other blocks
// still read back.
TEST_F(TableCorruptionTest, BadTypeByteInAValidBlockIsCorruption) {
  constexpr size_t kBad = 33;  // Past the first block.
  std::vector<Entry> entries = entries_;
  entries[kBad].type = static_cast<ValueType>(7);
  std::unique_ptr<Table> table;
  ASSERT_TRUE(OpenTable(BuildTable(entries), &table).ok());

  Table::Iterator iter(table.get());
  size_t scanned = 0;
  for (iter.SeekToFirst(); iter.Valid(); iter.Next()) {
    EXPECT_EQ(iter.key().ToString(), entries[scanned].key);
    ++scanned;
  }
  EXPECT_EQ(scanned, kBad);
  EXPECT_TRUE(iter.status().IsCorruption()) << iter.status().ToString();

  std::string value;
  EXPECT_TRUE(table->Get(entries[kBad].key, &value).status().IsCorruption());
  const StatusOr<Lookup> first = table->Get(entries[1].key, &value);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value(), Lookup::kFound);
  EXPECT_EQ(value, entries[1].value);
}

}  // namespace
}  // namespace railgun::storage
