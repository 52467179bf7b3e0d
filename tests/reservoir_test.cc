// Tests for the event reservoir: chunking, serialization, iteration,
// dedup, out-of-order handling, caching/prefetch, recovery, truncation,
// schema evolution and replica copy.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/coding.h"
#include "common/env.h"
#include "reservoir/reservoir.h"
#include "reservoir/segment.h"

namespace railgun::reservoir {
namespace {

Event MakeEvent(Micros ts, uint64_t id, const std::string& card,
                double amount) {
  Event e;
  e.timestamp = ts;
  e.id = id;
  e.offset = id;
  e.values = {FieldValue(card), FieldValue(amount)};
  return e;
}

class ReservoirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "/tmp/railgun_reservoir_test";
    ASSERT_TRUE(Env::Default()->RemoveDirRecursive(dir_).ok());
    options_.chunk_target_bytes = 1024;
    options_.segment_max_bytes = 16 * 1024;
    options_.cache_capacity = 8;
    options_.async_io = false;  // Deterministic for unit tests.
    options_.schema_fields = {{"card", FieldType::kString},
                              {"amount", FieldType::kDouble}};
  }

  void Open() {
    reservoir_ = std::make_unique<Reservoir>(options_, dir_);
    ASSERT_TRUE(reservoir_->Open().ok());
  }

  std::string dir_;
  ReservoirOptions options_;
  std::unique_ptr<Reservoir> reservoir_;
};

TEST_F(ReservoirTest, AppendAndIterateInOrder) {
  Open();
  const int n = 1000;
  for (int i = 0; i < n; ++i) {
    bool accepted = false;
    ASSERT_TRUE(reservoir_
                    ->Append(MakeEvent(i * 1000, i + 1, "c", i * 1.0),
                             &accepted)
                    .ok());
    EXPECT_TRUE(accepted);
  }
  auto iter = reservoir_->NewIterator();
  int count = 0;
  Micros prev = -1;
  while (!iter->AtEnd()) {
    EXPECT_GE(iter->event().timestamp, prev);
    prev = iter->event().timestamp;
    ++count;
    iter->Advance();
  }
  EXPECT_EQ(count, n);
  EXPECT_GT(reservoir_->stats().chunks_closed, 1u);
}

TEST_F(ReservoirTest, DeduplicatesByIdAgainstInMemoryChunks) {
  Open();
  bool accepted = false;
  ASSERT_TRUE(
      reservoir_->Append(MakeEvent(1000, 42, "c", 1.0), &accepted).ok());
  EXPECT_TRUE(accepted);
  ASSERT_TRUE(
      reservoir_->Append(MakeEvent(2000, 42, "c", 2.0), &accepted).ok());
  EXPECT_FALSE(accepted);  // Same id, dropped.
  EXPECT_EQ(reservoir_->stats().dedup_drops, 1u);
}

TEST_F(ReservoirTest, LateEventRewrittenByDefault) {
  Open();
  bool accepted;
  // Fill enough to close at least one chunk.
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(reservoir_
                    ->Append(MakeEvent(i * 10000, i + 1, "card", 1.0),
                             &accepted)
                    .ok());
  }
  ASSERT_GT(reservoir_->stats().chunks_closed, 0u);
  // An event far in the past (before the last closed chunk).
  ASSERT_TRUE(
      reservoir_->Append(MakeEvent(5, 9999, "late", 1.0), &accepted).ok());
  EXPECT_TRUE(accepted);
  EXPECT_EQ(reservoir_->stats().late_rewrites, 1u);
}

TEST_F(ReservoirTest, LateEventDiscardedUnderDiscardPolicy) {
  options_.late_policy = LateEventPolicy::kDiscard;
  Open();
  bool accepted;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(reservoir_
                    ->Append(MakeEvent(i * 10000, i + 1, "card", 1.0),
                             &accepted)
                    .ok());
  }
  ASSERT_TRUE(
      reservoir_->Append(MakeEvent(5, 9999, "late", 1.0), &accepted).ok());
  EXPECT_FALSE(accepted);
  EXPECT_EQ(reservoir_->stats().late_drops, 1u);
}

TEST_F(ReservoirTest, GraceWindowAcceptsLateEventsIntoTransitionChunks) {
  options_.ooo_grace = 60 * kMicrosPerSecond;
  Open();
  bool accepted;
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(reservoir_
                    ->Append(MakeEvent(i * kMicrosPerSecond, i + 1, "c", 1.0),
                             &accepted)
                    .ok());
  }
  const auto before = reservoir_->stats();
  ASSERT_GT(before.chunks_closed, 0u);
  // A late event inside the grace range (older than the open chunk but
  // covered by a transition chunk) lands there instead of rewriting.
  ASSERT_TRUE(reservoir_
                  ->Append(MakeEvent(350 * kMicrosPerSecond, 10001, "late",
                                     2.0),
                           &accepted)
                  .ok());
  EXPECT_TRUE(accepted);
  EXPECT_GT(reservoir_->stats().late_transition_adds, 0u);
  EXPECT_EQ(reservoir_->stats().late_rewrites, before.late_rewrites);
}

TEST_F(ReservoirTest, TransitionChunkEventsSortedOnClose) {
  options_.ooo_grace = 30 * kMicrosPerSecond;
  Open();
  bool accepted;
  // Interleave timestamps so late events must be re-sorted on close.
  for (int i = 0; i < 2000; ++i) {
    const Micros jitter = (i % 7) * 100;
    ASSERT_TRUE(
        reservoir_
            ->Append(MakeEvent(i * 10000 - jitter, i + 1, "c", 1.0),
                     &accepted)
            .ok());
  }
  auto iter = reservoir_->NewIterator();
  Micros prev = INT64_MIN;
  int out_of_order = 0;
  int total = 0;
  while (!iter->AtEnd()) {
    if (iter->event().timestamp < prev) ++out_of_order;
    // Only closed chunks guarantee order; tolerate the open tail.
    prev = iter->event().timestamp;
    ++total;
    iter->Advance();
  }
  EXPECT_GT(total, 1900);
  // Closed chunks are sorted; the open chunk may hold a short
  // out-of-order tail, bounded by one chunk's worth of events.
  EXPECT_LT(out_of_order, 60);
}

TEST_F(ReservoirTest, SeekByTimestamp) {
  Open();
  bool accepted;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(reservoir_
                    ->Append(MakeEvent(i * 1000, i + 1, "c", 1.0), &accepted)
                    .ok());
  }
  auto iter = reservoir_->NewIteratorAt(500000);
  ASSERT_FALSE(iter->AtEnd());
  EXPECT_EQ(iter->event().timestamp, 500000);

  auto past_end = reservoir_->NewIteratorAt(10 * kMicrosPerDay);
  EXPECT_TRUE(past_end->AtEnd());

  auto from_zero = reservoir_->NewIteratorAt(0);
  ASSERT_FALSE(from_zero->AtEnd());
  EXPECT_EQ(from_zero->event().timestamp, 0);
}

TEST_F(ReservoirTest, IteratorPositionRestore) {
  Open();
  bool accepted;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(reservoir_
                    ->Append(MakeEvent(i * 1000, i + 1, "c", 1.0), &accepted)
                    .ok());
  }
  auto iter = reservoir_->NewIterator();
  for (int i = 0; i < 357; ++i) iter->Advance();
  const Micros expected_ts = iter->event().timestamp;
  auto restored = reservoir_->NewIteratorAtPosition(iter->chunk_seq(),
                                                    iter->index());
  ASSERT_FALSE(restored->AtEnd());
  EXPECT_EQ(restored->event().timestamp, expected_ts);
}

TEST_F(ReservoirTest, RecoveryAfterReopenKeepsPersistedEvents) {
  Open();
  bool accepted;
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(reservoir_
                    ->Append(MakeEvent(i * 1000, i + 1, "c", 1.0), &accepted)
                    .ok());
  }
  const uint64_t persisted = reservoir_->LastPersistedOffset();
  EXPECT_GT(persisted, 0u);
  reservoir_.reset();

  Open();
  EXPECT_EQ(reservoir_->LastPersistedOffset(), persisted);
  auto iter = reservoir_->NewIterator();
  uint64_t count = 0;
  while (!iter->AtEnd()) {
    ++count;
    iter->Advance();
  }
  EXPECT_EQ(count, persisted);  // Offsets are 1-based ids here.
}

TEST_F(ReservoirTest, EagerPrefetchKeepsSyncLoadsLowUnderPacedReads) {
  options_.async_io = true;
  options_.cache_capacity = 4;
  Open();
  bool accepted;
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(reservoir_
                    ->Append(MakeEvent(i * 1000, i + 1, "c", 1.0), &accepted)
                    .ok());
  }
  ASSERT_TRUE(reservoir_->Sync().ok());

  auto iter = reservoir_->NewIterator();
  int count = 0;
  while (!iter->AtEnd()) {
    ++count;
    iter->Advance();
    // Paced reader: gives the prefetcher time, as a real 500 ev/s
    // workload would.
    if (count % 20 == 0) MonotonicClock::Default()->SleepMicros(300);
  }
  EXPECT_EQ(count, 3000);
  const auto stats = reservoir_->stats();
  EXPECT_GT(stats.prefetches_issued, 0u);
  // With prefetch, most chunk transitions should not be synchronous
  // loads.
  EXPECT_LT(stats.sync_chunk_loads, stats.chunks_written);
}

TEST_F(ReservoirTest, TruncateBeforeDropsOldSegments) {
  Open();
  bool accepted;
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(reservoir_
                    ->Append(MakeEvent(i * 1000, i + 1, "c", 1.0), &accepted)
                    .ok());
  }
  std::vector<std::string> before;
  ASSERT_TRUE(Env::Default()->ListDir(dir_, &before).ok());
  ASSERT_TRUE(reservoir_->TruncateBefore(4000 * 1000).ok());
  std::vector<std::string> after;
  ASSERT_TRUE(Env::Default()->ListDir(dir_, &after).ok());
  EXPECT_LT(after.size(), before.size());

  // Iterating from the start now begins at a later event.
  auto iter = reservoir_->NewIterator();
  ASSERT_FALSE(iter->AtEnd());
  EXPECT_GT(iter->event().timestamp, 0);
}

TEST_F(ReservoirTest, SchemaEvolutionOldChunksStillDecode) {
  Open();
  bool accepted;
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(reservoir_
                    ->Append(MakeEvent(i * 1000, i + 1, "c", 1.0), &accepted)
                    .ok());
  }
  reservoir_.reset();

  // Reopen with an extended schema.
  options_.schema_fields = {{"card", FieldType::kString},
                            {"amount", FieldType::kDouble},
                            {"country", FieldType::kString}};
  Open();
  EXPECT_EQ(reservoir_->schema()->num_fields(), 3u);

  Event e;
  e.timestamp = 600 * 1000;
  e.id = 10001;
  e.offset = 10001;
  e.values = {FieldValue("c"), FieldValue(9.0), FieldValue("PT")};
  ASSERT_TRUE(reservoir_->Append(e, &accepted).ok());

  // Old events (2 fields) and new events (3 fields) both iterate.
  auto iter = reservoir_->NewIterator();
  int old_schema = 0, new_schema = 0;
  while (!iter->AtEnd()) {
    if (iter->event().values.size() == 2) {
      ++old_schema;
    } else {
      ++new_schema;
    }
    iter->Advance();
  }
  EXPECT_GT(old_schema, 400);
  EXPECT_EQ(new_schema, 1);
}

TEST_F(ReservoirTest, CopyMissingToBootstrapsAReplica) {
  Open();
  bool accepted;
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(reservoir_
                    ->Append(MakeEvent(i * 1000, i + 1, "c", 1.0), &accepted)
                    .ok());
  }
  const std::string replica_dir = dir_ + "_replica";
  ASSERT_TRUE(Env::Default()->RemoveDirRecursive(replica_dir).ok());
  ASSERT_TRUE(reservoir_->CopyMissingTo(replica_dir).ok());

  Reservoir replica(options_, replica_dir);
  ASSERT_TRUE(replica.Open().ok());
  EXPECT_EQ(replica.LastPersistedOffset(),
            reservoir_->LastPersistedOffset());

  // Append more and delta-copy: only new segments transfer.
  for (int i = 2000; i < 4000; ++i) {
    ASSERT_TRUE(reservoir_
                    ->Append(MakeEvent(i * 1000, i + 1, "c", 1.0), &accepted)
                    .ok());
  }
  ASSERT_TRUE(reservoir_->CopyMissingTo(replica_dir).ok());
  Reservoir replica2(options_, replica_dir);
  ASSERT_TRUE(replica2.Open().ok());
  EXPECT_EQ(replica2.LastPersistedOffset(),
            reservoir_->LastPersistedOffset());
}

TEST_F(ReservoirTest, ChunkSerializationRoundTrip) {
  Schema schema(1, {{"card", FieldType::kString},
                    {"amount", FieldType::kDouble}});
  Chunk chunk(7, 1);
  for (int i = 0; i < 100; ++i) {
    chunk.Add(MakeEvent(1000 + i, i + 1, "card" + std::to_string(i), i * 2.5));
  }
  chunk.Close();
  std::string payload;
  chunk.SerializeTo(schema, &payload);

  std::unique_ptr<Chunk> decoded;
  ASSERT_TRUE(Chunk::Deserialize(7, schema, payload, &decoded).ok());
  ASSERT_EQ(decoded->num_events(), 100u);
  EXPECT_EQ(decoded->min_timestamp(), chunk.min_timestamp());
  EXPECT_EQ(decoded->max_timestamp(), chunk.max_timestamp());
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(decoded->event(i).id, chunk.event(i).id);
    EXPECT_EQ(decoded->event(i).values[0].as_string(),
              chunk.event(i).values[0].as_string());
    EXPECT_EQ(decoded->event(i).values[1].as_double(),
              chunk.event(i).values[1].as_double());
  }
}

// Robustness of the on-disk chunk record: one real chunk goes through
// SegmentWriter, then every truncation and every single-bit flip of its
// record is read back through SegmentReader. A damaged record must come
// back as a typed Corruption, or be dropped whole by a recovery scan as
// a torn tail: never a crash, never a read outside the record (ASan
// builds check that) and never a chunk with other events.
class SegmentRecordTest : public ::testing::Test {
 protected:
  static constexpr ChunkSeq kSeq = 7;
  static constexpr size_t kEvents = 20;

  void SetUp() override {
    dir_ = "/tmp/railgun_segment_record_test";
    ASSERT_TRUE(Env::Default()->RemoveDirRecursive(dir_).ok());
    Chunk chunk(kSeq, schema_.id());
    for (size_t i = 0; i < kEvents; ++i) {
      chunk.Add(MakeEvent(1000 + static_cast<Micros>(i), i + 1,
                          "card" + std::to_string(i % 3), 2.5 * i));
    }
    chunk.Close();
    std::string payload;
    chunk.SerializeTo(schema_, &payload);
    SegmentWriter writer(Env::Default(), dir_, 1 << 20);
    ASSERT_TRUE(writer.Open(0, 0).ok());
    ASSERT_TRUE(writer.Append(chunk, payload, &location_).ok());
    ASSERT_TRUE(writer.Sync().ok());
    ASSERT_TRUE(ReadFileToString(Env::Default(), Segment(), &record_).ok());
    ASSERT_EQ(record_.size(), kHeaderSize + payload.size());
  }

  std::string Segment() const {
    return SegmentFileName(dir_, location_.file_number);
  }

  // Replaces the segment's contents with `bytes` and reads the record
  // back both ways: by its known location, and by a recovery scan.
  void ReadBack(const std::string& bytes, Status* read, Status* scan,
                std::vector<ChunkLocation>* scanned) {
    ASSERT_TRUE(WriteStringToFile(Env::Default(), bytes, Segment()).ok());
    SegmentReader reader(Env::Default(), dir_);
    std::string payload;
    *read = reader.ReadChunkPayload(location_, &payload);
    if (read->ok()) {
      // Only an intact chunk may come back.
      std::unique_ptr<Chunk> chunk;
      ASSERT_TRUE(Chunk::Deserialize(kSeq, schema_, payload, &chunk).ok());
      EXPECT_EQ(chunk->num_events(), kEvents);
    }
    uint64_t last_file_number = 0, last_file_size = 0;
    *scan = reader.ScanAll(scanned, &last_file_number, &last_file_size);
  }

  // payload_size (4) | masked crc (4) | chunk seq (8).
  static constexpr size_t kHeaderSize = 16;
  Schema schema_{1, {{"card", FieldType::kString},
                     {"amount", FieldType::kDouble}}};
  std::string dir_;
  ChunkLocation location_;
  std::string record_;
};

TEST_F(SegmentRecordTest, IntactRecordReadsBack) {
  Status read, scan;
  std::vector<ChunkLocation> scanned;
  ReadBack(record_, &read, &scan, &scanned);
  EXPECT_TRUE(read.ok()) << read.ToString();
  ASSERT_TRUE(scan.ok()) << scan.ToString();
  ASSERT_EQ(scanned.size(), 1u);
  EXPECT_EQ(scanned[0].seq, kSeq);
  EXPECT_EQ(scanned[0].num_events, kEvents);
  EXPECT_EQ(scanned[0].max_offset, location_.max_offset);
}

TEST_F(SegmentRecordTest, EveryTruncationIsCorruptionOrATornTail) {
  for (size_t len = 0; len < record_.size(); ++len) {
    Status read, scan;
    std::vector<ChunkLocation> scanned;
    ReadBack(record_.substr(0, len), &read, &scan, &scanned);
    EXPECT_TRUE(read.IsCorruption())
        << "prefix length " << len << ": " << read.ToString();
    // A recovery scan cannot tell a cut record from a crash mid-append:
    // it drops the torn tail whole (its events replay from the log) and
    // never indexes part of it.
    EXPECT_TRUE(scan.ok()) << "prefix length " << len;
    EXPECT_TRUE(scanned.empty()) << "prefix length " << len;
  }
}

TEST_F(SegmentRecordTest, EverySingleBitFlipIsCorruption) {
  for (size_t i = 0; i < record_.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = record_;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      Status read, scan;
      std::vector<ChunkLocation> scanned;
      ReadBack(flipped, &read, &scan, &scanned);
      EXPECT_TRUE(read.IsCorruption())
          << "byte " << i << " bit " << bit << ": " << read.ToString();
      EXPECT_TRUE(scanned.empty()) << "byte " << i << " bit " << bit;
      // A size that now runs past the end of the file reads as a torn
      // tail; every other flip fails the checksum.
      const bool size_overruns =
          i < 4 && DecodeFixed32(flipped.data()) > record_.size() - kHeaderSize;
      if (!size_overruns) {
        EXPECT_TRUE(scan.IsCorruption())
            << "byte " << i << " bit " << bit << ": " << scan.ToString();
      }
    }
  }
}

TEST(ChunkCacheTest, LruEvictionAndStats) {
  ChunkCache cache(3);
  for (ChunkSeq seq = 1; seq <= 5; ++seq) {
    cache.Insert(std::make_shared<Chunk>(seq, 1));
  }
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.Get(1), nullptr);  // Evicted.
  EXPECT_EQ(cache.Get(2), nullptr);  // Evicted.
  EXPECT_NE(cache.Get(5), nullptr);

  // Touch 3 so 4 becomes LRU.
  ASSERT_NE(cache.Get(3), nullptr);
  cache.Insert(std::make_shared<Chunk>(6, 1));
  EXPECT_EQ(cache.Get(4), nullptr);
  EXPECT_NE(cache.Get(3), nullptr);

  const auto stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
}

TEST(EventCodecTest, AllFieldTypesRoundTrip) {
  Schema schema(1, {{"i", FieldType::kInt64},
                    {"d", FieldType::kDouble},
                    {"s", FieldType::kString},
                    {"b", FieldType::kBool}});
  Event e;
  e.timestamp = 123456789;
  e.id = 77;
  e.offset = 88;
  e.values = {FieldValue(int64_t{-42}), FieldValue(3.25),
              FieldValue("hello"), FieldValue(true)};

  std::string buf;
  EventCodec codec(&schema);
  codec.Encode(e, 123000000, &buf);

  Slice in(buf);
  Event decoded;
  ASSERT_TRUE(codec.Decode(&in, 123000000, &decoded).ok());
  EXPECT_EQ(decoded.timestamp, e.timestamp);
  EXPECT_EQ(decoded.id, e.id);
  EXPECT_EQ(decoded.offset, e.offset);
  EXPECT_EQ(decoded.values[0].as_int(), -42);
  EXPECT_EQ(decoded.values[1].as_double(), 3.25);
  EXPECT_EQ(decoded.values[2].as_string(), "hello");
  EXPECT_TRUE(decoded.values[3].as_bool());
}

TEST(SchemaRegistryTest, PersistsAcrossReopen) {
  const std::string dir = "/tmp/railgun_schema_registry_test";
  ASSERT_TRUE(Env::Default()->RemoveDirRecursive(dir).ok());
  {
    SchemaRegistry registry(Env::Default(), dir);
    ASSERT_TRUE(registry.Open().ok());
    EXPECT_EQ(registry.Current(), nullptr);
    auto id1 = registry.Register({{"a", FieldType::kInt64}});
    ASSERT_TRUE(id1.ok());
    auto id2 = registry.Register(
        {{"a", FieldType::kInt64}, {"b", FieldType::kString}});
    ASSERT_TRUE(id2.ok());
    EXPECT_NE(id1.value(), id2.value());
    EXPECT_EQ(registry.current_id(), id2.value());
  }
  {
    SchemaRegistry registry(Env::Default(), dir);
    ASSERT_TRUE(registry.Open().ok());
    EXPECT_EQ(registry.size(), 2u);
    ASSERT_NE(registry.Current(), nullptr);
    EXPECT_EQ(registry.Current()->num_fields(), 2u);
    ASSERT_NE(registry.Get(1), nullptr);
    EXPECT_EQ(registry.Get(1)->num_fields(), 1u);
  }
}

}  // namespace
}  // namespace railgun::reservoir
