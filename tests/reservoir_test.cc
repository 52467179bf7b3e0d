// Tests for the event reservoir: chunking, serialization, iteration,
// dedup, out-of-order handling, caching/prefetch, recovery, truncation,
// schema evolution and replica copy.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/coding.h"
#include "common/compression.h"
#include "common/env.h"
#include "reservoir/reservoir.h"
#include "reservoir/segment.h"
#include "workload/generator.h"

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
  Chunk chunk(7, &schema);
  for (int i = 0; i < 100; ++i) {
    chunk.Add(MakeEvent(1000 + i, i + 1, "card" + std::to_string(i), i * 2.5));
  }
  chunk.Close();
  std::string payload;
  chunk.SerializeTo(&payload);

  std::unique_ptr<Chunk> decoded;
  ASSERT_TRUE(Chunk::Deserialize(7, &schema, payload, &decoded).ok());
  ASSERT_EQ(decoded->num_events(), 100u);
  EXPECT_EQ(decoded->min_timestamp(), chunk.min_timestamp());
  EXPECT_EQ(decoded->max_timestamp(), chunk.max_timestamp());
  Event want, got;
  for (size_t i = 0; i < 100; ++i) {
    chunk.DecodeEvent(i, &want);
    decoded->DecodeEvent(i, &got);
    EXPECT_EQ(decoded->timestamp(i), chunk.timestamp(i));
    EXPECT_EQ(got.timestamp, want.timestamp);
    EXPECT_EQ(got.id, want.id);
    EXPECT_EQ(got.values[0].as_string(), want.values[0].as_string());
    EXPECT_EQ(got.values[1].as_double(), want.values[1].as_double());
  }
}

// A 103-field event of the workload generator's schema whose values
// follow from (field, k) by integer arithmetic alone, so the bytes it
// encodes to are the same on every platform.
Event MakeWideEvent(const std::vector<SchemaField>& fields, Micros ts,
                    uint64_t id, uint64_t offset, int k) {
  Event e;
  e.timestamp = ts;
  e.id = id;
  e.offset = offset;
  for (size_t i = 0; i < fields.size(); ++i) {
    switch (fields[i].type) {
      case FieldType::kInt64:
        e.values.emplace_back(
            static_cast<int64_t>((i * 1000003 + k * 7919) % 1000000) -
            500000);
        break;
      case FieldType::kDouble:
        e.values.emplace_back(i * 1.5 + k * 0.125);
        break;
      case FieldType::kString:
        e.values.emplace_back("s" + std::to_string(i * 31 + k));
        break;
      case FieldType::kBool:
        e.values.emplace_back((i + k) % 2 == 1);
        break;
    }
  }
  return e;
}

std::string FromHex(const std::string& hex) {
  std::string bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(
        static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return bytes;
}

class ChunkFormatTest : public ::testing::Test {
 protected:
  const std::vector<SchemaField>& fields() const {
    return generator_.schema_fields();
  }

  // A closed chunk of `n` generator-schema events, in arrival order.
  std::unique_ptr<Chunk> WideChunk(size_t n) {
    auto chunk = std::make_unique<Chunk>(1, &schema_);
    for (size_t i = 0; i < n; ++i) {
      chunk->Add(MakeWideEvent(fields(), 1000 * static_cast<Micros>(i),
                               i + 1, i + 1, static_cast<int>(i)));
    }
    chunk->Close();
    return chunk;
  }

  workload::FraudStreamGenerator generator_{workload::FraudStreamConfig{}};
  Schema schema_{3, generator_.schema_fields()};
};

// Serialized chunks must not change across releases: segment files
// written by an older build are read by a newer one. The expected bytes
// were written by the build that still held chunks as decoded events.
TEST_F(ChunkFormatTest, SerializedBytesMatchTheGoldenCopy) {
  ASSERT_EQ(fields().size(), 103u);
  {
    Chunk chunk(1, &schema_);
    chunk.Add(MakeWideEvent(fields(), 1000, 1, 1, 0));
    chunk.Add(MakeWideEvent(fields(), 2000, 2, 2, 1));
    chunk.Close();
    std::string payload;
    chunk.SerializeTo(&payload);
    EXPECT_EQ(payload, FromHex(
    "0302d00fa01f029b071b0001010273300373333100010016084001a7843d0b00"
    "4a001e400473313836018f11002a2b40047333313001f78322004a8033400473"
    "34333401df1100493940047335353801c71100393f40047336383201af11004a"
    "c042400473383036019711002a4540047339333001ff8255004bc04840057331"
    "30353401e71200014b12004531373801cf1200014e12003533303201b7120002"
    "e050120035343236019f12000260521200353535300187120002e05312002636"
    "373401ef816c0002605512003537393801d7120002e05612003539323201bf12"
    "003b60584005733230343601a7120002e059120035313730018f120002605b12"
    "002632393401f7805a0002e05c12003534313801df120002605e120035353432"
    "01c7120002e05f12003536363601af120002b060120035373930019712000270"
    "6112001739313401ffff3c97013b30624005733330333801e7120011f012001e"
    "313632d00f0202027331037333322b002600094000c98837002180ce01333700"
    "b111002140ce0133310099110021a0ce0143350081110020ce01243900e98744"
    "0021a0ce01333300d1110021d0ce01433700b9110020ce01433100a1110030ce"
    "0143350089120030ce01243900f186570031d0ce01333300d9120031e8ce0133"
    "3700c112003168ce01333100a9120031e8ce013335009112003168ce01243900"
    "f9855a0031e8ce01333300e112003168ce01333700c9120031e8ce01333100b1"
    "12003168ce0133350099120031e8ce013339008112003168ce01343300e9846c"
    "0030ce01333700d1120031b4ce01333100b912003174ce01333500a112001134"
    "bc01353033390089120011f4120003313633"));
  }
  {
    // Out of order, first event not the minimum, and a timestamp tie
    // broken by offset: Close() must re-encode in (timestamp, offset)
    // order against the minimum.
    Chunk chunk(2, &schema_);
    chunk.Add(MakeWideEvent(fields(), 5000, 3, 10, 2));
    chunk.Add(MakeWideEvent(fields(), 3000, 4, 12, 3));
    chunk.Add(MakeWideEvent(fields(), 3000, 5, 11, 4));
    chunk.Close();
    std::string payload;
    chunk.SerializeTo(&payload);
    EXPECT_EQ(payload, FromHex(
    "0303f02e904e0ce80a1b00050b02733403733335000100160c4001af95390b00"
    "4a0020400473313930019711003a2c40047333313401ff942200493440047334"
    "333801e71100493a40047335363201cf1100494040047336383601b711004943"
    "400473383130019f11004946400473393334018711003b494005733130353801"
    "ef936700014c12004531383201d71200014f12004533303601bf120001511200"
    "3534333001a71200028052120035353534018f120002005412002636373801f7"
    "925a0002805512003538303201df120002005712003539323601c712003b8058"
    "4005733230353001af120002005a1200353137340197120002805b1200263239"
    "3801ff915a0002005d12003534323201e7120002805e12003535343601cf1200"
    "02006012003536373001b7120011c0120035373934019f120002806124003539"
    "3138018712003c40624005733330343201ef906c00016312002d31363600040c"
    "02733303733334c101160b40008d913a0c0002801fcd0125383900f590110012"
    "c02bcd01333300dd110012e033cd01433700c511001139cd01433100ad110011"
    "3fcd0133350095110002f042cd0125303900fd8f550012f045cd01433300e511"
    "0001484f014530353700cd1200014b12004531383100b51200014e1200353330"
    "35009d120002f850120035343239008512003178cd01243300ed8e6b0002f853"
    "24003536373700d512003178cd01333100bd120002f85624003539323500a512"
    "002178cd01343439008d120002f85961012631373300f58d5a003178cd013337"
    "00dd120002f85c24003534323100c512003178cd01333500ad120002f85f2400"
    "353636390095120031bccd01243300fd8c5a00317ccd01333700e51200313ccd"
    "01333100cd120011fc12001e313635a01f030a02733203733333c20127000a40"
    "01eb8c3b0c0020ce01333801d311002180ce01333201bb110021c0ce01433601"
    "a3110020ce014330018b110020ce01243401f38b550021e0ce01433801db1100"
    "20ce01433201c3110030ce01433601ab120030ce0143300193120030ce012434"
    "01fb8a580031f0ce01333801e312003170ce01333201cb120031f0ce01333601"
    "b312003170ce013330019b120031f0ce013334018312003170ce01343801eb89"
    "6c0030ce01333201d312003170ce01333601bb120031f0ce01333001a3120031"
    "70ce013334018b120031f0ce01243801f3885a0031b8ce01333201db12003178"
    "ce01333601c312001138bc013530343001ab120011f8120003313634"));
    Event e;
    const uint64_t want_ids[] = {5, 4, 3};
    for (size_t i = 0; i < 3; ++i) {
      chunk.DecodeEvent(i, &e);
      EXPECT_EQ(e.id, want_ids[i]);
      EXPECT_EQ(e.timestamp, chunk.timestamp(i));
      EXPECT_EQ(e.values, MakeWideEvent(fields(), 0, 0, 0,
                                        static_cast<int>(e.id) - 1)
                              .values);
    }
  }
}

// Chunk payloads past the segment CRC: a payload cut anywhere, or whose
// events end before its count says, fails at load with Corruption (and
// reads nothing out of bounds: ASan builds check that).
TEST_F(ChunkFormatTest, EveryPayloadTruncationIsCorruption) {
  std::string payload;
  WideChunk(4)->SerializeTo(&payload);
  std::unique_ptr<Chunk> chunk;
  ASSERT_TRUE(Chunk::Deserialize(1, &schema_, payload, &chunk).ok());
  for (size_t len = 0; len < payload.size(); ++len) {
    // A heap copy of exactly `len` bytes, so ASan sees any overread.
    const std::string prefix = payload.substr(0, len);
    const Status s = Chunk::Deserialize(1, &schema_, prefix, &chunk);
    EXPECT_TRUE(s.IsCorruption()) << "length " << len << ": " << s.ToString();
  }
}

TEST_F(ChunkFormatTest, EventBytesThatEndEarlyAreCorruption) {
  constexpr uint32_t kEvents = 4;
  const auto full = WideChunk(kEvents);
  std::string events;
  const EventCodec codec(&schema_);
  Event e;
  for (size_t i = 0; i < kEvents; ++i) {
    full->DecodeEvent(i, &e);
    codec.Encode(e, full->min_timestamp(), &events);
  }
  // Same header layout as SerializeTo, over a chosen event payload.
  auto payload_of = [&](uint32_t count, const std::string& body) {
    std::string payload;
    PutVarint32(&payload, schema_.id());
    PutVarint32(&payload, count);
    PutVarsint64(&payload, full->min_timestamp());
    PutVarsint64(&payload, full->max_timestamp());
    PutVarint64(&payload, full->max_offset());
    LzCompress(body, &payload);
    return payload;
  };
  std::unique_ptr<Chunk> chunk;
  std::string expected;
  full->SerializeTo(&expected);
  ASSERT_EQ(payload_of(kEvents, events), expected);
  for (size_t cut = 1; cut < events.size(); cut += 7) {
    const std::string short_body = events.substr(0, events.size() - cut);
    const Status s = Chunk::Deserialize(
        1, &schema_, payload_of(kEvents, short_body), &chunk);
    EXPECT_TRUE(s.IsCorruption()) << "cut " << cut << ": " << s.ToString();
  }
  // A count above the events held, and bytes beyond the count.
  EXPECT_TRUE(Chunk::Deserialize(1, &schema_, payload_of(kEvents + 1, events),
                                 &chunk)
                  .IsCorruption());
  EXPECT_TRUE(Chunk::Deserialize(1, &schema_, payload_of(kEvents - 1, events),
                                 &chunk)
                  .IsCorruption());
}

// A closed chunk holds its events in their encoded size, plus a few
// bytes of side arrays per event; holding decoded Events took ~8x.
TEST_F(ChunkFormatTest, ClosedChunkMemoryStaysNearItsEncodedSize) {
  // As many events as the reservoir's default 64 KB target closes with.
  auto chunk = std::make_unique<Chunk>(1, &schema_);
  Micros ts = 0;
  while (chunk->EstimatedBytes() < ReservoirOptions{}.chunk_target_bytes) {
    chunk->Add(generator_.Next(ts += 1000));
  }
  chunk->Close();
  std::string payload;
  chunk->SerializeTo(&payload);
  std::unique_ptr<Chunk> loaded;
  ASSERT_TRUE(Chunk::Deserialize(1, &schema_, payload, &loaded).ok());

  std::string encoded;
  const EventCodec codec(&schema_);
  Event e;
  for (size_t i = 0; i < chunk->num_events(); ++i) {
    chunk->DecodeEvent(i, &e);
    codec.Encode(e, chunk->min_timestamp(), &encoded);
  }
  const double encoded_per_event =
      static_cast<double>(encoded.size()) / chunk->num_events();
  for (const Chunk* c : {chunk.get(), loaded.get()}) {
    const double memory_per_event =
        static_cast<double>(c->MemoryBytes()) / c->num_events();
    EXPECT_LE(memory_per_event, 1.5 * encoded_per_event)
        << "memory " << memory_per_event << " B/event, encoded "
        << encoded_per_event << " B/event";
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
    Chunk chunk(kSeq, &schema_);
    for (size_t i = 0; i < kEvents; ++i) {
      chunk.Add(MakeEvent(1000 + static_cast<Micros>(i), i + 1,
                          "card" + std::to_string(i % 3), 2.5 * i));
    }
    chunk.Close();
    std::string payload;
    chunk.SerializeTo(&payload);
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
      ASSERT_TRUE(Chunk::Deserialize(kSeq, &schema_, payload, &chunk).ok());
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
  const Schema schema(1, {{"card", FieldType::kString}});
  ChunkCache cache(3);
  for (ChunkSeq seq = 1; seq <= 5; ++seq) {
    cache.Insert(std::make_shared<Chunk>(seq, &schema));
  }
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.Get(1), nullptr);  // Evicted.
  EXPECT_EQ(cache.Get(2), nullptr);  // Evicted.
  EXPECT_NE(cache.Get(5), nullptr);

  // Touch 3 so 4 becomes LRU.
  ASSERT_NE(cache.Get(3), nullptr);
  cache.Insert(std::make_shared<Chunk>(6, &schema));
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
