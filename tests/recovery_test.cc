// Failure-injection tests: torn and corrupted files, crash points
// between the checkpoint protocol's steps, and replica bootstrap from
// partially-written donors. These validate the recovery story of paper
// §4.1.1 ("only the most recent events can be lost, and quickly
// recovered from Kafka") and §4.2.
#include <gtest/gtest.h>

#include <functional>
#include <map>

#include "common/coding.h"
#include "common/env.h"
#include "engine/task_processor.h"
#include "reservoir/reservoir.h"

namespace railgun {
namespace {

using engine::EventEnvelope;
using engine::ReplyEnvelope;
using engine::StreamDef;
using engine::TaskProcessor;
using engine::TaskProcessorOptions;
using reservoir::Event;
using reservoir::FieldType;
using reservoir::FieldValue;
using reservoir::Reservoir;
using reservoir::ReservoirOptions;

// Runs one message through ProcessBatch. A row the batch counts as
// failed surfaces as an error status, so callers can assert on it.
Status ProcessOne(TaskProcessor* proc, msg::Message message,
                  ReplyEnvelope* reply) {
  std::vector<msg::Message> one;
  one.push_back(std::move(message));
  msg::MessageBatch batch;
  batch.Adopt(std::move(one));
  std::vector<ReplyEnvelope> replies;
  size_t failed = 0;
  RAILGUN_RETURN_IF_ERROR(proc->ProcessBatch(batch.views(), &replies,
                                             &failed));
  if (failed > 0) return Status::Corruption("message failed to process");
  *reply = std::move(replies[0]);
  return Status::OK();
}

ReservoirOptions SmallReservoirOptions() {
  ReservoirOptions options;
  options.chunk_target_bytes = 1024;
  options.segment_max_bytes = 8 * 1024;
  options.async_io = false;
  options.schema_fields = {{"card", FieldType::kString},
                           {"amount", FieldType::kDouble}};
  return options;
}

Event SimpleEvent(Micros ts, uint64_t id) {
  Event e;
  e.timestamp = ts;
  e.id = id;
  e.offset = id;
  e.values = {FieldValue("card1"), FieldValue(1.0)};
  return e;
}

// Appends a torn (half-written) chunk record to the newest segment,
// simulating a crash mid-append.
void TearNewestSegment(const std::string& dir) {
  Env* env = Env::Default();
  std::vector<std::string> children;
  ASSERT_TRUE(env->ListDir(dir, &children).ok());
  std::string newest;
  for (const auto& child : children) {
    if (child.rfind("segment-", 0) == 0 && child > newest) newest = child;
  }
  ASSERT_FALSE(newest.empty());
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env->NewAppendableFile(dir + "/" + newest, &file).ok());
  // A record header promising 4096 payload bytes, then only 10 bytes.
  std::string torn;
  PutFixed32(&torn, 4096);
  PutFixed32(&torn, 0xdeadbeef);
  PutFixed64(&torn, 999999);
  torn += "shortdata!";
  ASSERT_TRUE(file->Append(torn).ok());
  ASSERT_TRUE(file->Close().ok());
}

TEST(ReservoirRecoveryTest, TornSegmentTailIsIgnoredOnOpen) {
  const std::string dir = "/tmp/railgun_recovery_torn";
  ASSERT_TRUE(Env::Default()->RemoveDirRecursive(dir).ok());
  uint64_t persisted;
  {
    Reservoir res(SmallReservoirOptions(), dir);
    ASSERT_TRUE(res.Open().ok());
    for (int i = 0; i < 500; ++i) {
      ASSERT_TRUE(res.Append(SimpleEvent(i * 1000, i + 1)).ok());
    }
    persisted = res.LastPersistedOffset();
    ASSERT_GT(persisted, 0u);
  }
  TearNewestSegment(dir);

  Reservoir res(SmallReservoirOptions(), dir);
  ASSERT_TRUE(res.Open().ok());
  EXPECT_EQ(res.LastPersistedOffset(), persisted);
  auto iter = res.NewIterator();
  uint64_t count = 0;
  while (!iter->AtEnd()) {
    ++count;
    iter->Advance();
  }
  EXPECT_EQ(count, persisted);
}

TEST(ReservoirRecoveryTest, ChunksWrittenAfterATornTailStayReadable) {
  const std::string dir = "/tmp/railgun_recovery_torn_append";
  ASSERT_TRUE(Env::Default()->RemoveDirRecursive(dir).ok());
  uint64_t first_persisted;
  {
    Reservoir res(SmallReservoirOptions(), dir);
    ASSERT_TRUE(res.Open().ok());
    for (int i = 0; i < 500; ++i) {
      ASSERT_TRUE(res.Append(SimpleEvent(i * 1000, i + 1)).ok());
    }
    first_persisted = res.LastPersistedOffset();
  }
  TearNewestSegment(dir);
  uint64_t persisted;
  {
    // The resumed writer must not place new records behind the torn
    // bytes at offsets the index does not match.
    Reservoir res(SmallReservoirOptions(), dir);
    ASSERT_TRUE(res.Open().ok());
    for (int i = 500; i < 1000; ++i) {
      ASSERT_TRUE(res.Append(SimpleEvent(i * 1000, i + 1)).ok());
    }
    persisted = res.LastPersistedOffset();
    ASSERT_GT(persisted, 500u);
  }

  // Offsets 1..first_persisted, then 501..persisted: the first run's
  // unpersisted open chunk is what log replay would restore.
  Reservoir res(SmallReservoirOptions(), dir);
  ASSERT_TRUE(res.Open().ok());
  EXPECT_EQ(res.LastPersistedOffset(), persisted);
  auto iter = res.NewIterator();
  uint64_t count = 0;
  while (!iter->AtEnd()) {
    ++count;
    iter->Advance();
  }
  EXPECT_EQ(count, first_persisted + (persisted - 500));
}

TEST(ReservoirRecoveryTest, CorruptedChunkPayloadDetectedByCrc) {
  const std::string dir = "/tmp/railgun_recovery_crc";
  ASSERT_TRUE(Env::Default()->RemoveDirRecursive(dir).ok());
  {
    Reservoir res(SmallReservoirOptions(), dir);
    ASSERT_TRUE(res.Open().ok());
    for (int i = 0; i < 500; ++i) {
      ASSERT_TRUE(res.Append(SimpleEvent(i * 1000, i + 1)).ok());
    }
  }
  // Flip a byte in the middle of the first segment's data.
  Env* env = Env::Default();
  const std::string segment = dir + "/segment-000001.seg";
  std::string contents;
  ASSERT_TRUE(ReadFileToString(env, segment, &contents).ok());
  contents[contents.size() / 2] ^= 0x5a;
  ASSERT_TRUE(WriteStringToFile(env, contents, segment).ok());

  // The recovery scan verifies every record's checksum, so the damage
  // surfaces as a typed error at open instead of an index built from
  // unchecked chunk headers (a flipped max_offset would skip replay).
  Reservoir res(SmallReservoirOptions(), dir);
  const Status opened = res.Open();
  EXPECT_TRUE(opened.IsCorruption()) << opened.ToString();
  EXPECT_NE(opened.ToString().find("checksum mismatch"), std::string::npos)
      << opened.ToString();
}

class TaskProcessorRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "/tmp/railgun_recovery_taskproc";
    ASSERT_TRUE(Env::Default()->RemoveDirRecursive(dir_).ok());
    stream_.name = "payments";
    stream_.fields = {{"cardId", FieldType::kString},
                      {"amount", FieldType::kDouble}};
    stream_.partitioners = {"cardId"};
    stream_.queries = {
        query::ParseQuery("SELECT count(*), sum(amount) FROM payments "
                          "GROUP BY cardId OVER sliding 1 hour")
            .value()};
    options_.reservoir.chunk_target_bytes = 1024;
    options_.checkpoint_interval_events = 1000000;
  }

  msg::Message MakeMessage(uint64_t offset) {
    const reservoir::Schema schema(0, stream_.fields);
    EventEnvelope env;
    env.request_id = offset + 1;
    env.reply_topic = "replies.r";
    env.event = SimpleEvent(static_cast<Micros>(offset) * 1000, offset + 1);
    env.event.values = {FieldValue("cardZ"), FieldValue(amount_of_(offset))};
    msg::Message m;
    m.topic = "payments.cardId";
    m.partition = 0;
    m.offset = offset;
    EncodeEventEnvelope(env, schema, &m.payload);
    return m;
  }

  // Runs a processor over offsets [from, to), checkpointing at
  // `checkpoint_at` (if within range). Returns the final count.
  double RunRange(uint64_t from, uint64_t to, int64_t checkpoint_at) {
    TaskProcessor proc(options_, dir_, stream_, "payments.cardId");
    EXPECT_TRUE(proc.Open().ok());
    EXPECT_LE(proc.replay_offset(), from);
    ReplyEnvelope reply;
    for (uint64_t i = proc.replay_offset(); i < to; ++i) {
      EXPECT_TRUE(ProcessOne(&proc, MakeMessage(i), &reply).ok());
      if (static_cast<int64_t>(i) == checkpoint_at) {
        EXPECT_TRUE(proc.Checkpoint().ok());
      }
    }
    double count = -1;
    for (const auto& r : reply.results) {
      if (r.metric_name.rfind("count", 0) == 0) count = r.value.ToNumber();
    }
    return count;
  }

  // Adds a metric to the stream at run time, as ADD METRIC does: the
  // running processor syncs it now, and a restarted one gets the stream
  // with it.
  void AddMetric(TaskProcessor* proc, const std::string& sql) {
    stream_.queries.push_back(query::ParseQuery(sql).value());
    ASSERT_TRUE(proc->SyncQueries(stream_).ok());
  }

  // Opens a processor and processes offsets [replay_offset(), to),
  // calling after(i, &proc, reply) once offset i is processed. Returns
  // the last reply's values by metric name.
  using After =
      std::function<void(uint64_t, TaskProcessor*, const ReplyEnvelope&)>;
  std::map<std::string, double> Run(uint64_t to, const After& after = {}) {
    TaskProcessor proc(options_, dir_, stream_, "payments.cardId");
    const Status opened = proc.Open();
    EXPECT_TRUE(opened.ok()) << opened.ToString();
    std::map<std::string, double> values;
    if (!opened.ok()) return values;
    ReplyEnvelope reply;
    for (uint64_t i = proc.replay_offset(); i < to; ++i) {
      EXPECT_TRUE(ProcessOne(&proc, MakeMessage(i), &reply).ok()) << i;
      if (after) after(i, &proc, reply);
    }
    for (const auto& r : reply.results) {
      values[r.metric_name] = r.value.ToNumber();
    }
    return values;
  }

  std::string dir_;
  StreamDef stream_;
  TaskProcessorOptions options_;
  std::function<double(uint64_t)> amount_of_ = [](uint64_t) { return 2.0; };
};

// Each event carries amount 2.0 one millisecond after the last, so a
// 100 ms sliding window holds 101 events: sum 202, count 101.
constexpr char kLateSum[] =
    "SELECT sum(amount) FROM payments GROUP BY cardId "
    "OVER sliding 100 milliseconds";
constexpr char kLateCount[] =
    "SELECT count(*) FROM payments GROUP BY cardId "
    "OVER sliding 100 milliseconds";
constexpr char kLateSumName[] = "sum(amount) over sliding 100ms by cardId";
constexpr char kLateCountName[] = "count(*) over sliding 100ms by cardId";

TEST_F(TaskProcessorRecoveryTest, MetricAddedBeforeTheCheckpointSurvives) {
  const auto before = Run(300, [this](uint64_t i, TaskProcessor* proc, const ReplyEnvelope&) {
    if (i == 200) AddMetric(proc, kLateSum);
    if (i == 250) {
      ASSERT_TRUE(proc->Checkpoint().ok());
    }
  });
  EXPECT_EQ(before.at(kLateSumName), 202);
  const auto after = Run(400);
  EXPECT_EQ(after.at(kLateSumName), 202);
  EXPECT_EQ(after.at("count(*) over sliding 1h by cardId"), 400);
}

TEST_F(TaskProcessorRecoveryTest, MetricAddedAfterTheLastCheckpointSurvives) {
  const auto before = Run(300, [this](uint64_t i, TaskProcessor* proc, const ReplyEnvelope&) {
    if (i == 150) {
      ASSERT_TRUE(proc->Checkpoint().ok());
    }
    if (i == 200) AddMetric(proc, kLateSum);
  });
  EXPECT_EQ(before.at(kLateSumName), 202);
  const auto after = Run(400);
  EXPECT_EQ(after.at(kLateSumName), 202);
  EXPECT_EQ(after.at("count(*) over sliding 1h by cardId"), 400);
}

TEST_F(TaskProcessorRecoveryTest, SecondRestartKeepsMetricIdsInOrder) {
  // Two metrics added after the checkpoint are installed in the order
  // they were added; the next checkpoint names them, and the second
  // restart must give each its own state back (swapped ids would read
  // the count as the sum and the other way round).
  Run(300, [this](uint64_t i, TaskProcessor* proc, const ReplyEnvelope&) {
    if (i == 150) {
      ASSERT_TRUE(proc->Checkpoint().ok());
    }
    if (i == 200) AddMetric(proc, kLateSum);
    if (i == 220) AddMetric(proc, kLateCount);
  });
  const auto first = Run(400, [](uint64_t i, TaskProcessor* proc, const ReplyEnvelope&) {
    if (i == 350) {
      ASSERT_TRUE(proc->Checkpoint().ok());
    }
  });
  EXPECT_EQ(first.at(kLateSumName), 202);
  EXPECT_EQ(first.at(kLateCountName), 101);
  const auto second = Run(500);
  EXPECT_EQ(second.at(kLateSumName), 202);
  EXPECT_EQ(second.at(kLateCountName), 101);
  EXPECT_EQ(second.at("count(*) over sliding 1h by cardId"), 500);
}

TEST_F(TaskProcessorRecoveryTest, ReplayedRepliesOfALateMetricMatchTheFirstRun) {
  // The restart installs the metric added after the checkpoint by
  // backfill, but persisted chunks already hold events past the
  // checkpoint, which the log replays through the whole plan: the
  // backfill must stop at the checkpoint, or the replayed replies would
  // count events that had not arrived yet.
  amount_of_ = [](uint64_t i) { return 1.0 + static_cast<double>(i % 7); };
  std::map<uint64_t, double> first, replayed;
  auto late_sum = [](const ReplyEnvelope& reply) {
    for (const auto& r : reply.results) {
      if (r.metric_name == kLateSumName) return r.value.ToNumber();
    }
    return -1.0;
  };
  Run(300, [&](uint64_t i, TaskProcessor* proc, const ReplyEnvelope& reply) {
    if (i == 150) {
      ASSERT_TRUE(proc->Checkpoint().ok());
    }
    if (i == 200) AddMetric(proc, kLateSum);
    if (i > 200) first[i] = late_sum(reply);
  });
  Run(300, [&](uint64_t i, TaskProcessor*, const ReplyEnvelope& reply) {
    if (i > 200) replayed[i] = late_sum(reply);
  });
  ASSERT_FALSE(replayed.empty());
  for (const auto& [offset, value] : replayed) {
    EXPECT_EQ(value, first.at(offset)) << "offset " << offset;
  }
}

TEST_F(TaskProcessorRecoveryTest, CheckpointWithoutAPlanIsCorruption) {
  // A checkpoint from the layout that stored window positions only
  // (key __ckpt_winpos, no queries) cannot say which queries its state
  // belongs to: Open refuses it instead of guessing.
  Run(100, [](uint64_t i, TaskProcessor* proc, const ReplyEnvelope&) {
    if (i == 50) {
      ASSERT_TRUE(proc->Checkpoint().ok());
    }
  });
  {
    std::unique_ptr<storage::DB> ckpt;
    ASSERT_TRUE(
        storage::DB::Open(storage::DBOptions(), dir_ + "/ckpt", &ckpt).ok());
    ASSERT_TRUE(
        ckpt->Delete(storage::kDefaultColumnFamily, "__ckpt_plan").ok());
    std::string island;
    PutVarint32(&island, 0);  // Heads.
    PutVarint32(&island, 0);  // Tails.
    PutVarint32(&island, 0);  // Operators.
    std::string old_blob;
    PutLengthPrefixedSlice(&old_blob, island);
    ASSERT_TRUE(
        ckpt->Put(storage::kDefaultColumnFamily, "__ckpt_winpos", old_blob)
            .ok());
  }
  TaskProcessor proc(options_, dir_, stream_, "payments.cardId");
  const Status opened = proc.Open();
  EXPECT_TRUE(opened.IsCorruption()) << opened.ToString();
}

TEST_F(TaskProcessorRecoveryTest, RepeatedCrashReplayConverges) {
  // Process 0..300 with a checkpoint at 150; "crash"; recover and
  // process to 400; "crash" again without a new checkpoint; recover and
  // process to 500. Counts must stay exact throughout.
  EXPECT_EQ(RunRange(0, 300, 150), 300);
  EXPECT_EQ(RunRange(300, 400, -1), 400);
  EXPECT_EQ(RunRange(400, 500, -1), 500);
}

TEST_F(TaskProcessorRecoveryTest, CrashBeforeFirstCheckpointRebuildsAll) {
  EXPECT_EQ(RunRange(0, 200, -1), 200);
  // No checkpoint taken: recovery replays everything from offset 0.
  TaskProcessor proc(options_, dir_, stream_, "payments.cardId");
  ASSERT_TRUE(proc.Open().ok());
  EXPECT_EQ(proc.replay_offset(), 0u);
  ReplyEnvelope reply;
  for (uint64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(ProcessOne(&proc, MakeMessage(i), &reply).ok());
  }
  double count = -1;
  for (const auto& r : reply.results) {
    if (r.metric_name.rfind("count", 0) == 0) count = r.value.ToNumber();
  }
  EXPECT_EQ(count, 200);
}

TEST_F(TaskProcessorRecoveryTest, StaleCheckpointDirIsAtomic) {
  // A crash mid-checkpoint leaves ckpt.tmp; recovery must use the last
  // complete checkpoint (or none), never the torn one.
  EXPECT_EQ(RunRange(0, 100, 50), 100);
  Env* env = Env::Default();
  ASSERT_TRUE(env->CreateDir(dir_ + "/ckpt.tmp").ok());
  ASSERT_TRUE(
      WriteStringToFile(env, "garbage", dir_ + "/ckpt.tmp/CURRENT").ok());
  EXPECT_EQ(RunRange(100, 150, -1), 150);
}

TEST_F(TaskProcessorRecoveryTest, DonorCloneOfRunningStateIsUsable) {
  // Clone from a donor directory that has a checkpoint plus newer,
  // unsynced writes — the clone must land on the checkpoint boundary
  // and replay forward cleanly.
  EXPECT_EQ(RunRange(0, 250, 120), 250);

  const std::string clone_dir = dir_ + "_clone";
  ASSERT_TRUE(Env::Default()->RemoveDirRecursive(clone_dir).ok());
  ASSERT_TRUE(
      TaskProcessor::CloneData(Env::Default(), dir_, clone_dir).ok());

  TaskProcessor proc(options_, clone_dir, stream_, "payments.cardId");
  ASSERT_TRUE(proc.Open().ok());
  ReplyEnvelope reply;
  for (uint64_t i = proc.replay_offset(); i < 250; ++i) {
    ASSERT_TRUE(ProcessOne(&proc, MakeMessage(i), &reply).ok());
  }
  double count = -1;
  for (const auto& r : reply.results) {
    if (r.metric_name.rfind("count", 0) == 0) count = r.value.ToNumber();
  }
  EXPECT_EQ(count, 250);
}

}  // namespace
}  // namespace railgun
