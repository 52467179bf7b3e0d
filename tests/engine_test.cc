// Tests for the engine layer: wire envelopes, stream/partitioner
// routing, task processor checkpoint/recovery, and coordinator donor
// lookup.
#include <gtest/gtest.h>

#include "common/coding.h"
#include "engine/coordinator.h"
#include "engine/processor_unit.h"
#include "engine/stream_def.h"
#include "engine/task_processor.h"
#include "msg/broker.h"
#include "trace/trace_context.h"
#include "trace/tracer.h"

namespace railgun::engine {
namespace {

using reservoir::Event;
using reservoir::FieldType;
using reservoir::FieldValue;

StreamDef PaymentsStream() {
  StreamDef stream;
  stream.name = "payments";
  stream.fields = {{"cardId", FieldType::kString},
                   {"merchantId", FieldType::kString},
                   {"amount", FieldType::kDouble}};
  stream.partitioners = {"cardId", "merchantId"};
  stream.partitions_per_topic = 2;
  auto q1 = query::ParseQuery(
      "SELECT sum(amount), count(*) FROM payments GROUP BY cardId "
      "OVER sliding 5 minutes");
  auto q2 = query::ParseQuery(
      "SELECT avg(amount) FROM payments GROUP BY merchantId "
      "OVER sliding 5 minutes");
  stream.queries = {q1.value(), q2.value()};
  return stream;
}

Event PaymentEvent(Micros ts, uint64_t id, const std::string& card,
                   const std::string& merchant, double amount) {
  Event e;
  e.timestamp = ts;
  e.id = id;
  e.values = {FieldValue(card), FieldValue(merchant), FieldValue(amount)};
  return e;
}

TEST(StreamDefTest, TopicNamingAndQueryRouting) {
  const StreamDef stream = PaymentsStream();
  EXPECT_EQ(stream.TopicFor("cardId"), "payments.cardId");
  EXPECT_EQ(stream.PartitionerForQuery(stream.queries[0]).value(), "cardId");
  EXPECT_EQ(stream.PartitionerForQuery(stream.queries[1]).value(),
            "merchantId");

  auto global = query::ParseQuery(
      "SELECT count(*) FROM payments OVER sliding 1 hour");
  EXPECT_EQ(stream.PartitionerForQuery(global.value()).value(), "cardId");

  auto uncovered = query::ParseQuery(
      "SELECT count(*) FROM payments GROUP BY amount OVER infinite");
  EXPECT_FALSE(stream.PartitionerForQuery(uncovered.value()).ok());
}

TEST(WireTest, EventEnvelopeRoundTrip) {
  const StreamDef stream = PaymentsStream();
  const reservoir::Schema schema(0, stream.fields);
  EventEnvelope env;
  env.request_id = 0xabcdef12345ull;
  env.reply_topic = "replies.node3";
  env.event = PaymentEvent(123456, 77, "card9", "m3", 42.5);

  std::string encoded;
  EncodeEventEnvelope(env, schema, &encoded);
  EventEnvelope decoded;
  ASSERT_TRUE(DecodeEventEnvelope(encoded, schema, &decoded).ok());
  EXPECT_EQ(decoded.request_id, env.request_id);
  EXPECT_EQ(decoded.reply_topic, env.reply_topic);
  EXPECT_EQ(decoded.event.timestamp, 123456);
  EXPECT_EQ(decoded.event.id, 77u);
  EXPECT_EQ(decoded.event.values[0].as_string(), "card9");
  EXPECT_DOUBLE_EQ(decoded.event.values[2].as_double(), 42.5);
}

ReplyEnvelope SampleReply() {
  ReplyEnvelope env;
  env.request_id = 99;
  env.results = {{"count(*)", "card1", FieldValue(int64_t{7})},
                 {"sum(amount)", "card1", FieldValue(1.5)},
                 {"flag", "card1", FieldValue(true)},
                 {"last(city)", "card1", FieldValue("lisbon")}};
  return env;
}

TEST(WireTest, ReplyEnvelopeRoundTripAllValueTypes) {
  std::string encoded;
  EncodeReplyEnvelope(SampleReply(), &encoded);
  ReplyEnvelope decoded;
  ASSERT_TRUE(DecodeReplyEnvelope(encoded, &decoded).ok());
  ASSERT_EQ(decoded.results.size(), 4u);
  EXPECT_EQ(decoded.results[0].value.as_int(), 7);
  EXPECT_DOUBLE_EQ(decoded.results[1].value.as_double(), 1.5);
  EXPECT_TRUE(decoded.results[2].value.as_bool());
  EXPECT_EQ(decoded.results[3].value.as_string(), "lisbon");
}

TEST(WireTest, ReplyEnvelopeHostileCountIsCorruptionNotAnAbort) {
  // A request id plus a result count of 2^32-1 and nothing behind it:
  // the decoder must refuse the count before reserving for it.
  std::string encoded;
  PutFixed64(&encoded, 1);
  PutVarint32(&encoded, 0xffffffffu);
  ReplyEnvelope decoded;
  EXPECT_TRUE(DecodeReplyEnvelope(encoded, &decoded).IsCorruption());
}

TEST(WireTest, ReplyEnvelopeEveryTruncationIsCorruption) {
  std::string encoded;
  EncodeReplyEnvelope(SampleReply(), &encoded);
  for (size_t len = 0; len < encoded.size(); ++len) {
    ReplyEnvelope decoded;
    const Status status =
        DecodeReplyEnvelope(Slice(encoded.data(), len), &decoded);
    EXPECT_TRUE(status.IsCorruption()) << "prefix length " << len;
  }
}

TEST(WireTest, ReplyEnvelopeBitFlipsYieldTypedStatuses) {
  // No checksum guards the envelope, so a flip may still decode; it must
  // otherwise fail as Corruption, never crash or over-allocate.
  std::string encoded;
  EncodeReplyEnvelope(SampleReply(), &encoded);
  for (size_t i = 0; i < encoded.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = encoded;
      mutated[i] = static_cast<char>(mutated[i] ^ (1 << bit));
      ReplyEnvelope decoded;
      const Status status = DecodeReplyEnvelope(mutated, &decoded);
      EXPECT_TRUE(status.ok() || status.IsCorruption())
          << "byte " << i << " bit " << bit << ": " << status.ToString();
    }
  }
}

TEST(WireTest, CorruptEnvelopesRejected) {
  const StreamDef stream = PaymentsStream();
  const reservoir::Schema schema(0, stream.fields);
  EventEnvelope env;
  EXPECT_FALSE(DecodeEventEnvelope("short", schema, &env).ok());
  ReplyEnvelope reply;
  EXPECT_FALSE(DecodeReplyEnvelope("x", &reply).ok());
}

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

class TaskProcessorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "/tmp/railgun_taskproc_test";
    ASSERT_TRUE(Env::Default()->RemoveDirRecursive(dir_).ok());
    stream_ = PaymentsStream();
    options_.reservoir.chunk_target_bytes = 2048;
    options_.checkpoint_interval_events = 1000000;  // Manual only.
  }

  // Producers encode offset 0; the unit takes the log position instead.
  msg::Message MakeMessage(uint64_t offset, Micros ts, uint64_t id,
                           const std::string& card, double amount,
                           uint64_t encoded_offset = 0) {
    const reservoir::Schema schema(0, stream_.fields);
    EventEnvelope env;
    env.request_id = id;
    env.reply_topic = "replies.x";
    env.event = PaymentEvent(ts, id, card, "m1", amount);
    env.event.offset = encoded_offset;
    msg::Message m;
    m.topic = "payments.cardId";
    m.partition = 0;
    m.offset = offset;
    m.key = card;
    EncodeEventEnvelope(env, schema, &m.payload);
    return m;
  }

  std::string dir_;
  StreamDef stream_;
  TaskProcessorOptions options_;
};

TEST_F(TaskProcessorTest, ComputesOnlyQueriesRoutedToItsTopic) {
  TaskProcessor proc(options_, dir_, stream_, "payments.cardId");
  ASSERT_TRUE(proc.Open().ok());
  // The cardId topic computes Q1 (sum + count by card), not Q2.
  EXPECT_EQ(proc.task_plan()->num_metrics(), 2u);

  ReplyEnvelope reply;
  ASSERT_TRUE(
      ProcessOne(&proc, MakeMessage(0, 1000, 1, "cardA", 10.0), &reply)
          .ok());
  ASSERT_EQ(reply.results.size(), 2u);
  EXPECT_EQ(reply.request_id, 1u);
}

TEST_F(TaskProcessorTest, ProcessBatchDecodesTracesAndStampsLogOffsets) {
  // One batch with plain rows, a traced row and a malformed row. Every
  // envelope encodes an offset unlike its message's log position.
  std::vector<msg::Message> messages;
  const char* cards[] = {"cardA", "cardA", "cardB", "cardA", "cardB"};
  for (uint64_t i = 0; i < 25; ++i) {
    messages.push_back(MakeMessage(100 + i, 1000 * static_cast<Micros>(i + 1),
                                   i + 1, cards[i % 5],
                                   0.25 * static_cast<double>(i),
                                   /*encoded_offset=*/7000 + i));
  }
  constexpr size_t kTraced = 7;
  trace::TraceContext ctx;
  ctx.trace_hi = 0x1122334455667788ull;
  ctx.trace_lo = 0x99aabbccddeeff00ull;
  ctx.span_id = 42;
  ctx.flags = trace::TraceContext::kSampledFlag;
  trace::AppendTraceTrailer(ctx, &messages[kTraced].payload);
  constexpr size_t kMalformed = 12;
  messages[kMalformed].payload.resize(10);  // Cut inside the reply topic.
  msg::MessageBatch batch;
  batch.Adopt(messages);

  trace::Tracer* tracer = trace::Tracer::Global();
  tracer->ResetForTest();
  trace::TracerOptions trace_options;
  trace_options.sample_every = 1;
  tracer->Enable(trace_options);
  TaskProcessor proc(options_, dir_, stream_, "payments.cardId");
  ASSERT_TRUE(proc.Open().ok());
  std::vector<ReplyEnvelope> replies;
  size_t failed = 0;
  const Status processed = proc.ProcessBatch(batch.views(), &replies, &failed);
  tracer->ResetForTest();
  ASSERT_TRUE(processed.ok()) << processed.ToString();

  // The malformed row is skipped and counted; the rest are processed.
  EXPECT_EQ(failed, 1u);
  ASSERT_EQ(replies.size(), messages.size());
  EXPECT_EQ(replies[kMalformed].request_id, 0u);
  EXPECT_EQ(proc.processed_count(), messages.size() - 1);

  // The traced row's context reaches its reply, parented under the
  // unit's spans; untraced rows stay untraced.
  EXPECT_EQ(replies[kTraced].request_id, kTraced + 1);
  EXPECT_EQ(replies[kTraced].results.size(), 2u);
  EXPECT_TRUE(replies[kTraced].trace.valid());
  EXPECT_EQ(replies[kTraced].trace.trace_hi, ctx.trace_hi);
  EXPECT_EQ(replies[kTraced].trace.trace_lo, ctx.trace_lo);
  EXPECT_FALSE(replies[0].trace.valid());

  // The reservoir holds each good event under its log offset, not the
  // offset its envelope encoded.
  std::vector<uint64_t> expected;
  for (size_t i = 0; i < messages.size(); ++i) {
    if (i != kMalformed) expected.push_back(messages[i].offset);
  }
  std::vector<uint64_t> stored;
  for (auto it = proc.reservoir()->NewIterator(); !it->AtEnd();
       it->Advance()) {
    stored.push_back(it->event().offset);
  }
  EXPECT_EQ(stored, expected);
}

TEST_F(TaskProcessorTest, BatchSkipsUndecodableMessagesAndCounts) {
  TaskProcessor proc(options_, dir_, stream_, "payments.cardId");
  ASSERT_TRUE(proc.Open().ok());

  std::vector<msg::Message> messages;
  messages.push_back(MakeMessage(0, 1000, 1, "cardA", 1.0));
  msg::Message bad = MakeMessage(1, 2000, 2, "cardB", 2.0);
  bad.payload = "not an envelope";
  messages.push_back(std::move(bad));
  messages.push_back(MakeMessage(2, 3000, 3, "cardA", 3.0));

  msg::MessageBatch batch;
  batch.Adopt(std::move(messages));
  std::vector<ReplyEnvelope> replies;
  size_t failed = 0;
  ASSERT_TRUE(proc.ProcessBatch(batch.views(), &replies, &failed).ok());
  EXPECT_EQ(failed, 1u);
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_EQ(replies[0].request_id, 1u);
  EXPECT_EQ(replies[1].request_id, 0u);  // Skipped slot: no reply routed.
  EXPECT_EQ(replies[2].request_id, 3u);
  EXPECT_EQ(proc.processed_count(), 2u);
}

TEST_F(TaskProcessorTest, CheckpointAndRecoveryReplayIsExactlyOnce) {
  {
    TaskProcessor proc(options_, dir_, stream_, "payments.cardId");
    ASSERT_TRUE(proc.Open().ok());
    ReplyEnvelope reply;
    for (uint64_t i = 0; i < 100; ++i) {
      ASSERT_TRUE(ProcessOne(&proc,
                             MakeMessage(i, 1000 * static_cast<Micros>(i + 1),
                                         i + 1, "cardA", 1.0),
                             &reply)
                      .ok());
    }
    ASSERT_TRUE(proc.Checkpoint().ok());
    // 20 more messages after the checkpoint (these will be replayed).
    for (uint64_t i = 100; i < 120; ++i) {
      ASSERT_TRUE(ProcessOne(&proc,
                             MakeMessage(i, 1000 * static_cast<Micros>(i + 1),
                                         i + 1, "cardA", 1.0),
                             &reply)
                      .ok());
    }
    // Last reply before "crash": count = 120.
    EXPECT_DOUBLE_EQ(reply.results[1].value.ToNumber(), 120);
  }

  // Recover: replay must resume at (or before) offset 100 — it may be
  // earlier to rebuild the open chunk lost with the crash — and
  // reconverge without double counting.
  TaskProcessor proc(options_, dir_, stream_, "payments.cardId");
  ASSERT_TRUE(proc.Open().ok());
  EXPECT_LE(proc.replay_offset(), 100u);
  ReplyEnvelope reply;
  for (uint64_t i = proc.replay_offset(); i < 120; ++i) {
    ASSERT_TRUE(ProcessOne(&proc,
                           MakeMessage(i, 1000 * static_cast<Micros>(i + 1),
                                       i + 1, "cardA", 1.0),
                           &reply)
                    .ok());
  }
  // Same result as before the crash: no double counting.
  ASSERT_EQ(reply.results.size(), 2u);
  EXPECT_DOUBLE_EQ(reply.results[1].value.ToNumber(), 120);
  EXPECT_DOUBLE_EQ(reply.results[0].value.ToNumber(), 120.0);
}

TEST_F(TaskProcessorTest, CloneDataBootstrapsAnotherProcessor) {
  {
    TaskProcessor donor(options_, dir_, stream_, "payments.cardId");
    ASSERT_TRUE(donor.Open().ok());
    ReplyEnvelope reply;
    for (uint64_t i = 0; i < 200; ++i) {
      ASSERT_TRUE(ProcessOne(&donor,
                             MakeMessage(i, 1000 * static_cast<Micros>(i + 1),
                                         i + 1, "cardA", 2.0),
                             &reply)
                      .ok());
    }
    ASSERT_TRUE(donor.Checkpoint().ok());
  }

  const std::string target_dir = dir_ + "_target";
  ASSERT_TRUE(Env::Default()->RemoveDirRecursive(target_dir).ok());
  ASSERT_TRUE(
      TaskProcessor::CloneData(Env::Default(), dir_, target_dir).ok());

  TaskProcessor recovered(options_, target_dir, stream_, "payments.cardId");
  ASSERT_TRUE(recovered.Open().ok());
  // Replay resumes early enough to rebuild the donor's lost open chunk.
  EXPECT_LE(recovered.replay_offset(), 200u);

  ReplyEnvelope reply;
  for (uint64_t i = recovered.replay_offset(); i < 200; ++i) {
    ASSERT_TRUE(ProcessOne(&recovered,
                           MakeMessage(i, 1000 * static_cast<Micros>(i + 1),
                                       i + 1, "cardA", 2.0),
                           &reply)
                    .ok());
  }
  ASSERT_TRUE(ProcessOne(&recovered,
                         MakeMessage(200, 201000, 201, "cardA", 2.0), &reply)
                  .ok());
  // 5-minute window holds all 201 events (timestamps within 201 ms):
  // no event lost, none double-counted across clone + replay.
  EXPECT_DOUBLE_EQ(reply.results[1].value.ToNumber(), 201);
}

TEST(CoordinatorTest, DonorLookupPrefersActiveThenReplicaThenStale) {
  Coordinator coordinator(2);
  coordinator.RegisterUnitDir("u1", "/data/u1");
  coordinator.RegisterUnitDir("u2", "/data/u2");
  coordinator.RegisterUnitDir("u3", "/data/u3");

  std::vector<msg::MemberInfo> members = {{"u1", "node=n1", {}, {"t"}},
                                          {"u2", "node=n2", {}, {"t"}},
                                          {"u3", "node=n3", {}, {"t"}}};
  std::vector<msg::TopicPartition> partitions = {{"t", 0}};
  coordinator.Assign(members, partitions);

  // Someone (not the holder) asks for a donor.
  const msg::TopicPartition task{"t", 0};
  std::string requester = "u3";
  const std::string donor = coordinator.FindDonorDir(task, requester);
  EXPECT_FALSE(donor.empty());
  EXPECT_NE(donor.find(Coordinator::TaskSubdir(task)), std::string::npos);
  // The holder asking for itself must get a *different* unit (or none).
  for (const auto& m : members) {
    const std::string d = coordinator.FindDonorDir(task, m.member_id);
    EXPECT_EQ(d.find("/data/" + m.member_id), std::string::npos);
  }
}

TEST(CoordinatorTest, GenerationAdvancesPerAssign) {
  Coordinator coordinator(1);
  EXPECT_EQ(coordinator.generation(), 0u);
  std::vector<msg::MemberInfo> members = {{"u1", "node=n1", {}, {"t"}}};
  coordinator.Assign(members, {{"t", 0}});
  EXPECT_EQ(coordinator.generation(), 1u);
  coordinator.Assign(members, {{"t", 0}});
  EXPECT_EQ(coordinator.generation(), 2u);
  // Perfectly sticky: nothing moved on the second run.
  EXPECT_EQ(coordinator.total_moved_active(), 1);  // Only the first.
}

TEST(CoordinatorTest, UnitWithoutTopicsHoldsNoTask) {
  // A processor unit joins the active group before its first stream
  // arrives. Until it lists a topic it must hold no task, active or
  // replica: it could not process one.
  Coordinator coordinator(2);
  std::vector<msg::MemberInfo> members = {{"u1", "node=n1", {}, {"t"}},
                                          {"u2", "node=n2", {}, {}}};
  const msg::Assignment assignment =
      coordinator.Assign(members, {{"t", 0}, {"t", 1}});
  EXPECT_EQ(assignment.at("u1").size(), 2u);
  EXPECT_TRUE(assignment.at("u2").empty());
  EXPECT_TRUE(coordinator.ReplicaTasksFor("u2").empty());
}

TEST(ProcessorUnitTest, StreamRegistrationCutsTheParkShort) {
  // The unit joins the active group in Start and parks in its blocking
  // poll. On a frozen simulated clock that park never times out, so a
  // registration applies only if EnqueueRegisterStream wakes it: the
  // first right after Start, the rest once the unit has parked again.
  const std::string dir = "/tmp/railgun_unit_register_test";
  ASSERT_TRUE(Env::Default()->RemoveDirRecursive(dir).ok());
  SimulatedClock clock(0);
  msg::BusOptions bus_options;
  bus_options.delivery_delay = 0;
  bus_options.clock = &clock;
  msg::InProcessBus bus(bus_options);
  const StreamDef stream = PaymentsStream();
  for (const auto& p : stream.partitioners) {
    ASSERT_TRUE(bus.CreateTopic(stream.TopicFor(p), 2).ok());
  }
  Coordinator coordinator(1);
  bus.SetGroupStrategy(kActiveGroup, &coordinator);
  ProcessorUnit unit(UnitOptions(), "n1/u0", "n1", dir + "/u0", &bus,
                     &coordinator, &clock);
  ASSERT_TRUE(unit.Start().ok());

  Clock* real = MonotonicClock::Default();
  for (int i = 0; i < 3; ++i) {
    if (i > 0) real->SleepMicros(30 * kMicrosPerMilli);  // Parked again.
    unit.EnqueueRegisterStream(stream);
    const Micros start = real->NowMicros();
    while (unit.has_pending_streams() &&
           real->NowMicros() - start < 5 * kMicrosPerSecond) {
      real->SleepMicros(100);
    }
    EXPECT_FALSE(unit.has_pending_streams())
        << "registration " << i << " was left to a park that never ends";
  }
  EXPECT_EQ(bus.AssignmentOf("n1/u0").size(), 4u);
  unit.Stop();
  EXPECT_EQ(unit.stats().poll_errors, 0u);
}

}  // namespace
}  // namespace railgun::engine
