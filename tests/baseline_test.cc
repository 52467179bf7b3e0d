// Tests for the hopping-window baseline, including the paper's central
// accuracy argument: hopping windows miss bursts that a true sliding
// window catches (Figure 1), regardless of hop size — and for the
// BaselineWorker that serves the hopping engine over the bus.
#include <gtest/gtest.h>

#include <map>

#include "baseline/hopping_engine.h"
#include "baseline/worker.h"
#include "msg/broker.h"
#include "storage/db.h"

namespace railgun::baseline {
namespace {

class BaselineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(storage::DestroyDB("/tmp/railgun_baseline_test").ok());
    storage::DBOptions options;
    ASSERT_TRUE(
        storage::DB::Open(options, "/tmp/railgun_baseline_test", &db_).ok());
  }
  std::unique_ptr<storage::DB> db_;
};

TEST_F(BaselineTest, HoppingStateCountMatchesRatio) {
  HoppingOptions options;
  options.window_size = 60 * kMicrosPerMinute;
  options.hop = 5 * kMicrosPerMinute;
  HoppingEngine engine(options, db_.get());
  EXPECT_EQ(engine.states_per_event(), 12);

  options.hop = kMicrosPerSecond;
  HoppingEngine fine(options, db_.get());
  EXPECT_EQ(fine.states_per_event(), 3600);
}

TEST_F(BaselineTest, HoppingCountsWithinOneWindowInstance) {
  HoppingOptions options;
  options.window_size = 5 * kMicrosPerMinute;
  options.hop = kMicrosPerMinute;
  HoppingEngine engine(options, db_.get());

  // Events well inside one window instance: counts accumulate.
  BaselineResult result;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(engine
                    .ProcessEvent("card1",
                                  10 * kMicrosPerSecond +
                                      i * kMicrosPerSecond,
                                  1.0, &result)
                    .ok());
  }
  EXPECT_EQ(result.count, 4);
  EXPECT_DOUBLE_EQ(result.sum, 4.0);
}

TEST_F(BaselineTest, Figure1HoppingMissesTheBurst) {
  // The paper's Figure 1: five events within 4.5 minutes, placed
  // strictly *between* hop boundaries (as drawn in the figure). The
  // true 5-minute sliding window contains all five at the last arrival,
  // but no 1-minute-hop instance does.
  HoppingOptions options;
  options.window_size = 5 * kMicrosPerMinute;
  options.hop = kMicrosPerMinute;
  HoppingEngine engine(options, db_.get());

  const double minutes[] = {0.9, 1.9, 2.9, 3.9, 5.4};
  BaselineResult result;
  for (double m : minutes) {
    ASSERT_TRUE(engine
                    .ProcessEvent("card1",
                                  static_cast<Micros>(m * kMicrosPerMinute),
                                  1.0, &result)
                    .ok());
  }
  // The rule "count in last 5 min > 4" should fire (5 events within
  // 4.5 minutes) but hopping reports fewer.
  EXPECT_LT(result.count, 5);
}

TEST_F(BaselineTest, KeysAreIndependent) {
  HoppingOptions options;
  options.window_size = 5 * kMicrosPerMinute;
  options.hop = kMicrosPerMinute;
  HoppingEngine engine(options, db_.get());
  BaselineResult a, b;
  ASSERT_TRUE(engine.ProcessEvent("cardA", 1000, 10.0, &a).ok());
  ASSERT_TRUE(engine.ProcessEvent("cardB", 2000, 20.0, &b).ok());
  EXPECT_DOUBLE_EQ(a.sum, 10.0);
  EXPECT_DOUBLE_EQ(b.sum, 20.0);
}

TEST_F(BaselineTest, WorkerPublishesOneSumCountReplyPerEvent) {
  msg::BusOptions bus_options;
  bus_options.delivery_delay = 0;
  msg::InProcessBus bus(bus_options);
  engine::StreamDef stream;
  stream.name = "payments";
  stream.fields = {{"cardId", reservoir::FieldType::kString},
                   {"amount", reservoir::FieldType::kDouble}};
  stream.partitioners = {"cardId"};
  stream.partitions_per_topic = 2;
  ASSERT_TRUE(bus.CreateTopic("payments.cardId", 2).ok());
  ASSERT_TRUE(bus.CreateTopic("replies.test", 1).ok());

  HoppingOptions options;
  options.window_size = 5 * kMicrosPerMinute;
  options.hop = kMicrosPerMinute;
  HoppingEngine engine(options, db_.get());
  BaselineWorker worker(&bus, &engine, stream, "payments.cardId",
                        MonotonicClock::Default());
  ASSERT_TRUE(worker.Start().ok());

  // Five events of one card inside one window instance: request i
  // carries amount i, so its reply must read sum 1+..+i and count i.
  const reservoir::Schema schema(0, stream.fields);
  std::vector<msg::ProduceRecord> records;
  for (int i = 1; i <= 5; ++i) {
    engine::EventEnvelope envelope;
    envelope.request_id = static_cast<uint64_t>(i);
    envelope.reply_topic = "replies.test";
    envelope.event.id = static_cast<uint64_t>(i);
    envelope.event.timestamp = 10 * kMicrosPerSecond + i * kMicrosPerSecond;
    envelope.event.values = {reservoir::FieldValue("card1"),
                             reservoir::FieldValue(1.0 * i)};
    msg::ProduceRecord record;
    record.key = "card1";
    engine::EncodeEventEnvelope(envelope, schema, &record.payload);
    records.push_back(std::move(record));
  }
  ASSERT_TRUE(bus.ProduceBatch("payments.cardId", std::move(records)).ok());

  Clock* clock = MonotonicClock::Default();
  const Micros deadline = clock->NowMicros() + 5 * kMicrosPerSecond;
  while (bus.EndOffset({"replies.test", 0}).value() < 5 &&
         clock->NowMicros() < deadline) {
    clock->SleepMicros(kMicrosPerMilli);
  }
  worker.Stop();
  EXPECT_EQ(worker.processed(), 5u);

  std::vector<msg::Message> replies;
  ASSERT_TRUE(bus.Fetch({"replies.test", 0}, 0, 100, &replies).ok());
  ASSERT_EQ(replies.size(), 5u);  // One reply per event, no more.
  std::map<uint64_t, engine::ReplyEnvelope> by_request;
  for (const auto& message : replies) {
    engine::ReplyEnvelope reply;
    ASSERT_TRUE(
        engine::DecodeReplyEnvelope(Slice(message.payload), &reply).ok());
    EXPECT_EQ(message.key, "card1");
    by_request[reply.request_id] = reply;
  }
  ASSERT_EQ(by_request.size(), 5u);
  for (const auto& [request_id, reply] : by_request) {
    const double n = static_cast<double>(request_id);
    ASSERT_EQ(reply.results.size(), 2u);
    EXPECT_EQ(reply.results[0].metric_name, "sum(amount)");
    EXPECT_EQ(reply.results[0].group_key, "card1");
    EXPECT_DOUBLE_EQ(reply.results[0].value.ToNumber(), n * (n + 1) / 2);
    EXPECT_EQ(reply.results[1].metric_name, "count(*)");
    EXPECT_EQ(reply.results[1].value.as_int(),
              static_cast<int64_t>(request_id));
  }
}

// Property: per-event state-store writes scale linearly with ws/hop —
// the structural cost the paper's Figure 8 measures.
class HoppingCostTest : public ::testing::TestWithParam<int> {};

TEST_P(HoppingCostTest, PerEventWorkScalesWithRatio) {
  ASSERT_TRUE(storage::DestroyDB("/tmp/railgun_hopcost_test").ok());
  std::unique_ptr<storage::DB> db;
  ASSERT_TRUE(storage::DB::Open(storage::DBOptions(),
                                "/tmp/railgun_hopcost_test", &db).ok());
  HoppingOptions options;
  options.window_size = 60 * kMicrosPerMinute;
  options.hop = options.window_size / GetParam();
  HoppingEngine engine(options, db.get());
  EXPECT_EQ(engine.states_per_event(), GetParam());
  BaselineResult result;
  ASSERT_TRUE(engine.ProcessEvent("c", kMicrosPerHour, 1.0, &result).ok());
}

INSTANTIATE_TEST_SUITE_P(Ratios, HoppingCostTest,
                         ::testing::Values(6, 12, 60, 240, 720));

}  // namespace
}  // namespace railgun::baseline
