// Tests for the front-end layer in isolation: event routing to
// partitioner topics, reply collection and completion, and the timeout
// path for replies that never arrive.
#include <gtest/gtest.h>

#include <atomic>

#include "engine/frontend.h"
#include "msg/broker.h"
#include "produce_util.h"

namespace railgun::engine {
namespace {

using reservoir::Event;
using reservoir::FieldType;
using reservoir::FieldValue;

StreamDef TwoPartitionerStream() {
  StreamDef stream;
  stream.name = "payments";
  stream.fields = {{"cardId", FieldType::kString},
                   {"merchantId", FieldType::kString},
                   {"amount", FieldType::kDouble}};
  stream.partitioners = {"cardId", "merchantId"};
  stream.partitions_per_topic = 2;
  return stream;
}

Event SampleEvent() {
  Event e;
  e.timestamp = 1000;
  e.id = 1;
  e.values = {FieldValue("card7"), FieldValue("m3"), FieldValue(5.0)};
  return e;
}

// Submission is pipelined: the front-end thread fans queued events out
// in batches, so tests wait for the publishes to land on the bus.
uint64_t WaitForTopicTotal(msg::InProcessBus* bus, const std::string& topic,
                           uint64_t expected) {
  uint64_t total = 0;
  for (int i = 0; i < 500; ++i) {
    total = 0;
    for (const auto& tp : bus->PartitionsOf(topic)) {
      total += bus->EndOffset(tp).value();
    }
    if (total >= expected) break;
    MonotonicClock::Default()->SleepMicros(1000);
  }
  return total;
}

class FrontEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    msg::BusOptions bus_options;
    bus_options.delivery_delay = 0;
    bus_.reset(new msg::InProcessBus(bus_options));
    FrontEndOptions options;
    options.request_timeout = 300 * kMicrosPerMilli;
    frontend_.reset(new FrontEnd(options, "nodeT", bus_.get(),
                                 MonotonicClock::Default()));
    ASSERT_TRUE(frontend_->Start().ok());
    ASSERT_TRUE(frontend_->RegisterStream(TwoPartitionerStream()).ok());
  }

  void TearDown() override { frontend_->Stop(); }

  std::unique_ptr<msg::InProcessBus> bus_;
  std::unique_ptr<FrontEnd> frontend_;
};

TEST_F(FrontEndTest, RoutesEventToEveryPartitionerTopic) {
  ASSERT_TRUE(frontend_->SubmitNoReply("payments", SampleEvent()).ok());
  EXPECT_EQ(WaitForTopicTotal(bus_.get(), "payments.cardId", 1), 1u);
  EXPECT_EQ(WaitForTopicTotal(bus_.get(), "payments.merchantId", 1), 1u);
}

TEST_F(FrontEndTest, UnknownStreamRejected) {
  EXPECT_TRUE(frontend_->SubmitNoReply("nope", SampleEvent()).IsNotFound());
  EXPECT_TRUE(
      frontend_
          ->Submit("nope", SampleEvent(),
                   [](Status, const std::vector<MetricReply>&) {})
          .IsNotFound());
}

TEST_F(FrontEndTest, CompletesWhenAllPartitionerRepliesArrive) {
  std::atomic<int> calls{0};
  std::atomic<size_t> results_seen{0};
  ASSERT_TRUE(frontend_
                  ->Submit("payments", SampleEvent(),
                           [&](Status s,
                               const std::vector<MetricReply>& results) {
                             EXPECT_TRUE(s.ok());
                             results_seen = results.size();
                             ++calls;
                           })
                  .ok());

  // Simulate the two task processors answering: read the envelopes to
  // learn the request id, then produce replies to the reply topic.
  ASSERT_EQ(WaitForTopicTotal(bus_.get(), "payments.cardId", 1), 1u);
  ASSERT_EQ(WaitForTopicTotal(bus_.get(), "payments.merchantId", 1), 1u);
  std::vector<msg::Message> batch;
  uint64_t request_id = 0;
  for (const auto& topic : {"payments.cardId", "payments.merchantId"}) {
    for (const auto& tp : bus_->PartitionsOf(topic)) {
      ASSERT_TRUE(bus_->Fetch(tp, 0, 10, &batch).ok());
      for (const auto& message : batch) {
        EventEnvelope env;
        const reservoir::Schema schema(0, TwoPartitionerStream().fields);
        ASSERT_TRUE(
            DecodeEventEnvelope(Slice(message.payload), schema, &env).ok());
        request_id = env.request_id;
        EXPECT_EQ(env.reply_topic, frontend_->reply_topic());
        ReplyEnvelope reply;
        reply.request_id = request_id;
        reply.results.push_back(
            {"count(*)", "card7", FieldValue(int64_t{1})});
        std::string encoded;
        EncodeReplyEnvelope(reply, &encoded);
        ASSERT_TRUE(msg::ProduceOne(bus_.get(), env.reply_topic, "k",
                                    std::move(encoded))
                        .ok());
      }
    }
  }
  ASSERT_NE(request_id, 0u);

  for (int i = 0; i < 200 && calls == 0; ++i) {
    MonotonicClock::Default()->SleepMicros(5000);
  }
  EXPECT_EQ(calls.load(), 1);  // Exactly one completion.
  EXPECT_EQ(results_seen.load(), 2u);  // One result per partitioner reply.
  EXPECT_EQ(frontend_->completed_requests(), 1u);
  EXPECT_EQ(frontend_->timed_out_requests(), 0u);
}

TEST_F(FrontEndTest, TimesOutWithTypedStatusAndPartialResults) {
  std::atomic<int> calls{0};
  std::atomic<bool> unavailable{false};
  ASSERT_TRUE(frontend_
                  ->Submit("payments", SampleEvent(),
                           [&](Status s, const std::vector<MetricReply>&) {
                             unavailable = s.IsUnavailable();
                             ++calls;
                           })
                  .ok());
  // Nobody replies: the 300 ms deadline must fire exactly once, with a
  // typed Unavailable status (not a silent OK).
  for (int i = 0; i < 300 && calls == 0; ++i) {
    MonotonicClock::Default()->SleepMicros(5000);
  }
  EXPECT_EQ(calls.load(), 1);
  EXPECT_TRUE(unavailable.load());
  EXPECT_EQ(frontend_->timed_out_requests(), 1u);
}

TEST_F(FrontEndTest, OverdueRequestTimesOutWhileTheLoopIsBusy) {
  // The deadline sweep runs once per poll wait, not every cycle: a
  // steady stream of submissions keeps the loop cycling and must not
  // starve it.
  std::atomic<int> calls{0};
  std::atomic<bool> unavailable{false};
  const Micros start = MonotonicClock::Default()->NowMicros();
  std::atomic<Micros> completed_at{0};
  ASSERT_TRUE(frontend_
                  ->Submit("payments", SampleEvent(),
                           [&](Status s, const std::vector<MetricReply>&) {
                             unavailable = s.IsUnavailable() &&
                                           s.message().rfind(
                                               "request timed out", 0) == 0;
                             completed_at =
                                 MonotonicClock::Default()->NowMicros();
                             ++calls;
                           })
                  .ok());
  for (int i = 0; i < 15000 && calls == 0; ++i) {
    ASSERT_TRUE(frontend_->SubmitNoReply("payments", SampleEvent()).ok());
    MonotonicClock::Default()->SleepMicros(200);
  }
  EXPECT_EQ(calls.load(), 1);
  EXPECT_TRUE(unavailable.load());
  EXPECT_GE(completed_at.load() - start, 300 * kMicrosPerMilli);
  EXPECT_EQ(frontend_->timed_out_requests(), 1u);
}

TEST_F(FrontEndTest, LateRepliesAfterTimeoutAreDiscarded) {
  std::atomic<int> calls{0};
  ASSERT_TRUE(frontend_
                  ->Submit("payments", SampleEvent(),
                           [&](Status, const std::vector<MetricReply>&) {
                             ++calls;
                           })
                  .ok());
  for (int i = 0; i < 300 && calls == 0; ++i) {
    MonotonicClock::Default()->SleepMicros(5000);
  }
  ASSERT_EQ(calls.load(), 1);  // Timed out.

  // A straggler reply arrives afterwards: no double completion, no crash
  // (paper §5: late aggregation replies are discarded upstream).
  ReplyEnvelope reply;
  reply.request_id = 12345;  // Unknown/expired id.
  std::string encoded;
  EncodeReplyEnvelope(reply, &encoded);
  ASSERT_TRUE(msg::ProduceOne(bus_.get(), frontend_->reply_topic(), "k",
                              std::move(encoded))
                  .ok());
  MonotonicClock::Default()->SleepMicros(50000);
  EXPECT_EQ(calls.load(), 1);
}

TEST_F(FrontEndTest, StopFailsOutstandingRequests) {
  std::atomic<int> calls{0};
  std::atomic<bool> unavailable{false};
  ASSERT_TRUE(frontend_
                  ->Submit("payments", SampleEvent(),
                           [&](Status s, const std::vector<MetricReply>&) {
                             unavailable = s.IsUnavailable();
                             ++calls;
                           })
                  .ok());
  frontend_->Stop();
  // Every accepted request completes exactly once, with a typed error.
  EXPECT_EQ(calls.load(), 1);
  EXPECT_TRUE(unavailable.load());
}

TEST(FrontEndLifecycleTest, SubmitBeforeStartIsUnavailable) {
  msg::BusOptions bus_options;
  bus_options.delivery_delay = 0;
  msg::InProcessBus bus(bus_options);
  FrontEnd frontend(FrontEndOptions{}, "nodeL", &bus,
                    MonotonicClock::Default());
  ASSERT_TRUE(frontend.RegisterStream(TwoPartitionerStream()).ok());
  EXPECT_TRUE(frontend
                  .Submit("payments", SampleEvent(),
                          [](Status, const std::vector<MetricReply>&) {})
                  .IsUnavailable());
}

}  // namespace
}  // namespace railgun::engine
