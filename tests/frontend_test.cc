// Tests for the front-end layer in isolation: event routing to
// partitioner topics, reply collection and completion, the timeout path
// for replies that never arrive, publish failures and submitters racing
// Stop.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

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

// Messages published to a topic so far, over all its partitions.
uint64_t TopicTotal(msg::InProcessBus* bus, const std::string& topic) {
  uint64_t total = 0;
  for (const auto& tp : bus->PartitionsOf(topic)) {
    total += bus->EndOffset(tp).value();
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

TEST_F(FrontEndTest, SubmitReturnsWithTheEventOnEveryPartitionerTopic) {
  // Submission publishes on the caller's thread: once the call returns,
  // every partitioner topic holds the event.
  ASSERT_TRUE(frontend_->SubmitNoReply("payments", SampleEvent()).ok());
  EXPECT_EQ(TopicTotal(bus_.get(), "payments.cardId"), 1u);
  EXPECT_EQ(TopicTotal(bus_.get(), "payments.merchantId"), 1u);
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
  ASSERT_EQ(TopicTotal(bus_.get(), "payments.cardId"), 1u);
  ASSERT_EQ(TopicTotal(bus_.get(), "payments.merchantId"), 1u);
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

TEST_F(FrontEndTest, SubmittersRacingStopCompleteEveryAcceptedRequestOnce) {
  // Nobody replies: every accepted request completes through Stop or,
  // for a submit that registered after Stop's sweep, on its own thread.
  std::atomic<int> accepted{0};
  std::atomic<int> completions{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&] {
      while (true) {
        const Status s = frontend_->Submit(
            "payments", SampleEvent(),
            [&](Status status, const std::vector<MetricReply>&) {
              EXPECT_TRUE(status.IsUnavailable());
              ++completions;
            });
        if (!s.ok()) {
          EXPECT_TRUE(s.IsUnavailable());
          return;
        }
        ++accepted;
      }
    });
  }
  for (int i = 0; i < 1000 && accepted < 400; ++i) {
    MonotonicClock::Default()->SleepMicros(1000);
  }
  frontend_->Stop();
  for (auto& submitter : submitters) submitter.join();
  EXPECT_GT(accepted.load(), 0);
  EXPECT_EQ(completions.load(), accepted.load());
  EXPECT_EQ(frontend_->pending_count(), 0u);
}

// Fails every publish to one topic.
class FailingBus : public msg::InProcessBus {
 public:
  FailingBus(const msg::BusOptions& options, std::string failing_topic)
      : msg::InProcessBus(options), failing_topic_(std::move(failing_topic)) {}

  Status ProduceBatch(const std::string& topic,
                      std::vector<msg::ProduceRecord> records) override {
    if (topic == failing_topic_) return Status::IOError("injected failure");
    return msg::InProcessBus::ProduceBatch(topic, std::move(records));
  }

 private:
  const std::string failing_topic_;
};

TEST(FrontEndPublishFailureTest, FailsEachRequestOnceOnTheCallingThread) {
  msg::BusOptions bus_options;
  bus_options.delivery_delay = 0;
  FailingBus bus(bus_options, "payments.merchantId");
  FrontEnd frontend(FrontEndOptions{}, "nodeF", &bus,
                    MonotonicClock::Default());
  ASSERT_TRUE(frontend.Start().ok());
  ASSERT_TRUE(frontend.RegisterStream(TwoPartitionerStream()).ok());

  std::atomic<int> calls[3] = {0, 0, 0};
  std::atomic<int> io_errors{0};
  std::atomic<int> off_thread{0};
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<FrontEnd::ReplyCallback> callbacks;
  for (int i = 0; i < 3; ++i) {
    callbacks.push_back([&, i](Status s, const std::vector<MetricReply>&) {
      if (s.IsIOError()) ++io_errors;
      if (std::this_thread::get_id() != caller) ++off_thread;
      ++calls[i];
    });
  }
  ASSERT_TRUE(frontend
                  .SubmitBatch("payments",
                               {SampleEvent(), SampleEvent(), SampleEvent()},
                               std::move(callbacks))
                  .ok());
  // Every request completed with the bus's error before the call
  // returned.
  for (const auto& call : calls) EXPECT_EQ(call.load(), 1);
  EXPECT_EQ(io_errors.load(), 3);
  EXPECT_EQ(off_thread.load(), 0);
  EXPECT_EQ(frontend.publish_errors(), 1u);
  EXPECT_EQ(frontend.pending_count(), 0u);

  frontend.Stop();  // Completes nothing twice.
  for (const auto& call : calls) EXPECT_EQ(call.load(), 1);
}

// Fails every reply poll, as a bus whose transport is down does.
class PollFailingBus : public msg::InProcessBus {
 public:
  using msg::InProcessBus::InProcessBus;

  Status PollBatch(const std::string&, size_t, msg::MessageBatch*,
                   Micros) override {
    ++polls_;
    return Status::IOError("injected poll failure");
  }
  int polls() const { return polls_.load(); }

 private:
  std::atomic<int> polls_{0};
};

// A failed reply poll backs off in real time: on a frozen simulated
// clock the front end neither advances virtual time nor ages a pending
// request past its deadline.
TEST(FrontEndPollFailureTest, BacksOffInRealTimeOnAFrozenClock) {
  SimulatedClock clock(1000 * kMicrosPerSecond);
  msg::BusOptions bus_options;
  bus_options.delivery_delay = 0;
  bus_options.clock = &clock;
  PollFailingBus bus(bus_options);
  FrontEndOptions options;
  options.request_timeout = 50 * kMicrosPerMilli;
  FrontEnd frontend(options, "nodeP", &bus, &clock);
  ASSERT_TRUE(frontend.Start().ok());
  ASSERT_TRUE(frontend.RegisterStream(TwoPartitionerStream()).ok());

  std::atomic<int> calls{0};
  ASSERT_TRUE(frontend
                  .Submit("payments", SampleEvent(),
                          [&](Status, const std::vector<MetricReply>&) {
                            ++calls;
                          })
                  .ok());
  const Micros frozen = clock.NowMicros();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  EXPECT_EQ(clock.NowMicros(), frozen);
  EXPECT_EQ(calls.load(), 0);
  EXPECT_EQ(frontend.pending_count(), 1u);
  EXPECT_EQ(frontend.timed_out_requests(), 0u);
  // One poll per backoff slice, not a spin.
  EXPECT_GT(bus.polls(), 0);
  EXPECT_LT(bus.polls(), 100);

  frontend.Stop();  // Fails the pending request once.
  EXPECT_EQ(calls.load(), 1);
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
