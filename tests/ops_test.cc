// Tests for the stream-operator combinator layer (src/ops/) and live
// subscriptions: the ADD PIPELINE / SUBSCRIBE grammars, the fluent
// builder round-trip, compiled operator semantics (filter/map/by/rate/
// window_count/threshold/changed/route_to_stream) with per-operator
// counters, end-to-end pipeline registration through api::Client (the
// routed events materialize in the target stream), and the
// SubscriptionHub lifecycle: live raw and metric tails, bounded-queue
// slow-subscriber drops, cancel mid-stream, a fenced tail consumer
// ending its subscription without spinning, and hub restart as a typed
// resubscribe signal that never redelivers acked records.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/client.h"
#include "engine/stream_def.h"
#include "msg/broker.h"
#include "ops/pipeline.h"
#include "ops/sub_wire.h"
#include "ops/subscription.h"
#include "produce_util.h"
#include "query/pipeline.h"
#include "reservoir/event.h"

namespace railgun::ops {
namespace {

using reservoir::FieldType;
using reservoir::FieldValue;

constexpr const char* kChain =
    "ADD PIPELINE big_spenders ON payments "
    "| filter(amount > 100) | by(cardId) "
    "| threshold(amount, 500) | route_to_stream(alerts)";

// ----- Grammar ------------------------------------------------------

TEST(PipelineParserTest, ParsesFullChain) {
  auto parsed = query::ParsePipeline(kChain);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const query::PipelineSpec& spec = parsed.value();
  EXPECT_EQ(spec.name, "big_spenders");
  EXPECT_EQ(spec.stream, "payments");
  ASSERT_EQ(spec.ops.size(), 4u);
  EXPECT_EQ(spec.ops[0].kind, query::OpKind::kFilter);
  EXPECT_EQ(spec.ops[1].kind, query::OpKind::kBy);
  EXPECT_EQ(spec.ops[1].keys, std::vector<std::string>{"cardId"});
  EXPECT_EQ(spec.ops[2].kind, query::OpKind::kThreshold);
  EXPECT_EQ(spec.ops[2].field, "amount");
  EXPECT_DOUBLE_EQ(spec.ops[2].limit, 500);
  EXPECT_EQ(spec.ops[3].kind, query::OpKind::kRouteToStream);
  EXPECT_EQ(spec.ops[3].target, "alerts");
  EXPECT_EQ(spec.raw, kChain);
}

TEST(PipelineParserTest, RejectsMalformedStatements) {
  // No operators at all.
  EXPECT_TRUE(query::ParsePipeline("ADD PIPELINE p ON s")
                  .status()
                  .IsInvalidArgument());
  // route_to_stream must be terminal.
  EXPECT_TRUE(query::ParsePipeline(
                  "ADD PIPELINE p ON s | route_to_stream(t) | filter(a > 1)")
                  .status()
                  .IsInvalidArgument());
  // Unknown operator.
  EXPECT_TRUE(query::ParsePipeline("ADD PIPELINE p ON s | frobnicate(x)")
                  .status()
                  .IsInvalidArgument());
  // rate/window_count need a count >= 1.
  EXPECT_TRUE(query::ParsePipeline("ADD PIPELINE p ON s | rate(0)")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(query::ParsePipeline("ADD PIPELINE p ON s | window_count(0)")
                  .status()
                  .IsInvalidArgument());
}

TEST(SubscribeParserTest, RawTailWithFilter) {
  auto parsed = query::ParseSubscribe(
      "SUBSCRIBE SELECT * FROM payments WHERE amount > 100");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed.value().raw_tail);
  EXPECT_EQ(parsed.value().stream, "payments");
  EXPECT_NE(parsed.value().filter, nullptr);
}

TEST(SubscribeParserTest, MetricTailDefaultsToInfiniteWindow) {
  auto parsed = query::ParseSubscribe(
      "SUBSCRIBE SELECT sum(amount) FROM payments GROUP BY cardId");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_FALSE(parsed.value().raw_tail);
  EXPECT_EQ(parsed.value().query.window.kind, window::WindowKind::kInfinite);

  auto sliding = query::ParseSubscribe(
      "SUBSCRIBE SELECT sum(amount) FROM payments GROUP BY cardId "
      "OVER sliding 3 events");
  ASSERT_TRUE(sliding.ok()) << sliding.status().ToString();
  EXPECT_EQ(sliding.value().query.window.kind,
            window::WindowKind::kCountSliding);
  EXPECT_EQ(sliding.value().query.window.count, 3u);
}

TEST(SubscribeParserTest, StatementDetection) {
  EXPECT_TRUE(query::IsSubscribeStatement("SUBSCRIBE SELECT * FROM s"));
  EXPECT_TRUE(query::IsSubscribeStatement("  subscribe select * from s"));
  EXPECT_FALSE(query::IsSubscribeStatement("SELECT * FROM s"));
  EXPECT_FALSE(query::IsSubscribeStatement("ADD PIPELINE p ON s | rate(1)"));
}

TEST(PipelineBuilderTest, SynthesizedStatementRoundTrips) {
  const std::string statement = PipelineBuilder("alerts", "payments")
                                    .Filter("amount > 100")
                                    .By({"cardId", "merchantId"})
                                    .Rate(5)
                                    .WindowCount(3)
                                    .Threshold("amount", 500)
                                    .Changed("amount")
                                    .Map("twice", "amount * 2")
                                    .RouteToStream("big_payments")
                                    .Statement();
  auto parsed = query::ParsePipeline(statement);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << statement;
  EXPECT_EQ(parsed.value().name, "alerts");
  EXPECT_EQ(parsed.value().stream, "payments");
  ASSERT_EQ(parsed.value().ops.size(), 8u);
  EXPECT_EQ(parsed.value().ops.back().kind, query::OpKind::kRouteToStream);
  EXPECT_EQ(parsed.value().ops.back().target, "big_payments");
}

// ----- Compiled operator semantics ----------------------------------

reservoir::Schema PaymentsSchema() {
  return reservoir::Schema(
      0, {{"cardId", FieldType::kString}, {"amount", FieldType::kDouble}});
}

reservoir::Event MakeEvent(uint64_t id, Micros ts, const std::string& card,
                           double amount) {
  reservoir::Event event;
  event.id = id;
  event.timestamp = ts;
  event.values = {FieldValue(card), FieldValue(amount)};
  return event;
}

std::unique_ptr<Pipeline> MustCompile(const std::string& statement) {
  auto compiled =
      Pipeline::Compile(statement, PaymentsSchema(), /*registry=*/nullptr);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  return std::move(compiled).value();
}

TEST(CompiledPipelineTest, FilterMapRoute) {
  auto pipeline = MustCompile(
      "ADD PIPELINE p ON payments | filter(amount > 100) "
      "| map(twice = amount * 2) | route_to_stream(alerts)");
  std::vector<RoutedEvent> routed;
  pipeline->Process(MakeEvent(1, 10, "c1", 50.0), &routed);
  EXPECT_TRUE(routed.empty());

  pipeline->Process(MakeEvent(2, 20, "c1", 200.0), &routed);
  ASSERT_EQ(routed.size(), 1u);
  EXPECT_EQ(routed[0].target, "alerts");
  EXPECT_EQ(routed[0].source_id, 2u);
  EXPECT_EQ(routed[0].timestamp, 20);
  // The routed event carries the effective schema: source fields plus
  // the map-synthesized one.
  std::map<std::string, FieldValue> fields(routed[0].fields.begin(),
                                           routed[0].fields.end());
  ASSERT_EQ(fields.count("twice"), 1u);
  EXPECT_DOUBLE_EQ(fields["twice"].ToNumber(), 400.0);
  EXPECT_EQ(fields["cardId"].ToString(), "c1");
}

TEST(CompiledPipelineTest, ThresholdAndChanged) {
  auto pipeline = MustCompile(
      "ADD PIPELINE p ON payments | threshold(amount, 100) "
      "| changed(cardId) | route_to_stream(alerts)");
  std::vector<RoutedEvent> routed;
  pipeline->Process(MakeEvent(1, 1, "c1", 150.0), &routed);  // First: passes.
  pipeline->Process(MakeEvent(2, 2, "c1", 160.0), &routed);  // Same card.
  pipeline->Process(MakeEvent(3, 3, "c2", 170.0), &routed);  // Transition.
  pipeline->Process(MakeEvent(4, 4, "c1", 50.0), &routed);   // Under limit.
  ASSERT_EQ(routed.size(), 2u);
  EXPECT_EQ(routed[0].source_id, 1u);
  EXPECT_EQ(routed[1].source_id, 3u);
}

TEST(CompiledPipelineTest, ByKeysStatePerEntity) {
  // Every 2nd event per card passes; interleave two cards to prove the
  // counter is keyed, not global.
  auto pipeline = MustCompile(
      "ADD PIPELINE p ON payments | by(cardId) | window_count(2) "
      "| route_to_stream(alerts)");
  std::vector<RoutedEvent> routed;
  pipeline->Process(MakeEvent(1, 1, "a", 1.0), &routed);
  pipeline->Process(MakeEvent(2, 2, "b", 1.0), &routed);
  pipeline->Process(MakeEvent(3, 3, "a", 1.0), &routed);
  pipeline->Process(MakeEvent(4, 4, "b", 1.0), &routed);
  ASSERT_EQ(routed.size(), 2u);
  EXPECT_EQ(routed[0].source_id, 3u);
  EXPECT_EQ(routed[1].source_id, 4u);
  // The synthesized window_count field rode along.
  std::map<std::string, FieldValue> fields(routed[0].fields.begin(),
                                           routed[0].fields.end());
  ASSERT_EQ(fields.count("window_count"), 1u);
}

TEST(CompiledPipelineTest, RateEmitsOncePerInterval) {
  auto pipeline = MustCompile(
      "ADD PIPELINE p ON payments | rate(1) | route_to_stream(alerts)");
  std::vector<RoutedEvent> routed;
  // Three events inside the same 1s interval, one in the next.
  pipeline->Process(MakeEvent(1, 0, "a", 1.0), &routed);
  pipeline->Process(MakeEvent(2, 200 * kMicrosPerMilli, "a", 1.0), &routed);
  pipeline->Process(MakeEvent(3, 400 * kMicrosPerMilli, "a", 1.0), &routed);
  pipeline->Process(MakeEvent(4, 1500 * kMicrosPerMilli, "a", 1.0), &routed);
  // One emission per interval boundary crossed.
  ASSERT_GE(routed.size(), 1u);
  std::map<std::string, FieldValue> fields(routed.back().fields.begin(),
                                           routed.back().fields.end());
  ASSERT_EQ(fields.count("rate"), 1u);
  EXPECT_GT(fields["rate"].ToNumber(), 0.0);
}

TEST(CompiledPipelineTest, CountersTrackPerOperatorFlow) {
  auto pipeline = MustCompile(
      "ADD PIPELINE p ON payments | filter(amount > 100) "
      "| route_to_stream(alerts)");
  std::vector<RoutedEvent> routed;
  pipeline->Process(MakeEvent(1, 1, "a", 50.0), &routed);
  pipeline->Process(MakeEvent(2, 2, "a", 200.0), &routed);
  pipeline->Process(MakeEvent(3, 3, "a", 300.0), &routed);
  std::vector<OpCounters> counters = pipeline->CountersSnapshot();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0].in, 3u);
  EXPECT_EQ(counters[0].out, 2u);  // One absorbed on purpose, not dropped.
  EXPECT_EQ(counters[0].dropped, 0u);
  EXPECT_EQ(counters[1].in, 2u);
}

TEST(CompiledPipelineTest, CompileRejectsUnknownFields) {
  EXPECT_TRUE(Pipeline::Compile(
                  "ADD PIPELINE p ON payments | filter(nope > 1) "
                  "| route_to_stream(alerts)",
                  PaymentsSchema(), nullptr)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(Pipeline::Compile(
                  "ADD PIPELINE p ON payments | threshold(nope, 1) "
                  "| route_to_stream(alerts)",
                  PaymentsSchema(), nullptr)
                  .status()
                  .IsInvalidArgument());
}

// ----- End-to-end through api::Client -------------------------------

api::ClientOptions TestOptions(const std::string& name) {
  api::ClientOptions options;
  options.num_nodes = 1;
  options.processor_units_per_node = 2;
  options.base_dir = "/tmp/railgun-ops-test-" + name;
  return options;
}

constexpr const char* kPaymentsDdl =
    "CREATE STREAM payments (cardId STRING, amount DOUBLE) "
    "PARTITION BY cardId PARTITIONS 2";
constexpr const char* kAlertsDdl =
    "CREATE STREAM alerts (cardId STRING, amount DOUBLE) "
    "PARTITION BY cardId PARTITIONS 2";

TEST(PipelineEndToEndTest, RoutedEventsMaterializeInTargetStream) {
  api::Client client(TestOptions("route"));
  ASSERT_TRUE(client.Start().ok());
  ASSERT_TRUE(client.CreateStream(kPaymentsDdl).ok());
  ASSERT_TRUE(client.CreateStream(kAlertsDdl).ok());
  ASSERT_TRUE(client
                  .Query("ADD METRIC SELECT count(*) FROM alerts "
                         "GROUP BY cardId OVER infinite")
                  .ok());
  const Status added = client.Execute(
      "ADD PIPELINE big ON payments | filter(amount > 100) | by(cardId) "
      "| threshold(amount, 150) | route_to_stream(alerts)");
  ASSERT_TRUE(added.ok()) << added.ToString();

  // Registered pipelines are listable.
  std::vector<query::PipelineSpec> pipelines = client.ListPipelines();
  ASSERT_EQ(pipelines.size(), 1u);
  EXPECT_EQ(pipelines[0].name, "big");
  EXPECT_EQ(pipelines[0].stream, "payments");

  // Re-registering the same statement is AlreadyExists, not a dup.
  EXPECT_TRUE(client
                  .AddPipeline(
                      "ADD PIPELINE big ON payments | filter(amount > 100) "
                      "| by(cardId) | threshold(amount, 150) "
                      "| route_to_stream(alerts)")
                  .IsAlreadyExists());

  // 60 and 120 are filtered out (<= 150); 200 and 300 route to alerts.
  for (const double amount : {60.0, 120.0, 200.0, 300.0}) {
    ASSERT_TRUE(client
                    .SubmitSync("payments", api::Row()
                                                .Set("cardId", "c1")
                                                .Set("amount", amount))
                    .ok());
  }

  // Routed republication is asynchronous (fire-and-forget): probe the
  // alerts metric until the two derived events have landed.
  double count = 0;
  for (int attempt = 0; attempt < 100 && count < 3.0; ++attempt) {
    api::EventResult probe = client.SubmitSync(
        "alerts",
        api::Row().Set("cardId", "c1").Set("amount", 0.0));
    ASSERT_TRUE(probe.ok()) << probe.status.ToString();
    ASSERT_NE(probe.Find("count(*)", "c1"), nullptr);
    count = probe.Find("count(*)", "c1")->value.ToNumber();
    if (count < 3.0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  // 2 routed events + at least one probe event.
  EXPECT_GE(count, 3.0);

  // The pipeline and routing counters surface on the internals stream.
  auto samples = client.InternalsSnapshot();
  ASSERT_TRUE(samples.ok());
  client.Stop();
}

TEST(PipelineEndToEndTest, AddPipelineValidatesUpFront) {
  api::Client client(TestOptions("validate"));
  ASSERT_TRUE(client.Start().ok());
  ASSERT_TRUE(client.CreateStream(kPaymentsDdl).ok());
  // Unknown source stream.
  EXPECT_TRUE(client
                  .AddPipeline("ADD PIPELINE p ON nope | filter(amount > 1) "
                               "| route_to_stream(alerts)")
                  .IsNotFound());
  // Filter over a field the stream does not have.
  EXPECT_TRUE(client
                  .AddPipeline("ADD PIPELINE p ON payments | filter(x > 1) "
                               "| route_to_stream(alerts)")
                  .IsInvalidArgument());
  // Execute() routes SUBSCRIBE to a typed redirect.
  EXPECT_TRUE(client.Execute("SUBSCRIBE SELECT * FROM payments")
                  .IsInvalidArgument());
  client.Stop();
}

// ----- Live subscriptions through api::Client -----------------------

TEST(SubscriptionTest, RawTailDeliversOnlyLiveMatchingEvents) {
  api::Client client(TestOptions("rawtail"));
  ASSERT_TRUE(client.Start().ok());
  ASSERT_TRUE(client.CreateStream(kPaymentsDdl).ok());

  // History: submitted before the subscription attaches; never delivered.
  ASSERT_TRUE(client
                  .SubmitSync("payments", api::Row()
                                              .Set("cardId", "old")
                                              .Set("amount", 999.0))
                  .ok());

  auto sub = client.Subscribe(
      "SUBSCRIBE SELECT * FROM payments WHERE amount > 100");
  ASSERT_TRUE(sub.ok()) << sub.status().ToString();

  for (const double amount : {50.0, 200.0, 300.0}) {
    ASSERT_TRUE(client
                    .SubmitSync("payments", api::Row()
                                                .Set("cardId", "c1")
                                                .Set("amount", amount))
                    .ok());
  }

  std::vector<SubRecord> records;
  std::vector<SubRecord> batch;
  const Micros deadline = 5 * kMicrosPerSecond;
  for (int i = 0; i < 20 && records.size() < 2; ++i) {
    ASSERT_TRUE(sub.value()->Next(&batch, deadline / 20).ok());
    records.insert(records.end(), batch.begin(), batch.end());
  }
  ASSERT_EQ(records.size(), 2u);
  for (const auto& record : records) {
    std::map<std::string, FieldValue> fields(record.fields.begin(),
                                             record.fields.end());
    EXPECT_EQ(fields["cardId"].ToString(), "c1");
    EXPECT_GT(fields["amount"].ToNumber(), 100.0);
  }
  EXPECT_TRUE(sub.value()->Cancel().ok());
  client.Stop();
}

TEST(SubscriptionTest, MetricTailPushesIncrementalUpdates) {
  api::Client client(TestOptions("metrictail"));
  ASSERT_TRUE(client.Start().ok());
  ASSERT_TRUE(client.CreateStream(kPaymentsDdl).ok());

  auto sub = client.Subscribe(
      "SUBSCRIBE SELECT sum(amount) FROM payments GROUP BY cardId");
  ASSERT_TRUE(sub.ok()) << sub.status().ToString();

  ASSERT_TRUE(client
                  .SubmitSync("payments",
                              api::Row().Set("cardId", "c1").Set("amount",
                                                                 10.0))
                  .ok());
  ASSERT_TRUE(client
                  .SubmitSync("payments",
                              api::Row().Set("cardId", "c1").Set("amount",
                                                                 4.5))
                  .ok());

  std::vector<SubRecord> records;
  std::vector<SubRecord> batch;
  for (int i = 0; i < 20 && records.size() < 2; ++i) {
    ASSERT_TRUE(
        sub.value()->Next(&batch, 250 * kMicrosPerMilli).ok());
    records.insert(records.end(), batch.begin(), batch.end());
  }
  ASSERT_EQ(records.size(), 2u);
  std::map<std::string, FieldValue> first(records[0].fields.begin(),
                                          records[0].fields.end());
  std::map<std::string, FieldValue> second(records[1].fields.begin(),
                                           records[1].fields.end());
  EXPECT_DOUBLE_EQ(first["sum(amount)"].ToNumber(), 10.0);
  EXPECT_DOUBLE_EQ(second["sum(amount)"].ToNumber(), 14.5);
  EXPECT_EQ(first["cardId"].ToString(), "c1");
  client.Stop();
}

TEST(SubscriptionTest, RejectsUnsupportedStatements) {
  api::Client client(TestOptions("subreject"));
  ASSERT_TRUE(client.Start().ok());
  ASSERT_TRUE(client.CreateStream(kPaymentsDdl).ok());
  // Time-window metric tails need a registered metric.
  EXPECT_TRUE(client
                  .Subscribe("SUBSCRIBE SELECT sum(amount) FROM payments "
                             "GROUP BY cardId OVER sliding 5 minutes")
                  .status()
                  .IsInvalidArgument());
  // countDistinct needs stateful storage.
  EXPECT_TRUE(client
                  .Subscribe("SUBSCRIBE SELECT countDistinct(cardId) "
                             "FROM payments")
                  .status()
                  .IsInvalidArgument());
  // Unknown stream.
  EXPECT_TRUE(client.Subscribe("SUBSCRIBE SELECT * FROM nope")
                  .status()
                  .IsNotFound());
  client.Stop();
}

// ----- Hub lifecycle on a bare bus ----------------------------------

engine::StreamDef BareStream() {
  engine::StreamDef def;
  def.name = "payments";
  def.fields = {{"cardId", FieldType::kString},
                {"amount", FieldType::kDouble}};
  def.partitioners = {"cardId"};
  def.partitions_per_topic = 2;
  return def;
}

class HubTest : public ::testing::Test {
 protected:
  void SetUp() override {
    def_ = BareStream();
    topic_ = def_.TopicFor("cardId");
    ASSERT_TRUE(bus_.CreateTopic(topic_, def_.partitions_per_topic).ok());
  }

  SubscriptionHub::StreamLookup Lookup() {
    return [this](const std::string& name) -> StatusOr<engine::StreamDef> {
      if (name != def_.name) return Status::NotFound("unknown: " + name);
      return def_;
    };
  }

  // Publishes like a front end does: the envelope encodes offset 0.
  // A negative partition routes by the card key; otherwise the record
  // gets a key that hashes to `partition`.
  void Publish(uint64_t id, const std::string& card, double amount,
               int partition = -1) {
    engine::EventEnvelope envelope;
    envelope.event = MakeEvent(id, static_cast<Micros>(id), card, amount);
    std::string payload;
    engine::EncodeEventEnvelope(envelope, reservoir::Schema(0, def_.fields),
                                &payload);
    const std::string key =
        partition < 0
            ? card
            : msg::KeyForPartition(partition, def_.partitions_per_topic);
    ASSERT_TRUE(
        msg::ProduceOne(&bus_, topic_, key, std::move(payload)).ok());
  }

  // The metric column of each record, in delivery order.
  static std::vector<double> Column(const std::vector<SubRecord>& records,
                                    const std::string& name) {
    std::vector<double> column;
    for (const auto& record : records) {
      for (const auto& [field, value] : record.fields) {
        if (field == name) column.push_back(value.ToNumber());
      }
    }
    return column;
  }

  // Long-polls the hub until `count` records arrived (acking as the
  // api::Subscription handle would) or the attempt budget runs out.
  std::vector<SubRecord> FetchAtLeast(SubscriptionHub* hub, uint64_t id,
                                      size_t count) {
    std::vector<SubRecord> records;
    uint64_t acked = 0;
    for (int i = 0; i < 50 && records.size() < count; ++i) {
      SubFetchReply reply;
      const Status s =
          hub->Fetch(id, acked, /*max_records=*/0, 100 * kMicrosPerMilli,
                     &reply);
      if (!s.ok()) break;
      if (!reply.records.empty()) acked = reply.records.back().seq;
      records.insert(records.end(), reply.records.begin(),
                     reply.records.end());
    }
    return records;
  }

  msg::InProcessBus bus_;
  engine::StreamDef def_;
  std::string topic_;
};

TEST_F(HubTest, SlowSubscriberQueueStaysBoundedWithTypedDrops) {
  SubscriptionHubOptions options;
  options.queue_capacity = 4;
  SubscriptionHub hub(&bus_, Lookup(), /*registry=*/nullptr, options);
  auto created = hub.Create("SUBSCRIBE SELECT * FROM payments");
  ASSERT_TRUE(created.ok()) << created.status().ToString();

  // Flood without fetching: the queue must stay at capacity and the
  // overflow must be counted, not buffered.
  for (uint64_t i = 1; i <= 40; ++i) Publish(i, "c1", 1.0 * i);
  // Fetch (never acking) until the pump has taken all 40 events, each
  // either dropped or still queued. A non-empty queue answers at once,
  // so a deadline bounds the loop, not an iteration count.
  Clock* clock = MonotonicClock::Default();
  const Micros deadline = clock->NowMicros() + 5 * kMicrosPerSecond;
  SubFetchReply reply;
  for (;;) {
    ASSERT_TRUE(hub.Fetch(created.value(), 0, 0, 100 * kMicrosPerMilli,
                          &reply)
                    .ok());
    const uint64_t pumped =
        reply.dropped_total + reply.records.size() + reply.lag;
    if (pumped >= 40) break;
    ASSERT_LT(clock->NowMicros(), deadline) << "pump took only " << pumped;
    clock->SleepMicros(kMicrosPerMilli);
  }
  EXPECT_LE(hub.TotalQueueDepth(), 4u);
  EXPECT_GE(reply.dropped_total, 36u);
  ASSERT_FALSE(reply.records.empty());
  // Drop-oldest: what survives is the tail of the flood, with a seq gap
  // where the evicted records were.
  EXPECT_GT(reply.records.front().seq, 1u);
}

TEST_F(HubTest, SlidingMaxExpiresTheOldestEventNotTheMaximum) {
  SubscriptionHub hub(&bus_, Lookup(), nullptr);
  auto created = hub.Create(
      "SUBSCRIBE SELECT max(amount) FROM payments OVER sliding 3 events");
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  // Windows: {1}, {1,5}, {1,5,2}, {5,2,2}. The fourth update expires the
  // 1, which the deque already dropped, so the 5 must survive.
  const double amounts[] = {1, 5, 2, 2};
  for (uint64_t i = 0; i < 4; ++i) Publish(i + 1, "c1", amounts[i]);
  EXPECT_EQ(Column(FetchAtLeast(&hub, created.value(), 4), "max(amount)"),
            (std::vector<double>{1, 5, 5, 5}));
}

TEST_F(HubTest, SlidingMaxMatchesExpiriesAcrossPartitions) {
  // A stream-wide tail reads every partition, where log offsets repeat:
  // partition 1's first event shares offset 0 with partition 0's.
  SubscriptionHub hub(&bus_, Lookup(), nullptr);
  auto created = hub.Create(
      "SUBSCRIBE SELECT max(amount) FROM payments OVER sliding 3 events");
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::vector<SubRecord> records;
  uint64_t acked = 0;
  // Await each update before the next publish, so the hub sees exactly
  // this arrival order.
  const std::pair<int, double> arrivals[] = {{0, 1}, {0, 2}, {1, 9}, {1, 3}};
  uint64_t id = 0;
  for (const auto& [partition, amount] : arrivals) {
    Publish(++id, "c" + std::to_string(partition), amount, partition);
    SubFetchReply reply;
    for (int i = 0; i < 50 && reply.records.empty(); ++i) {
      ASSERT_TRUE(hub.Fetch(created.value(), acked, /*max_records=*/0,
                            100 * kMicrosPerMilli, &reply)
                      .ok());
    }
    ASSERT_EQ(reply.records.size(), 1u);
    acked = reply.records.back().seq;
    records.push_back(reply.records.back());
  }
  // The last window is {2, 9, 3}: expiring the 1 must not pop the 9.
  EXPECT_EQ(Column(records, "max(amount)"),
            (std::vector<double>{1, 2, 9, 9}));
}

TEST_F(HubTest, CancelMidStreamYieldsNotFound) {
  SubscriptionHub hub(&bus_, Lookup(), nullptr);
  auto created = hub.Create("SUBSCRIBE SELECT * FROM payments");
  ASSERT_TRUE(created.ok());
  Publish(1, "c1", 10.0);
  ASSERT_FALSE(FetchAtLeast(&hub, created.value(), 1).empty());

  ASSERT_TRUE(hub.Cancel(created.value()).ok());
  EXPECT_EQ(hub.subscriber_count(), 0u);
  SubFetchReply reply;
  EXPECT_TRUE(hub.Fetch(created.value(), 0, 0, 0, &reply).IsNotFound());
  // Cancelling twice is the caller's idempotence problem: typed NotFound.
  EXPECT_TRUE(hub.Cancel(created.value()).IsNotFound());
}

TEST_F(HubTest, FencedTailEndsTheSubscriptionWithoutSpinning) {
  introspect::Registry registry;
  SubscriptionHub hub(&bus_, Lookup(), &registry);
  auto created = hub.Create("SUBSCRIBE SELECT * FROM payments");
  ASSERT_TRUE(created.ok());
  // The hub names each tail consumer after itself and the subscription.
  const std::string consumer =
      "__railgun.sub." + std::to_string(reinterpret_cast<uintptr_t>(&hub)) +
      "." + std::to_string(created.value());
  ASSERT_TRUE(bus_.KillConsumer(consumer).ok());

  // The client's next fetch gets the typed resubscribe signal promptly.
  const Micros fenced_at = MonotonicClock::Default()->NowMicros();
  Status fetched;
  while (MonotonicClock::Default()->NowMicros() - fenced_at <
         kMicrosPerSecond) {
    SubFetchReply reply;
    fetched = hub.Fetch(created.value(), 0, 0, 100 * kMicrosPerMilli, &reply);
    if (!fetched.ok()) break;
  }
  EXPECT_TRUE(fetched.IsNotFound()) << fetched.ToString();
  // A pump spinning on failed polls would count thousands by now.
  MonotonicClock::Default()->SleepMicros(200 * kMicrosPerMilli);
  EXPECT_LE(registry.counter("subscribe.errors")->value(), 10u);
  EXPECT_TRUE(hub.Cancel(created.value()).ok());
}

TEST_F(HubTest, RestartInvalidatesIdsWithoutRedeliveringAckedRecords) {
  auto hub = std::make_unique<SubscriptionHub>(&bus_, Lookup(), nullptr);
  auto created = hub->Create("SUBSCRIBE SELECT * FROM payments");
  ASSERT_TRUE(created.ok());
  const uint64_t old_id = created.value();

  Publish(1, "c1", 10.0);
  Publish(2, "c1", 20.0);
  // Fetch and ack both records: they are consumed.
  ASSERT_EQ(FetchAtLeast(hub.get(), old_id, 2).size(), 2u);

  // "Restart": the hub dies with its subscription table.
  hub.reset();
  SubscriptionHub fresh(&bus_, Lookup(), nullptr);

  // The old id is a typed resubscribe signal, not an error blob.
  SubFetchReply reply;
  EXPECT_TRUE(fresh.Fetch(old_id, 0, 0, 0, &reply).IsNotFound());

  auto resubscribed = fresh.Create("SUBSCRIBE SELECT * FROM payments");
  ASSERT_TRUE(resubscribed.ok());
  Publish(3, "c1", 30.0);
  std::vector<SubRecord> records =
      FetchAtLeast(&fresh, resubscribed.value(), 1);
  // Only the post-resubscribe event: the acked history cannot replay
  // (the fresh tail attaches at the stream's end).
  ASSERT_EQ(records.size(), 1u);
  std::map<std::string, FieldValue> fields(records[0].fields.begin(),
                                           records[0].fields.end());
  EXPECT_DOUBLE_EQ(fields["amount"].ToNumber(), 30.0);
}

TEST_F(HubTest, WireHandlerServesCreateFetchCancel) {
  SubscriptionHub hub(&bus_, Lookup(), nullptr);

  SubCreateRequest create;
  create.statement = "SUBSCRIBE SELECT * FROM payments";
  std::string payload, result;
  EncodeSubCreateRequest(create, &payload);
  Status status;
  ASSERT_TRUE(hub.HandleWire(40, Slice(payload), &status, &result));
  ASSERT_TRUE(status.ok()) << status.ToString();
  SubCreateReply created;
  ASSERT_TRUE(DecodeSubCreateReply(Slice(result), &created).ok());

  Publish(1, "c1", 10.0);
  SubFetchRequest fetch;
  fetch.sub_id = created.sub_id;
  fetch.max_wait_us = kMicrosPerSecond;
  SubFetchReply fetched;
  for (int i = 0; i < 20 && fetched.records.empty(); ++i) {
    payload.clear();
    result.clear();
    EncodeSubFetchRequest(fetch, &payload);
    ASSERT_TRUE(hub.HandleWire(41, Slice(payload), &status, &result));
    ASSERT_TRUE(status.ok());
    ASSERT_TRUE(DecodeSubFetchReply(Slice(result), &fetched).ok());
  }
  ASSERT_EQ(fetched.records.size(), 1u);

  SubCancelRequest cancel;
  cancel.sub_id = created.sub_id;
  payload.clear();
  result.clear();
  EncodeSubCancelRequest(cancel, &payload);
  ASSERT_TRUE(hub.HandleWire(42, Slice(payload), &status, &result));
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(hub.subscriber_count(), 0u);

  // Non-subscription opcodes fall through to the next handler.
  EXPECT_FALSE(hub.HandleWire(7, Slice(payload), &status, &result));
}

}  // namespace
}  // namespace railgun::ops
