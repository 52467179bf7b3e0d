// Tests for the self-instrumentation subsystem: registry concurrency,
// deterministic snapshot publication under simulated time, the
// __railgun.internals wire schema, and admission control end to end
// (exact trip depth, release on drain, typed kOverloaded through the
// public client).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "api/client.h"
#include "engine/admission.h"
#include "engine/frontend.h"
#include "introspect/internals.h"
#include "introspect/publisher.h"
#include "introspect/registry.h"
#include "msg/broker.h"

namespace railgun::introspect {
namespace {

using reservoir::FieldType;
using reservoir::FieldValue;

// ----- Registry ------------------------------------------------------

TEST(RegistryTest, HandlesAreSharedAndStable) {
  Registry registry;
  Counter* a = registry.counter("x");
  Counter* b = registry.counter("x");
  EXPECT_EQ(a, b);  // Same name -> one cluster-wide series.
  EXPECT_NE(static_cast<void*>(a),
            static_cast<void*>(registry.gauge("x")));
  a->Add(3);
  EXPECT_EQ(b->value(), 3u);
}

TEST(RegistryTest, SnapshotIsSortedAndExpandsHistograms) {
  Registry registry;
  registry.counter("z.count")->Add(7);
  registry.gauge("a.depth")->Set(-2);
  registry.histogram("m.latency")->Record(100);
  registry.histogram("m.latency")->Record(300);
  // Duplicate probe names sum (two nodes exporting one series).
  registry.AddProbe("p.dup", [] { return 1.5; });
  registry.AddProbe("p.dup", [] { return 2.5; });

  const std::vector<Sample> samples = registry.Snapshot();
  ASSERT_FALSE(samples.empty());
  EXPECT_TRUE(std::is_sorted(
      samples.begin(), samples.end(),
      [](const Sample& l, const Sample& r) { return l.name < r.name; }));

  auto find = [&](const std::string& name) -> const Sample* {
    for (const auto& s : samples) {
      if (s.name == name) return &s;
    }
    return nullptr;
  };
  ASSERT_NE(find("z.count"), nullptr);
  EXPECT_EQ(find("z.count")->kind, "counter");
  EXPECT_DOUBLE_EQ(find("z.count")->value, 7.0);
  ASSERT_NE(find("a.depth"), nullptr);
  EXPECT_DOUBLE_EQ(find("a.depth")->value, -2.0);
  ASSERT_NE(find("p.dup"), nullptr);
  EXPECT_DOUBLE_EQ(find("p.dup")->value, 4.0);
  ASSERT_NE(find("m.latency.count"), nullptr);
  EXPECT_DOUBLE_EQ(find("m.latency.count")->value, 2.0);
  ASSERT_NE(find("m.latency.mean"), nullptr);
  EXPECT_DOUBLE_EQ(find("m.latency.mean")->value, 200.0);
  ASSERT_NE(find("m.latency.max"), nullptr);
  EXPECT_GE(find("m.latency.max")->value, 300.0);
}

// Hot-path handles and Snapshot must be free of data races (run under
// TSAN in CI): writers hammer shared handles while readers snapshot and
// new series appear concurrently.
TEST(RegistryTest, ConcurrentRecordingAndSnapshots) {
  Registry registry;
  registry.AddProbe("probe", [] { return 1.0; });
  constexpr int kWriters = 4;
  constexpr int kIterations = 5000;
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&registry, w] {
      Counter* shared = registry.counter("shared");
      Gauge* depth = registry.gauge("depth");
      Histogram* lat = registry.histogram("lat");
      for (int i = 0; i < kIterations; ++i) {
        shared->Add(1);
        depth->Add(i % 2 == 0 ? 1 : -1);
        lat->Record(i);
        if (i % 1000 == 0) {
          // Fresh series mid-flight: exercises the map lock against
          // concurrent snapshots.
          registry.counter("writer." + std::to_string(w))->Add(1);
        }
      }
    });
  }
  std::thread reader([&registry, &stop] {
    while (!stop.load()) {
      const std::vector<Sample> samples = registry.Snapshot();
      EXPECT_FALSE(samples.empty());
    }
  });
  for (auto& t : threads) t.join();
  stop.store(true);
  reader.join();

  EXPECT_EQ(registry.counter("shared")->value(),
            static_cast<uint64_t>(kWriters) * kIterations);
  EXPECT_EQ(registry.gauge("depth")->value(), 0);
}

// ----- Internals stream schema ---------------------------------------

TEST(InternalsTest, EventRoundTripsThroughWireEnvelope) {
  const engine::StreamDef def = InternalsStreamDef();
  ASSERT_EQ(def.name, std::string(kInternalsStream));
  ASSERT_EQ(def.partitioners, std::vector<std::string>{"node"});

  InternalsSample in{"node3", "frontend.pending", "gauge", 42.5};
  engine::EventEnvelope envelope;
  envelope.event = MakeInternalsEvent(in, /*timestamp=*/12345, /*id=*/99);

  const reservoir::Schema schema(0, def.fields);
  std::string wire;
  engine::EncodeEventEnvelope(envelope, schema, &wire);
  engine::EventEnvelope decoded;
  ASSERT_TRUE(
      engine::DecodeEventEnvelope(Slice(wire), schema, &decoded).ok());
  EXPECT_EQ(decoded.event.timestamp, 12345);
  EXPECT_EQ(decoded.event.id, 99u);

  InternalsSample out;
  ASSERT_TRUE(ParseInternalsEvent(decoded.event, &out).ok());
  EXPECT_EQ(out.node, in.node);
  EXPECT_EQ(out.metric, in.metric);
  EXPECT_EQ(out.kind, in.kind);
  EXPECT_DOUBLE_EQ(out.value, in.value);

  // Arity/type mismatches are typed Corruption, not UB.
  reservoir::Event truncated = envelope.event;
  truncated.values.pop_back();
  EXPECT_TRUE(ParseInternalsEvent(truncated, &out).IsCorruption());
}

// ----- Publisher under simulated time --------------------------------

TEST(PublisherTest, SnapshotsAreDeterministicUnderSimulatedClock) {
  SimulatedClock clock(5 * kMicrosPerSecond);
  msg::BusOptions bus_options;
  bus_options.delivery_delay = 0;
  bus_options.clock = &clock;
  msg::InProcessBus bus(bus_options);

  Registry registry;
  registry.counter("events")->Add(10);
  registry.gauge("depth")->Set(3);

  PublisherOptions options;
  options.node = "sim-node";
  Publisher publisher(options, &registry, &bus, &clock);
  ASSERT_TRUE(publisher.Start().ok());  // Sim clock: no thread.

  ASSERT_TRUE(publisher.PublishOnce().ok());
  clock.Advance(kMicrosPerSecond);
  registry.counter("events")->Add(5);
  ASSERT_TRUE(publisher.PublishOnce().ok());
  publisher.Stop();
  EXPECT_EQ(publisher.published_samples(), 4u);

  const engine::StreamDef def = InternalsStreamDef();
  const msg::TopicPartition tp{def.TopicFor("node"), 0};
  std::vector<msg::Message> messages;
  ASSERT_TRUE(bus.Fetch(tp, 0, 1024, &messages).ok());
  ASSERT_EQ(messages.size(), 4u);

  const reservoir::Schema schema(0, def.fields);
  std::vector<uint64_t> ids;
  std::vector<InternalsSample> samples;
  for (const auto& message : messages) {
    engine::EventEnvelope envelope;
    ASSERT_TRUE(engine::DecodeEventEnvelope(Slice(message.payload), schema,
                                            &envelope)
                    .ok());
    EXPECT_EQ(envelope.request_id, 0u);  // Fire-and-forget.
    ids.push_back(envelope.event.id);
    InternalsSample sample;
    ASSERT_TRUE(ParseInternalsEvent(envelope.event, &sample).ok());
    EXPECT_EQ(sample.node, "sim-node");
    samples.push_back(std::move(sample));
  }
  // Ids must be distinct across ticks: the reservoirs dedup by id, so a
  // reused id would silently drop the second tick's sample.
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());

  // Tick 1 snapshot (sorted by name): depth, events. Tick 2 reflects
  // the counter increment — same registry state in, same rows out.
  ASSERT_EQ(samples[0].metric, "depth");
  EXPECT_DOUBLE_EQ(samples[0].value, 3.0);
  ASSERT_EQ(samples[1].metric, "events");
  EXPECT_DOUBLE_EQ(samples[1].value, 10.0);
  EXPECT_DOUBLE_EQ(samples[3].value, 15.0);
}

// ----- Admission control ---------------------------------------------

TEST(AdmissionTest, RetryAfterHintRoundTrips) {
  engine::AdmissionOptions options;
  options.max_pending = 2;
  options.retry_after = 75 * kMicrosPerMilli;
  engine::AdmissionController controller(options);
  EXPECT_TRUE(controller.Admit(1).ok());
  const Status shed = controller.Admit(2);
  ASSERT_TRUE(shed.IsOverloaded());
  EXPECT_EQ(engine::RetryAfterMicros(shed), 75 * kMicrosPerMilli);
  EXPECT_EQ(controller.shed_count(), 1u);
  // Non-overloaded statuses carry no hint.
  EXPECT_EQ(engine::RetryAfterMicros(Status::OK()), 0);
  EXPECT_EQ(engine::RetryAfterMicros(Status::Unavailable("x")), 0);
}

TEST(AdmissionTest, TokenBucketPacesAndHonorsPenalty) {
  SimulatedClock clock(kMicrosPerSecond);
  // 1000 tokens/sec, burst 2.
  engine::TokenBucket bucket(1000.0, 2.0, &clock);
  EXPECT_TRUE(bucket.Acquire().ok());
  EXPECT_TRUE(bucket.Acquire().ok());
  EXPECT_TRUE(bucket.Acquire().IsOverloaded());
  EXPECT_EQ(bucket.rejected_count(), 1u);

  clock.Advance(kMicrosPerMilli);  // Refills exactly one token.
  EXPECT_TRUE(bucket.Acquire().ok());
  EXPECT_TRUE(bucket.Acquire().IsOverloaded());

  // A server shed hint freezes refill for the whole window...
  bucket.Penalize(10 * kMicrosPerMilli);
  clock.Advance(5 * kMicrosPerMilli);
  EXPECT_TRUE(bucket.Acquire().IsOverloaded());
  // ...and refill resumes only after it elapses.
  clock.Advance(6 * kMicrosPerMilli);
  EXPECT_TRUE(bucket.Acquire().ok());
}

engine::StreamDef PaymentsStream() {
  engine::StreamDef stream;
  stream.name = "payments";
  stream.fields = {{"cardId", FieldType::kString},
                   {"amount", FieldType::kDouble}};
  stream.partitioners = {"cardId"};
  stream.partitions_per_topic = 1;
  return stream;
}

reservoir::Event PaymentEvent(uint64_t id) {
  reservoir::Event event;
  event.timestamp = 1000;
  event.id = id;
  event.values = {FieldValue("card1"), FieldValue(1.0)};
  return event;
}

// The ceiling is exact: with max_pending = N, exactly N submissions are
// admitted, the N+1-th sheds typed, and draining the table (here via
// the request timeout — no consumers ever reply) re-opens the door.
TEST(AdmissionTest, FrontEndShedsAtExactDepthAndReleasesOnDrain) {
  msg::BusOptions bus_options;
  bus_options.delivery_delay = 0;
  msg::InProcessBus bus(bus_options);

  engine::FrontEndOptions options;
  options.request_timeout = 30 * kMicrosPerMilli;
  options.admission.max_pending = 4;
  engine::FrontEnd frontend(options, "node0", &bus,
                            MonotonicClock::Default());
  ASSERT_TRUE(frontend.Start().ok());
  ASSERT_TRUE(frontend.RegisterStream(PaymentsStream()).ok());

  std::atomic<int> completed{0};
  auto callback = [&completed](Status,
                               const std::vector<engine::MetricReply>&) {
    completed.fetch_add(1);
  };
  for (uint64_t i = 1; i <= 4; ++i) {
    ASSERT_TRUE(frontend.Submit("payments", PaymentEvent(i), callback).ok());
  }
  EXPECT_EQ(frontend.pending_count(), 4u);
  const Status shed = frontend.Submit("payments", PaymentEvent(5), callback);
  ASSERT_TRUE(shed.IsOverloaded());
  EXPECT_GT(engine::RetryAfterMicros(shed), 0);
  EXPECT_EQ(frontend.shed_count(), 1u);

  // Timeouts drain the pending table; admission must release.
  for (int i = 0; i < 500 && frontend.pending_count() > 0; ++i) {
    MonotonicClock::Default()->SleepMicros(10 * kMicrosPerMilli);
  }
  ASSERT_EQ(frontend.pending_count(), 0u);
  EXPECT_EQ(completed.load(), 4);
  EXPECT_TRUE(frontend.Submit("payments", PaymentEvent(6), callback).ok());
  frontend.Stop();
  EXPECT_EQ(frontend.shed_count(), 1u);
}

// kOverloaded must surface through the public client as an
// already-completed future, not an exception or a hang.
TEST(AdmissionTest, OverloadedSurfacesThroughResultFuture) {
  api::ClientOptions options;
  options.base_dir = "/tmp/railgun-introspect-overload";
  options.num_nodes = 1;
  // No processor units: accepted requests stay pending until timeout,
  // so the second submit deterministically finds the table full.
  options.processor_units_per_node = 0;
  options.admission.max_pending = 1;
  api::Client client(options);
  ASSERT_TRUE(client.Start().ok());
  ASSERT_TRUE(client
                  .CreateStream("CREATE STREAM payments (cardId STRING, "
                                "amount DOUBLE) PARTITION BY cardId")
                  .ok());

  const api::Row row =
      api::Row().Set("cardId", "c1").Set("amount", FieldValue(1.0));
  api::ResultFuture accepted = client.Submit("payments", row);
  api::ResultFuture refused = client.Submit("payments", row);
  const api::EventResult result = refused.Get();
  ASSERT_TRUE(result.status.IsOverloaded());
  EXPECT_GT(engine::RetryAfterMicros(result.status), 0);
  client.Stop();  // Completes `accepted` with Unavailable.
  EXPECT_FALSE(accepted.Get().status.ok());
}

}  // namespace
}  // namespace railgun::introspect
