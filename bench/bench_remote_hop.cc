// bench_remote_hop: the cost of a real messaging hop.
//
// Measures produce -> poll delivery through (a) the in-process bus with
// its simulated delivery_delay and (b) the same broker behind a
// BusServer, reached through RemoteBus over a loopback TCP socket.
// Reports events/sec for a batched pipeline and per-event p50/p99
// latency for a sequential request/response loop.
//
//   RAILGUN_BENCH_EVENTS  pipeline events per series (default 20000)
//   RAILGUN_BENCH_PINGS   sequential latency samples (default 2000)
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_json.h"
#include "common/clock.h"
#include "common/histogram.h"
#include "common/logging.h"
#include "msg/broker.h"
#include "msg/remote/bus_server.h"
#include "msg/remote/remote_bus.h"
#include "trace/trace_context.h"
#include "trace/tracer.h"

using namespace railgun;
using msg::Bus;
using msg::MessageBatch;
using msg::ProduceRecord;

namespace {

struct HopResult {
  double events_per_sec = 0;
  LatencyHistogram latency;
};

// Sequential ping latency + batched pipeline throughput over any Bus.
// With `traced`, every pipeline batch carries a freshly minted trace
// context (the tracer decides span sampling), so the wire trailer and
// the server-side append span path are on the measured path.
HopResult DriveHop(Bus* producer_bus, Bus* consumer_bus, int64_t pings,
                   int64_t events, bool traced = false) {
  HopResult result;
  Clock* clock = MonotonicClock::Default();
  const char* kTopic = "hop";
  {
    const Status s = producer_bus->CreateTopic(kTopic, 1);
    if (!s.ok() && !s.IsAlreadyExists()) {
      fprintf(stderr, "CreateTopic: %s\n", s.ToString().c_str());
      return result;
    }
  }
  if (!consumer_bus->Subscribe("hop-consumer", "hop-group", {kTopic}, "", {})
           .ok()) {
    return result;
  }
  MessageBatch batch;
  RAILGUN_CHECK_OK(
      consumer_bus->PollBatch("hop-consumer", 16, &batch));  // Assignment.

  // Phase 1: sequential produce -> blocking poll, per-event latency.
  for (int64_t i = 0; i < pings; ++i) {
    const Micros sent = clock->NowMicros();
    if (!producer_bus->ProduceBatch(kTopic, {{"k", "ping"}}).ok()) {
      return result;
    }
    do {
      if (!consumer_bus
               ->PollBatch("hop-consumer", 16, &batch, kMicrosPerSecond)
               .ok()) {
        return result;
      }
    } while (batch.empty());
    result.latency.Record(clock->NowMicros() - sent);
  }

  // Phase 2: batched pipeline throughput. A producer thread ships
  // batches; the consumer drains through blocking polls.
  const size_t kBatch = 256;
  std::thread producer([&] {
    trace::Tracer* tracer = trace::Tracer::Global();
    std::vector<ProduceRecord> records;
    for (int64_t sent = 0; sent < events;) {
      records.clear();
      for (size_t b = 0; b < kBatch && sent < events; ++b, ++sent) {
        records.push_back({"k" + std::to_string(sent % 64), "payload"});
      }
      const trace::TraceContext ctx =
          traced ? tracer->Mint() : trace::TraceContext();
      const trace::ScopedTraceContext scope(ctx);
      if (!producer_bus->ProduceBatch(kTopic, std::move(records)).ok()) {
        return;
      }
      records = {};
    }
  });
  int64_t received = 0;
  const Micros start = clock->NowMicros();
  while (received < events) {
    if (!consumer_bus
             ->PollBatch("hop-consumer", 1024, &batch, kMicrosPerSecond)
             .ok()) {
      break;
    }
    if (batch.empty()) break;  // Producer failed or stalled.
    received += static_cast<int64_t>(batch.size());
  }
  const Micros elapsed = clock->NowMicros() - start;
  producer.join();
  (void)consumer_bus->Unsubscribe("hop-consumer");  // Best effort teardown.
  if (elapsed > 0 && received > 0) {
    result.events_per_sec =
        static_cast<double>(received) * kMicrosPerSecond /
        static_cast<double>(elapsed);
  }
  return result;
}

void PrintRow(const char* label, const HopResult& result) {
  printf("%-26s %12.0f ev/s   p50 %7.1f us   p99 %7.1f us   mean %7.1f us\n",
         label, result.events_per_sec,
         static_cast<double>(result.latency.ValueAtPercentile(50)),
         static_cast<double>(result.latency.ValueAtPercentile(99)),
         result.latency.Mean());
  fflush(stdout);
}

}  // namespace

int main() {
  const int64_t events = bench::EnvInt("RAILGUN_BENCH_EVENTS", 20000);
  const int64_t pings = bench::EnvInt("RAILGUN_BENCH_PINGS", 2000);
  printf("bench_remote_hop: %lld pipeline events, %lld latency pings\n",
         static_cast<long long>(events), static_cast<long long>(pings));

  bench::JsonResult json("bench_remote_hop");
  const auto add_series = [&json](const std::string& key,
                                  const HopResult& result) {
    json.Add(key + "_events_per_sec", result.events_per_sec)
        .AddLatency(key + "_ping", result.latency);
  };

  // (a) In-process broker, default simulated delivery delay.
  {
    msg::BusOptions options;  // delivery_delay = 500 us.
    msg::InProcessBus bus(options);
    const HopResult result = DriveHop(&bus, &bus, pings, events);
    PrintRow("in-process (delay 500us)", result);
    add_series("inprocess_delay500", result);
  }
  // (b) In-process broker, no simulated delay — the floor.
  {
    msg::BusOptions options;
    options.delivery_delay = 0;
    msg::InProcessBus bus(options);
    const HopResult result = DriveHop(&bus, &bus, pings, events);
    PrintRow("in-process (no delay)", result);
    add_series("inprocess_nodelay", result);
  }
  // (c) The same broker behind a real loopback TCP socket.
  {
    msg::BusOptions options;
    options.delivery_delay = 0;
    msg::InProcessBus bus(options);
    msg::remote::BusServer server(msg::remote::BusServerOptions{}, &bus);
    if (!server.Start().ok()) {
      fprintf(stderr, "failed to start BusServer\n");
      return 1;
    }
    msg::remote::RemoteBusOptions remote_options;
    remote_options.address = server.address();
    msg::remote::RemoteBus remote(remote_options);
    if (!remote.Connect().ok()) {
      fprintf(stderr, "failed to connect RemoteBus\n");
      return 1;
    }
    const HopResult result = DriveHop(&remote, &remote, pings, events);
    PrintRow("remote (loopback TCP)", result);
    add_series("remote_loopback_tcp", result);

    // (d) Same loopback hop with sampled tracing on: contexts minted
    // per batch, trailers on the wire, 1-in-1024 batches record spans.
    trace::TracerOptions trace_options;
    trace_options.sample_every = 1024;
    trace::Tracer::Global()->Enable(trace_options);
    const HopResult traced =
        DriveHop(&remote, &remote, pings, events, /*traced=*/true);
    trace::Tracer::Global()->Disable();
    trace::Tracer::Global()->Clear();
    PrintRow("remote traced 1/1024", traced);
    add_series("trace_sampled_1_in_1024", traced);
    printf("tracing overhead vs untraced loopback: sampled %+.2f%%\n",
           (1.0 - traced.events_per_sec / result.events_per_sec) * 100.0);
    server.Stop();
  }
  json.Write();
  return 0;
}
