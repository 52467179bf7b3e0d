// Throughput of the batched, wake-on-arrival data path: per-event
// SubmitSync vs SubmitBatch vs pipelined SubmitNoReply at an identical
// cluster topology. Records events/sec plus p50/p99 per-event latency
// (for batch mode, measured from the batch handoff to each event's
// completion). The batched path must sustain >= 3x the per-event
// events/sec — that ratio is printed and checked at the end.
//
// Knobs: RAILGUN_BENCH_EVENTS (default 20000), RAILGUN_BENCH_BATCH
// (default 256), RAILGUN_BENCH_PARTITIONS (default 4),
// RAILGUN_BENCH_DELAY_US (default 200 — the simulated broker/network
// hop, same as the figure benches; per-event submission pays it per
// round trip, batches amortize it).
// A tracing variant rides along (same batched workload, fresh cluster):
// trace_sampled_1_in_1024, the recommended production sampling rate,
// which scripts/perf_smoke.py warns about when it runs more than 5%
// below `batched`.
#include <cinttypes>

#include "api/client.h"
#include "bench/bench_common.h"
#include "bench/bench_json.h"
#include "trace/tracer.h"

using namespace railgun;
using namespace railgun::bench;

namespace {

struct RunResult {
  double events_per_sec = 0;
  LatencyHistogram latencies;
};

api::Row MakeRow(uint64_t i) {
  return api::Row()
      .Set("cardId", "card" + std::to_string(i % 1024))
      .Set("amount", 1.0 + static_cast<double>(i % 97));
}

std::unique_ptr<api::Client> StartClient(int partitions) {
  api::ClientOptions options;
  options.num_nodes = 1;
  options.processor_units_per_node = 2;
  options.base_dir = "/tmp/railgun-bench-pipeline";
  options.engine.bus.delivery_delay = EnvInt("RAILGUN_BENCH_DELAY_US", 200);
  auto client = std::make_unique<api::Client>(options);
  if (!client->Start().ok()) return nullptr;
  char ddl[160];
  snprintf(ddl, sizeof(ddl),
           "CREATE STREAM payments (cardId STRING, amount DOUBLE) "
           "PARTITION BY cardId PARTITIONS %d",
           partitions);
  if (!client->Execute(ddl).ok()) return nullptr;
  if (!client
           ->Execute("ADD METRIC SELECT sum(amount), count(*) FROM payments "
                     "GROUP BY cardId OVER sliding 5 minutes")
           .ok()) {
    return nullptr;
  }
  return client;
}

RunResult RunSingle(api::Client* client, uint64_t events) {
  RunResult result;
  const Micros start = MonotonicClock::Default()->NowMicros();
  for (uint64_t i = 0; i < events; ++i) {
    const Micros t0 = MonotonicClock::Default()->NowMicros();
    api::EventResult r = client->SubmitSync("payments", MakeRow(i));
    if (!r.ok()) continue;
    result.latencies.Record(MonotonicClock::Default()->NowMicros() - t0);
  }
  const Micros elapsed = MonotonicClock::Default()->NowMicros() - start;
  result.events_per_sec =
      static_cast<double>(events) * kMicrosPerSecond / elapsed;
  return result;
}

RunResult RunBatched(api::Client* client, uint64_t events,
                     uint64_t batch_size) {
  RunResult result;
  const Micros start = MonotonicClock::Default()->NowMicros();
  for (uint64_t base = 0; base < events; base += batch_size) {
    const uint64_t n = std::min(batch_size, events - base);
    std::vector<api::Row> rows;
    rows.reserve(n);
    for (uint64_t i = 0; i < n; ++i) rows.push_back(MakeRow(base + i));
    const Micros t0 = MonotonicClock::Default()->NowMicros();
    std::vector<api::ResultFuture> futures =
        client->SubmitBatch("payments", rows);
    for (auto& future : futures) {
      if (!future.Get().ok()) continue;
      result.latencies.Record(MonotonicClock::Default()->NowMicros() - t0);
    }
  }
  const Micros elapsed = MonotonicClock::Default()->NowMicros() - start;
  result.events_per_sec =
      static_cast<double>(events) * kMicrosPerSecond / elapsed;
  return result;
}

RunResult RunNoReply(api::Client* client, uint64_t events) {
  RunResult result;
  const Micros start = MonotonicClock::Default()->NowMicros();
  for (uint64_t i = 0; i < events; ++i) {
    // Fire-and-forget: sheds under flood are part of what is measured.
    (void)client->SubmitNoReply("payments", MakeRow(i));
  }
  client->admin().WaitForQuiescence(120 * kMicrosPerSecond);
  const Micros elapsed = MonotonicClock::Default()->NowMicros() - start;
  result.events_per_sec =
      static_cast<double>(events) * kMicrosPerSecond / elapsed;
  return result;
}

void PrintRow(const char* label, const RunResult& r, bool with_latency) {
  if (with_latency) {
    printf("%-24s %12.0f ev/s   p50 %8.3f ms   p99 %8.3f ms\n", label,
           r.events_per_sec,
           static_cast<double>(r.latencies.ValueAtPercentile(50)) / 1000.0,
           static_cast<double>(r.latencies.ValueAtPercentile(99)) / 1000.0);
  } else {
    printf("%-24s %12.0f ev/s   (fire-and-forget, no per-event reply)\n",
           label, r.events_per_sec);
  }
}

}  // namespace

int main() {
  const uint64_t events =
      static_cast<uint64_t>(EnvInt("RAILGUN_BENCH_EVENTS", 20000));
  const uint64_t batch_size =
      static_cast<uint64_t>(EnvInt("RAILGUN_BENCH_BATCH", 256));
  const int partitions =
      static_cast<int>(EnvInt("RAILGUN_BENCH_PARTITIONS", 4));

  printf("=== Pipeline throughput: single vs batched submission ===\n");
  printf("%" PRIu64 " events, batch=%" PRIu64
         ", 1 node x 2 units, %d partitions, %" PRId64
         " us broker hop, sum+count by cardId\n\n",
         events, batch_size, partitions,
         EnvInt("RAILGUN_BENCH_DELAY_US", 200));

  // Equal topology for every mode: a fresh cluster per run so reservoir
  // history doesn't favor later modes.
  RunResult single, batched, noreply;
  {
    auto client = StartClient(partitions);
    if (client == nullptr) return 1;
    // Per-event path is the slow one; cap its sample so the bench stays
    // in seconds while keeping the rate estimate stable.
    single = RunSingle(client.get(), std::min<uint64_t>(events, 4000));
    client->Stop();
  }
  {
    auto client = StartClient(partitions);
    if (client == nullptr) return 1;
    batched = RunBatched(client.get(), events, batch_size);
    client->Stop();
  }
  {
    auto client = StartClient(partitions);
    if (client == nullptr) return 1;
    noreply = RunNoReply(client.get(), events);
    client->Stop();
  }
  // Sampled tracing on the batched workload; `batched` ran with the
  // tracer disabled and is the reference.
  RunResult trace_sampled;
  {
    auto client = StartClient(partitions);
    if (client == nullptr) return 1;
    trace::TracerOptions trace_options;
    trace_options.sample_every = 1024;
    trace::Tracer::Global()->Enable(trace_options);
    trace_sampled = RunBatched(client.get(), events, batch_size);
    trace::Tracer::Global()->Disable();
    trace::Tracer::Global()->Clear();
    client->Stop();
  }

  PrintRow("SubmitSync (1-by-1)", single, true);
  PrintRow("SubmitBatch", batched, true);
  PrintRow("SubmitNoReply (pipeline)", noreply, false);
  PrintRow("SubmitBatch trace 1/1024", trace_sampled, true);
  printf("tracing overhead vs batched: sampled %+.2f%%\n",
         (1.0 - trace_sampled.events_per_sec / batched.events_per_sec) *
             100.0);

  const double ratio = batched.events_per_sec / single.events_per_sec;

  JsonResult json("bench_throughput_pipeline");
  json.Add("single_events_per_sec", single.events_per_sec)
      .AddLatency("single", single.latencies)
      .Add("batched_events_per_sec", batched.events_per_sec)
      .AddLatency("batched", batched.latencies)
      .Add("noreply_events_per_sec", noreply.events_per_sec)
      .Add("trace_sampled_1_in_1024_events_per_sec",
           trace_sampled.events_per_sec)
      .AddLatency("trace_sampled_1_in_1024", trace_sampled.latencies)
      .Add("batched_over_single_ratio", ratio)
      .Write();

  printf("\nbatched/single throughput ratio: %.1fx (target >= 3x)\n", ratio);
  if (ratio < 3.0) {
    printf("FAIL: batched submission below 3x per-event throughput\n");
    return 1;
  }
  printf("PASS\n");
  return 0;
}
