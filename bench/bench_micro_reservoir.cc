// Microbenchmarks (google-benchmark) for the event reservoir's component
// costs: append, chunk serialization round trip, compression codec,
// event codec and iterator scans. The append and round-trip benchmarks
// also report `mem_bytes_per_event`, the heap bytes a closed chunk holds
// per event.
#include <benchmark/benchmark.h>

#include "bench/bench_micro_main.h"
#include "common/compression.h"
#include "common/env.h"
#include "common/logging.h"
#include "reservoir/reservoir.h"
#include "workload/generator.h"

using namespace railgun;

namespace {

workload::FraudStreamGenerator* SharedGenerator() {
  static auto* generator = [] {
    workload::FraudStreamConfig config;
    config.total_fields = 103;
    return new workload::FraudStreamGenerator(config);
  }();
  return generator;
}

void BM_ReservoirAppend(benchmark::State& state) {
  const std::string dir = "/tmp/railgun-bench-micro-append";
  (void)Env::Default()->RemoveDirRecursive(dir);
  reservoir::ReservoirOptions options;
  options.chunk_target_bytes = static_cast<size_t>(state.range(0));
  options.schema_fields = SharedGenerator()->schema_fields();
  reservoir::Reservoir res(options, dir);
  if (!res.Open().ok()) {
    state.SkipWithError("open failed");
    return;
  }
  Micros ts = 0;
  for (auto _ : state) {
    RAILGUN_CHECK_OK(res.Append(SharedGenerator()->Next(ts)));
    ts += 2000;
  }
  state.SetItemsProcessed(state.iterations());
  // Heap bytes per event the closed chunks hold in the cache.
  const auto footprint = res.cache_footprint();
  if (footprint.events > 0) {
    state.counters["mem_bytes_per_event"] =
        static_cast<double>(footprint.bytes) / footprint.events;
  }
}
BENCHMARK(BM_ReservoirAppend)->Arg(16 * 1024)->Arg(64 * 1024)
    ->Arg(256 * 1024);

void BM_ChunkSerializeRoundTrip(benchmark::State& state) {
  const reservoir::Schema schema(1, SharedGenerator()->schema_fields());
  reservoir::Chunk chunk(1, &schema);
  for (int i = 0; i < state.range(0); ++i) {
    chunk.Add(SharedGenerator()->Next(i * 1000));
  }
  chunk.Close();
  int64_t bytes = 0;
  for (auto _ : state) {
    std::string payload;
    chunk.SerializeTo(&payload);
    std::unique_ptr<reservoir::Chunk> decoded;
    benchmark::DoNotOptimize(
        reservoir::Chunk::Deserialize(1, &schema, payload, &decoded));
    bytes += static_cast<int64_t>(payload.size());
  }
  state.SetBytesProcessed(bytes);
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["mem_bytes_per_event"] =
      static_cast<double>(chunk.MemoryBytes()) / chunk.num_events();
}
BENCHMARK(BM_ChunkSerializeRoundTrip)->Arg(64)->Arg(512);

void BM_LzCompress(benchmark::State& state) {
  // Structured, realistic payload (serialized events).
  const reservoir::Schema schema(1, SharedGenerator()->schema_fields());
  const reservoir::EventCodec codec(&schema);
  std::string input;
  for (int i = 0; i < 200; ++i) {
    codec.Encode(SharedGenerator()->Next(i * 1000), 0, &input);
  }
  for (auto _ : state) {
    std::string compressed;
    LzCompress(input, &compressed);
    benchmark::DoNotOptimize(compressed);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(input.size()));
}
BENCHMARK(BM_LzCompress);

void BM_LzUncompress(benchmark::State& state) {
  const reservoir::Schema schema(1, SharedGenerator()->schema_fields());
  const reservoir::EventCodec codec(&schema);
  std::string input;
  for (int i = 0; i < 200; ++i) {
    codec.Encode(SharedGenerator()->Next(i * 1000), 0, &input);
  }
  std::string compressed;
  LzCompress(input, &compressed);
  for (auto _ : state) {
    std::string output;
    benchmark::DoNotOptimize(LzUncompress(compressed, &output));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(input.size()));
}
BENCHMARK(BM_LzUncompress);

void BM_EventCodecEncode(benchmark::State& state) {
  const reservoir::Schema schema(1, SharedGenerator()->schema_fields());
  const reservoir::EventCodec codec(&schema);
  const reservoir::Event event = SharedGenerator()->Next(12345);
  for (auto _ : state) {
    std::string buf;
    codec.Encode(event, 0, &buf);
    benchmark::DoNotOptimize(buf);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventCodecEncode);

void BM_ReservoirScan(benchmark::State& state) {
  const std::string dir = "/tmp/railgun-bench-micro-scan";
  static bool seeded = false;
  static reservoir::Reservoir* res = nullptr;
  if (!seeded) {
    (void)Env::Default()->RemoveDirRecursive(dir);
    reservoir::ReservoirOptions options;
    options.chunk_target_bytes = 64 * 1024;
    options.cache_capacity = 64;
    options.schema_fields = SharedGenerator()->schema_fields();
    res = new reservoir::Reservoir(options, dir);
    if (!res->Open().ok()) {
      state.SkipWithError("open failed");
      return;
    }
    for (int i = 0; i < 50000; ++i) {
      RAILGUN_CHECK_OK(res->Append(SharedGenerator()->Next(i * 1000)));
    }
    RAILGUN_CHECK_OK(res->Sync());
    seeded = true;
  }
  for (auto _ : state) {
    auto iter = res->NewIterator();
    int64_t count = 0;
    while (!iter->AtEnd()) {
      ++count;
      iter->Advance();
    }
    benchmark::DoNotOptimize(count);
    state.SetItemsProcessed(state.items_processed() + count);
  }
}
BENCHMARK(BM_ReservoirScan)->Unit(benchmark::kMillisecond)
    ->MinTime(2.0);

}  // namespace

RAILGUN_BENCH_MICRO_MAIN("bench_micro_reservoir")
