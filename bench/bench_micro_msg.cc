// Microbenchmarks (google-benchmark) for the messaging layer: produce,
// fetch, group poll and rebalance costs.
#include <benchmark/benchmark.h>

#include "bench/bench_micro_main.h"
#include "common/logging.h"
#include "msg/broker.h"

using namespace railgun;
using namespace railgun::msg;

namespace {

BusOptions InstantBus() {
  BusOptions options;
  options.delivery_delay = 0;
  return options;
}

// Keyed batches of 64 records of 256 bytes, over 1000 distinct keys.
void BM_ProduceBatch(benchmark::State& state) {
  InProcessBus bus(InstantBus());
  RAILGUN_CHECK_OK(bus.CreateTopic("t", static_cast<int>(state.range(0))));
  const std::string payload(256, 'p');
  uint64_t i = 0;
  for (auto _ : state) {
    std::vector<ProduceRecord> records;
    for (int r = 0; r < 64; ++r) {
      records.push_back({"key" + std::to_string(i++ % 1000), payload});
    }
    benchmark::DoNotOptimize(bus.ProduceBatch("t", std::move(records)));
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_ProduceBatch)->Arg(1)->Arg(16)->Arg(64);

void BM_FetchBatch(benchmark::State& state) {
  InProcessBus bus(InstantBus());
  RAILGUN_CHECK_OK(bus.CreateTopic("t", 1));
  for (int i = 0; i < 100000; i += 1000) {
    std::vector<ProduceRecord> records(1000,
                                       {"k", std::string(128, 'm')});
    RAILGUN_CHECK_OK(bus.ProduceBatch("t", std::move(records)));
  }
  uint64_t pos = 0;
  std::vector<Message> batch;
  for (auto _ : state) {
    if (bus.Fetch({"t", 0}, pos, static_cast<size_t>(state.range(0)),
                  &batch)
            .ok()) {
      pos = (pos + batch.size()) % 100000;
    }
    benchmark::DoNotOptimize(batch);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FetchBatch)->Arg(16)->Arg(256);

void BM_GroupPoll(benchmark::State& state) {
  InProcessBus bus(InstantBus());
  RAILGUN_CHECK_OK(bus.CreateTopic("t", 8));
  RAILGUN_CHECK_OK(bus.Subscribe("c", "g", {"t"}, "", {}));
  MessageBatch batch;
  RAILGUN_CHECK_OK(bus.PollBatch("c", 1, &batch));  // Absorb the assignment.
  uint64_t produced = 0;
  for (auto _ : state) {
    if (produced % 64 == 0) {
      std::vector<ProduceRecord> records;
      for (int i = 0; i < 64; ++i) {
        records.push_back({"k" + std::to_string(i), "m"});
      }
      RAILGUN_CHECK_OK(bus.ProduceBatch("t", std::move(records)));
    }
    produced += 64;
    benchmark::DoNotOptimize(bus.PollBatch("c", 64, &batch));
  }
}
BENCHMARK(BM_GroupPoll);

void BM_Rebalance(benchmark::State& state) {
  // Cost of a full join/leave cycle at a given member count.
  for (auto _ : state) {
    state.PauseTiming();
    InProcessBus bus(InstantBus());
    RAILGUN_CHECK_OK(bus.CreateTopic("t", static_cast<int>(state.range(0)) * 4));
    state.ResumeTiming();
    for (int m = 0; m < state.range(0); ++m) {
      RAILGUN_CHECK_OK(
          bus.Subscribe("c" + std::to_string(m), "g", {"t"}, "", {}));
    }
    benchmark::DoNotOptimize(bus.rebalance_count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Rebalance)->Arg(4)->Arg(16)->Arg(64);

}  // namespace

RAILGUN_BENCH_MICRO_MAIN("bench_micro_msg")
