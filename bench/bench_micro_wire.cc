// Microbenchmarks (google-benchmark) for the wire codecs: columnar
// encode/decode of poll-sized message batches, and the pooled frame
// read path's buffer acquisition.
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_micro_main.h"
#include "msg/batch.h"
#include "msg/buffer_pool.h"
#include "msg/message.h"
#include "msg/remote/wire.h"

using namespace railgun;
using namespace railgun::msg;

namespace {

std::vector<Message> SampleMessages(int64_t count) {
  std::vector<Message> messages;
  messages.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    Message m;
    m.topic = "payments.cardId";
    m.partition = 0;
    m.offset = static_cast<uint64_t>(i);
    m.key = "card" + std::to_string(i % 64);
    m.payload = std::string(120 + (i % 5) * 16, 'e');
    messages.push_back(std::move(m));
  }
  return messages;
}

void BM_EncodeColumnar(benchmark::State& state) {
  const std::vector<Message> messages = SampleMessages(state.range(0));
  std::string encoded;
  for (auto _ : state) {
    encoded.clear();
    remote::PutColumnarMessageList(&encoded, messages);
    benchmark::DoNotOptimize(encoded);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EncodeColumnar)->Arg(16)->Arg(256);

void BM_DecodeColumnar(benchmark::State& state) {
  std::string encoded;
  remote::PutColumnarMessageList(&encoded, SampleMessages(state.range(0)));
  MessageBatch batch;
  for (auto _ : state) {
    Slice in(encoded);
    batch.Clear();
    benchmark::DoNotOptimize(remote::GetColumnarMessageList(&in, &batch));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DecodeColumnar)->Arg(16)->Arg(256);

void BM_PooledAcquireCycle(benchmark::State& state) {
  BufferPool pool(4);
  const size_t bytes = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    BufferRef buffer = pool.Acquire(bytes);
    benchmark::DoNotOptimize(buffer->data());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["misses"] =
      static_cast<double>(pool.misses());
}
BENCHMARK(BM_PooledAcquireCycle)->Arg(4096)->Arg(1 << 16);

}  // namespace

RAILGUN_BENCH_MICRO_MAIN("bench_micro_wire")
