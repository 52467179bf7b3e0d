// Microbenchmarks (google-benchmark) for the embedded LSM state store:
// point writes, read-modify-write (the aggregation-update pattern, over
// uniform and Zipf-skewed keys), point reads across levels, and
// checkpointing.
#include <benchmark/benchmark.h>

#include "bench/bench_micro_main.h"
#include "common/coding.h"
#include "common/logging.h"
#include "common/random.h"
#include "storage/db.h"

using namespace railgun;
using namespace railgun::storage;

namespace {

std::unique_ptr<DB> OpenFresh(const std::string& dir) {
  (void)DestroyDB(dir);
  DBOptions options;
  options.write_buffer_size = 8 * 1024 * 1024;
  std::unique_ptr<DB> db;
  if (!DB::Open(options, dir, &db).ok()) return nullptr;
  return db;
}

void BM_StateStorePut(benchmark::State& state) {
  auto db = OpenFresh("/tmp/railgun-bench-micro-put");
  Random64 rng(1);
  char key[32];
  std::string value(static_cast<size_t>(state.range(0)), 'v');
  for (auto _ : state) {
    snprintf(key, sizeof(key), "m1|card%08llu",
             static_cast<unsigned long long>(rng.Uniform(100000)));
    benchmark::DoNotOptimize(db->Put(0, key, value));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StateStorePut)->Arg(16)->Arg(128);

void BM_StateStoreReadModifyWrite(benchmark::State& state) {
  // The aggregation-update pattern: Get state, decode, bump, Put.
  auto db = OpenFresh("/tmp/railgun-bench-micro-rmw");
  Random64 rng(2);
  char key[32];
  for (auto _ : state) {
    snprintf(key, sizeof(key), "m1|card%08llu",
             static_cast<unsigned long long>(rng.Uniform(50000)));
    std::string value;
    double sum = 0;
    Status s = db->Get(0, key, &value);
    if (s.ok()) {
      Slice in(value);
      GetDouble(&in, &sum);
    }
    value.clear();
    PutDouble(&value, sum + 1.5);
    benchmark::DoNotOptimize(db->Put(0, key, value));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StateStoreReadModifyWrite);

void BM_StateStoreZipfReadModifyWrite(benchmark::State& state) {
  // The engine's aggregation-state pattern: ~10k (metric, entity) keys,
  // Zipf-skewed, each read, bumped and written back many times, under
  // the default write buffer.
  const std::string dir = "/tmp/railgun-bench-micro-zipf-rmw";
  (void)DestroyDB(dir);
  std::unique_ptr<DB> db;
  if (!DB::Open(DBOptions(), dir, &db).ok()) {
    state.SkipWithError("open failed");
    return;
  }
  ZipfGenerator keys(10000, 0.99, 5);
  char key[32];
  for (auto _ : state) {
    snprintf(key, sizeof(key), "m1|card%08llu",
             static_cast<unsigned long long>(keys.Next()));
    std::string value;
    double sum = 0;
    Status s = db->Get(0, key, &value);
    if (s.ok()) {
      Slice in(value);
      GetDouble(&in, &sum);
    }
    value.clear();
    PutDouble(&value, sum + 1.5);
    benchmark::DoNotOptimize(db->Put(0, key, value));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StateStoreZipfReadModifyWrite);

void BM_StateStoreGetAcrossLevels(benchmark::State& state) {
  static std::unique_ptr<DB> db;
  if (db == nullptr) {
    (void)DestroyDB("/tmp/railgun-bench-micro-get");
    DBOptions options;
    options.write_buffer_size = 256 * 1024;  // Force many tables.
    if (!DB::Open(options, "/tmp/railgun-bench-micro-get", &db).ok()) {
      state.SkipWithError("open failed");
      return;
    }
    char key[32];
    for (int i = 0; i < 200000; ++i) {
      snprintf(key, sizeof(key), "k%08d", i);
      RAILGUN_CHECK_OK(db->Put(0, key, "value-" + std::to_string(i)));
    }
  }
  Random64 rng(3);
  char key[32];
  for (auto _ : state) {
    snprintf(key, sizeof(key), "k%08llu",
             static_cast<unsigned long long>(rng.Uniform(200000)));
    std::string value;
    benchmark::DoNotOptimize(db->Get(0, key, &value));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StateStoreGetAcrossLevels);

void BM_StateStoreCheckpoint(benchmark::State& state) {
  auto db = OpenFresh("/tmp/railgun-bench-micro-ckpt");
  char key[32];
  for (int i = 0; i < 20000; ++i) {
    snprintf(key, sizeof(key), "k%08d", i);
    RAILGUN_CHECK_OK(db->Put(0, key, "v"));
  }
  int round = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(db->Checkpoint(
        "/tmp/railgun-bench-micro-ckpt-out" + std::to_string(round++ % 2)));
  }
}
BENCHMARK(BM_StateStoreCheckpoint)->Unit(benchmark::kMillisecond);

}  // namespace

RAILGUN_BENCH_MICRO_MAIN("bench_micro_statestore")
