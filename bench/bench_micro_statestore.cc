// Microbenchmarks (google-benchmark) for the embedded LSM state store:
// point writes, read-modify-write (the aggregation-update pattern, over
// uniform and Zipf-skewed keys), point reads across levels, and
// checkpointing. Every call's status is checked, so a broken store
// aborts the run instead of timing its error path.
#include <benchmark/benchmark.h>

#include "bench/bench_micro_main.h"
#include "common/coding.h"
#include "common/logging.h"
#include "common/random.h"
#include "storage/db.h"

using namespace railgun;
using namespace railgun::storage;

namespace {

constexpr size_t kLargeBuffer = 8 * 1024 * 1024;

std::unique_ptr<DB> OpenFresh(const std::string& dir,
                              size_t write_buffer_size) {
  (void)DestroyDB(dir);
  DBOptions options;
  options.write_buffer_size = write_buffer_size;
  std::unique_ptr<DB> db;
  RAILGUN_CHECK_OK(DB::Open(options, dir, &db));
  return db;
}

// Reads the key's state: true when found, false when absent. Any other
// answer aborts.
bool GetState(DB* db, const char* key, std::string* value) {
  const Status s = db->Get(kDefaultColumnFamily, key, value);
  if (!s.IsNotFound()) RAILGUN_CHECK_OK(s);
  return s.ok();
}

// The aggregation update: read the key's sum, bump it, write it back.
void ReadModifyWrite(DB* db, const char* key) {
  std::string value;
  double sum = 0;
  if (GetState(db, key, &value)) {
    Slice in(value);
    RAILGUN_CHECK(GetDouble(&in, &sum));
  }
  value.clear();
  PutDouble(&value, sum + 1.5);
  RAILGUN_CHECK_OK(db->Put(kDefaultColumnFamily, key, value));
}

void BM_StateStorePut(benchmark::State& state) {
  auto db = OpenFresh("/tmp/railgun-bench-micro-put", kLargeBuffer);
  Random64 rng(1);
  char key[32];
  std::string value(static_cast<size_t>(state.range(0)), 'v');
  for (auto _ : state) {
    snprintf(key, sizeof(key), "m1|card%08llu",
             static_cast<unsigned long long>(rng.Uniform(100000)));
    RAILGUN_CHECK_OK(db->Put(kDefaultColumnFamily, key, value));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StateStorePut)->Arg(16)->Arg(128);

void BM_StateStoreReadModifyWrite(benchmark::State& state) {
  // The aggregation-update pattern: Get state, decode, bump, Put.
  auto db = OpenFresh("/tmp/railgun-bench-micro-rmw", kLargeBuffer);
  Random64 rng(2);
  char key[32];
  for (auto _ : state) {
    snprintf(key, sizeof(key), "m1|card%08llu",
             static_cast<unsigned long long>(rng.Uniform(50000)));
    ReadModifyWrite(db.get(), key);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StateStoreReadModifyWrite);

void BM_StateStoreZipfReadModifyWrite(benchmark::State& state) {
  // The engine's aggregation-state pattern: ~10k (metric, entity) keys,
  // Zipf-skewed, each read, bumped and written back many times, under
  // the default write buffer.
  auto db = OpenFresh("/tmp/railgun-bench-micro-zipf-rmw",
                      DBOptions().write_buffer_size);
  ZipfGenerator keys(10000, 0.99, 5);
  char key[32];
  for (auto _ : state) {
    snprintf(key, sizeof(key), "m1|card%08llu",
             static_cast<unsigned long long>(keys.Next()));
    ReadModifyWrite(db.get(), key);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StateStoreZipfReadModifyWrite);

void BM_StateStoreGetAcrossLevels(benchmark::State& state) {
  static std::unique_ptr<DB> db;
  if (db == nullptr) {
    // A small buffer forces many tables.
    db = OpenFresh("/tmp/railgun-bench-micro-get", 256 * 1024);
    char key[32];
    for (int i = 0; i < 200000; ++i) {
      snprintf(key, sizeof(key), "k%08d", i);
      RAILGUN_CHECK_OK(db->Put(kDefaultColumnFamily, key,
                               "value-" + std::to_string(i)));
    }
  }
  Random64 rng(3);
  char key[32];
  char want[32];
  std::string value;
  for (auto _ : state) {
    const auto i = static_cast<unsigned long long>(rng.Uniform(200000));
    snprintf(key, sizeof(key), "k%08llu", i);
    // Every key was written, so each read must find its value.
    RAILGUN_CHECK(GetState(db.get(), key, &value));
    snprintf(want, sizeof(want), "value-%llu", i);
    RAILGUN_CHECK(value == want);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StateStoreGetAcrossLevels);

void BM_StateStoreCheckpoint(benchmark::State& state) {
  auto db = OpenFresh("/tmp/railgun-bench-micro-ckpt", kLargeBuffer);
  char key[32];
  for (int i = 0; i < 20000; ++i) {
    snprintf(key, sizeof(key), "k%08d", i);
    RAILGUN_CHECK_OK(db->Put(kDefaultColumnFamily, key, "v"));
  }
  int round = 0;
  for (auto _ : state) {
    RAILGUN_CHECK_OK(db->Checkpoint(
        "/tmp/railgun-bench-micro-ckpt-out" + std::to_string(round++ % 2)));
  }
}
BENCHMARK(BM_StateStoreCheckpoint)->Unit(benchmark::kMillisecond);

}  // namespace

RAILGUN_BENCH_MICRO_MAIN("bench_micro_statestore")
