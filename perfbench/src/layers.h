// Per-layer readouts for the traced run, taken from outside the engine:
// the counters and histograms the layers already export into their
// cluster's introspect::Registry, the reservoir and state-store stats
// of every live task, and three standalone drives of public layer APIs
// (storage::DB, engine::TaskProcessor and the msg::remote transport). Nothing here adds spans or
// counters inside the engine.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>

#include "engine/cluster.h"
#include "introspect/registry.h"

namespace perfbench {

// Steady-clock nanoseconds: every latency the benchmark times itself.
inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Series name -> value. Registry histograms are expanded to
// <name>.count/.mean/.p50/.p99/.p999/.max, as Registry::Snapshot does.
using LayerSnapshot = std::map<std::string, double>;

// Every registry series of `cluster`, plus the reservoir stats and
// chunk-cache hits/misses summed over live tasks (reservoir.*) and the
// state-store file counts summed over live tasks (storage.l0_files,
// storage.sst_files).
LayerSnapshot SnapshotCluster(railgun::engine::Cluster* cluster);

// Value of `name`, 0 when absent.
double Get(const LayerSnapshot& snapshot, const std::string& name);

// While alive, samples the registry's bus.backlog every 10 ms (keeping
// its maximum) and drains the global tracer's thread rings into its
// collected buffer until that holds kMaxSpans, so the exported trace
// stays bounded.
class LayerSampler {
 public:
  static constexpr size_t kMaxSpans = 100000;

  explicit LayerSampler(const railgun::introspect::Registry* registry);
  ~LayerSampler();
  LayerSampler(const LayerSampler&) = delete;
  LayerSampler& operator=(const LayerSampler&) = delete;

  double backlog_max() const {
    return backlog_max_.load(std::memory_order_relaxed);
  }

 private:
  void Run();

  const railgun::introspect::Registry* registry_;
  std::atomic<bool> stop_{false};
  std::atomic<double> backlog_max_{0};
  std::thread thread_;
};

// Replays a Zipf state-key stream shaped like the workload's (a card
// and a merchant aggregation state per event, each read then written)
// against a fresh storage::DB in `dir`. Latencies in microseconds.
struct StorageDriveResult {
  double put_p50_us = 0;
  double put_p99_us = 0;
  double put_max_us = 0;
  double get_p50_us = 0;
  double get_p99_us = 0;
};
StorageDriveResult DriveStorage(const std::string& dir, uint64_t seed,
                                size_t events);

// Opens a fresh engine::TaskProcessor for the card topic in `dir`,
// feeds it `batches` batches of 256 generated events through
// ProcessBatch and takes a Checkpoint after every `checkpoint_every`
// batches.
struct TaskDriveResult {
  double process_batch_p50_us = 0;
  double checkpoint_max_us = 0;
  double checkpoint_bytes = 0;  // Size of the last checkpoint on disk.
};
TaskDriveResult DriveTask(const std::string& dir, uint64_t seed,
                          int64_t event_step_us, int batches,
                          int checkpoint_every);

// Ships `events` generated event envelopes (card topic, batches of 256)
// through a msg::remote::BusServer over loopback, produced and polled
// back by a RemoteBus, and reads the server's receive-path counters.
struct WireDriveResult {
  double bytes_per_event = 0;  // Wire bytes the server decoded per event.
  double pool_hit_ratio = 0;   // Receive-buffer pool hits / acquisitions.
};
WireDriveResult DriveWire(uint64_t seed, int64_t event_step_us,
                          size_t events);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
