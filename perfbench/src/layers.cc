#include "layers.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "engine/processor_unit.h"
#include "engine/task_processor.h"
#include "fraud_stream.h"
#include "msg/batch.h"
#include "msg/broker.h"
#include "msg/remote/bus_server.h"
#include "msg/remote/remote_bus.h"
#include "reference.h"
#include "storage/db.h"
#include "trace/tracer.h"
#include "workload/generator.h"

namespace perfbench {

using railgun::Status;

LayerSnapshot SnapshotCluster(railgun::engine::Cluster* cluster) {
  LayerSnapshot out;
  for (const auto& sample : cluster->registry()->Snapshot()) {
    out[sample.name] += sample.value;
  }
  double appends = 0, chunks_written = 0, sync_loads = 0, prefetches = 0;
  double hits = 0, misses = 0, l0_files = 0, sst_files = 0;
  for (int n = 0; n < cluster->num_nodes(); ++n) {
    railgun::engine::RailgunNode* node = cluster->node(n);
    if (!node->alive()) continue;
    for (int u = 0; u < node->num_units(); ++u) {
      railgun::engine::ProcessorUnit* unit = node->unit(u);
      for (const auto& tp : unit->active_tasks()) {
        railgun::engine::TaskProcessor* task = unit->FindProcessor(tp);
        if (task == nullptr) continue;
        const railgun::reservoir::ReservoirStats stats =
            task->reservoir()->stats();
        appends += static_cast<double>(stats.appends);
        chunks_written += static_cast<double>(stats.chunks_written);
        sync_loads += static_cast<double>(stats.sync_chunk_loads);
        prefetches += static_cast<double>(stats.prefetches_issued);
        const auto cache = task->reservoir()->cache_stats();
        hits += static_cast<double>(cache.hits);
        misses += static_cast<double>(cache.misses);
        const auto levels =
            task->db()->GetLevelStats(railgun::storage::kDefaultColumnFamily);
        for (size_t level = 0; level < levels.size(); ++level) {
          if (level == 0) l0_files += levels[level].num_files;
          sst_files += levels[level].num_files;
        }
      }
    }
  }
  out["reservoir.appends"] = appends;
  out["reservoir.chunks_written"] = chunks_written;
  out["reservoir.sync_chunk_loads"] = sync_loads;
  out["reservoir.prefetches_issued"] = prefetches;
  out["reservoir.cache_hits"] = hits;
  out["reservoir.cache_misses"] = misses;
  out["storage.l0_files"] = l0_files;
  out["storage.sst_files"] = sst_files;
  return out;
}

double Get(const LayerSnapshot& snapshot, const std::string& name) {
  const auto it = snapshot.find(name);
  return it == snapshot.end() ? 0 : it->second;
}

LayerSampler::LayerSampler(const railgun::introspect::Registry* registry)
    : registry_(registry), thread_([this] { Run(); }) {}

LayerSampler::~LayerSampler() {
  stop_.store(true);
  thread_.join();
}

void LayerSampler::Run() {
  railgun::trace::Tracer* tracer = railgun::trace::Tracer::Global();
  while (!stop_.load()) {
    for (const auto& sample : registry_->Snapshot()) {
      if (sample.name == "bus.backlog" && sample.value > backlog_max()) {
        backlog_max_.store(sample.value, std::memory_order_relaxed);
      }
    }
    if (tracer->collected_size() < kMaxSpans) tracer->Drain();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

StorageDriveResult DriveStorage(const std::string& dir, uint64_t seed,
                                size_t events) {
  StorageDriveResult result;
  std::unique_ptr<railgun::storage::DB> db;
  RAILGUN_CHECK_OK(
      railgun::storage::DB::Open(railgun::storage::DBOptions{}, dir, &db));
  // The workload's key populations: Zipf 0.99 over 100k cards and 5k
  // merchants, one aggregation state each (sum/count/avg/max for a card,
  // count/sum for a merchant).
  railgun::ZipfGenerator cards(100000, 0.99, seed + 1);
  railgun::ZipfGenerator merchants(5000, 0.99, seed + 2);
  std::vector<double> put_us, get_us;
  put_us.reserve(2 * events);
  get_us.reserve(2 * events);
  std::string value;
  const auto touch = [&](const std::string& key, size_t state_bytes) {
    int64_t t0 = NowNanos();
    const Status s =
        db->Get(railgun::storage::kDefaultColumnFamily, key, &value);
    get_us.push_back(static_cast<double>(NowNanos() - t0) / 1000.0);
    RAILGUN_CHECK(s.ok() || s.IsNotFound());
    value.assign(state_bytes, static_cast<char>(key.size()));
    t0 = NowNanos();
    RAILGUN_CHECK_OK(
        db->Put(railgun::storage::kDefaultColumnFamily, key, value));
    put_us.push_back(static_cast<double>(NowNanos() - t0) / 1000.0);
  };
  for (size_t i = 0; i < events; ++i) {
    touch("q0/card" + std::to_string(cards.Next()), 32);
    touch("q1/merch" + std::to_string(merchants.Next()), 16);
  }
  result.put_p50_us = Percentile(&put_us, 50);
  result.put_p99_us = Percentile(&put_us, 99);
  result.put_max_us = Percentile(&put_us, 100);
  result.get_p50_us = Percentile(&get_us, 50);
  result.get_p99_us = Percentile(&get_us, 99);
  return result;
}

TaskDriveResult DriveTask(const std::string& dir, uint64_t seed,
                          int64_t event_step_us, int batches,
                          int checkpoint_every) {
  constexpr size_t kBatch = 256;
  TaskDriveResult result;
  railgun::workload::FraudStreamConfig config;
  config.seed = seed;
  railgun::workload::FraudStreamGenerator generator(config);
  const railgun::engine::StreamDef stream =
      MakeStreamDef(generator.schema_fields());
  const std::string topic = stream.TopicFor("cardId");
  const railgun::reservoir::Schema schema(0, stream.fields);

  railgun::engine::TaskProcessorOptions options;
  options.checkpoint_interval_events = UINT64_MAX;  // Checkpoints by hand.
  railgun::engine::TaskProcessor task(options, dir, stream, topic);
  RAILGUN_CHECK_OK(task.Open());

  std::vector<double> batch_us, checkpoint_us;
  std::vector<railgun::engine::ReplyEnvelope> replies;
  uint64_t offset = 0;
  for (int b = 0; b < batches; ++b) {
    std::vector<railgun::msg::Message> messages(kBatch);
    for (auto& message : messages) {
      railgun::engine::EventEnvelope envelope;
      envelope.request_id = offset + 1;
      envelope.reply_topic = "replies.perfbench";
      envelope.event = generator.Next(
          kTimeBase + static_cast<int64_t>(offset) * event_step_us);
      message.topic = topic;
      message.partition = 0;
      message.offset = offset++;
      message.key = envelope.event.values[0].as_string();
      railgun::engine::EncodeEventEnvelope(envelope, schema,
                                           &message.payload);
    }
    railgun::msg::MessageBatch batch;
    batch.Adopt(std::move(messages));
    size_t failed = 0;
    int64_t t0 = NowNanos();
    RAILGUN_CHECK_OK(task.ProcessBatch(batch.views(), &replies, &failed));
    batch_us.push_back(static_cast<double>(NowNanos() - t0) / 1000.0);
    RAILGUN_CHECK(failed == 0);
    if ((b + 1) % checkpoint_every == 0) {
      t0 = NowNanos();
      RAILGUN_CHECK_OK(task.Checkpoint());
      checkpoint_us.push_back(static_cast<double>(NowNanos() - t0) / 1000.0);
    }
  }
  result.process_batch_p50_us = Percentile(&batch_us, 50);
  result.checkpoint_max_us = Percentile(&checkpoint_us, 100);
  namespace fs = std::filesystem;
  for (const auto& entry : fs::recursive_directory_iterator(dir + "/ckpt")) {
    if (entry.is_regular_file()) {
      result.checkpoint_bytes += static_cast<double>(entry.file_size());
    }
  }
  return result;
}

WireDriveResult DriveWire(uint64_t seed, int64_t event_step_us,
                          size_t events) {
  constexpr size_t kBatch = 256;
  railgun::workload::FraudStreamConfig config;
  config.seed = seed;
  railgun::workload::FraudStreamGenerator generator(config);
  const railgun::engine::StreamDef stream =
      MakeStreamDef(generator.schema_fields());
  const std::string topic = stream.TopicFor("cardId");
  const railgun::reservoir::Schema schema(0, stream.fields);

  railgun::msg::BusOptions bus_options;
  bus_options.delivery_delay = 0;
  railgun::msg::InProcessBus bus(bus_options);
  railgun::msg::remote::BusServer server(
      railgun::msg::remote::BusServerOptions{}, &bus);
  RAILGUN_CHECK_OK(server.Start());
  railgun::msg::remote::RemoteBusOptions remote_options;
  remote_options.address = server.address();
  railgun::msg::remote::RemoteBus remote(remote_options);
  RAILGUN_CHECK_OK(remote.Connect());
  RAILGUN_CHECK_OK(remote.CreateTopic(topic, kPartitions));
  RAILGUN_CHECK_OK(
      remote.Subscribe("perfbench-wire", "perfbench", {topic}, "", nullptr, {}));

  size_t received = 0;
  railgun::msg::MessageBatch batch;
  const int64_t deadline_ns = NowNanos() + 60 * int64_t{1000000000};
  const auto drain = [&](size_t until) {
    while (received < until) {
      RAILGUN_CHECK(NowNanos() < deadline_ns);  // Lost messages.
      RAILGUN_CHECK_OK(remote.PollBatch("perfbench-wire", 1024, &batch,
                                        railgun::kMicrosPerSecond));
      received += batch.size();
    }
  };
  uint64_t offset = 0;
  while (offset < events) {
    std::vector<railgun::msg::ProduceRecord> records;
    for (size_t i = 0; i < kBatch && offset < events; ++i, ++offset) {
      railgun::engine::EventEnvelope envelope;
      envelope.request_id = offset + 1;
      envelope.reply_topic = "replies.perfbench";
      envelope.event = generator.Next(
          kTimeBase + static_cast<int64_t>(offset) * event_step_us);
      railgun::msg::ProduceRecord record;
      record.key = envelope.event.values[0].as_string();
      railgun::engine::EncodeEventEnvelope(envelope, schema, &record.payload);
      records.push_back(std::move(record));
    }
    RAILGUN_CHECK_OK(remote.ProduceBatch(topic, std::move(records)));
    drain(offset);
  }
  WireDriveResult result;
  result.bytes_per_event = static_cast<double>(server.decode_bytes()) /
                           static_cast<double>(events);
  const double hits = static_cast<double>(server.pool_hits());
  const double misses = static_cast<double>(server.pool_misses());
  result.pool_hit_ratio = hits + misses > 0 ? hits / (hits + misses) : 0;
  (void)remote.Unsubscribe("perfbench-wire");
  server.Stop();
  return result;
}

}  // namespace perfbench
