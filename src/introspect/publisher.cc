#include "introspect/publisher.h"

#include <chrono>

#include "common/hash.h"

namespace railgun::introspect {

Publisher::Publisher(const PublisherOptions& options, Registry* registry,
                     msg::Bus* bus, Clock* clock)
    : options_(options),
      registry_(registry),
      bus_(bus),
      clock_(clock),
      topic_(InternalsStreamDef().TopicFor("node")),
      id_base_(Hash64(options.node + "#introspect") << 20) {}

Publisher::~Publisher() { Stop(); }

Status Publisher::Start() {
  if (running_.load()) return Status::OK();
  // Idempotent: several publishers (the broker's cluster plus every
  // worker process) share the one internals topic.
  Status created =
      bus_->CreateTopic(topic_, InternalsStreamDef().partitions_per_topic);
  if (!created.ok() && !created.IsAlreadyExists()) return created;
  running_.store(true);
  // Simulated clocks have no independent time flow; tests drive
  // PublishOnce() directly.
  if (clock_->IsRealTime()) {
    thread_ = std::thread([this] { Loop(); });
  }
  return Status::OK();
}

void Publisher::Stop() {
  if (!running_.exchange(false)) return;
  {
    MutexLock lock(&mu_);
    cv_.NotifyAll();
  }
  if (thread_.joinable()) thread_.join();
}

Status Publisher::PublishOnce() {
  std::vector<Sample> samples = registry_->Snapshot();
  if (samples.empty()) return Status::OK();
  const Micros now = clock_->NowMicros();
  std::vector<msg::ProduceRecord> records;
  records.reserve(samples.size());
  reservoir::Schema schema(0, InternalsStreamDef().fields);
  for (const Sample& s : samples) {
    engine::EventEnvelope envelope;
    envelope.request_id = 0;  // Fire-and-forget: nothing awaits a reply.
    envelope.event = MakeInternalsEvent(
        {options_.node, s.name, s.kind, s.value}, now,
        id_base_ + next_seq_.fetch_add(1, std::memory_order_relaxed));
    msg::ProduceRecord record;
    record.key = options_.node;
    EncodeEventEnvelope(envelope, schema, &record.payload);
    records.push_back(std::move(record));
  }
  RAILGUN_RETURN_IF_ERROR(bus_->ProduceBatch(topic_, std::move(records)));
  published_.fetch_add(samples.size(), std::memory_order_relaxed);
  return Status::OK();
}

void Publisher::Loop() {
  MutexLock lock(&mu_);
  while (running_.load()) {
    cv_.WaitFor(&mu_, options_.period, [this] { return !running_.load(); });
    if (!running_.load()) break;
    lock.Unlock();
    // Best-effort: a failed snapshot (e.g. bus shutting down) is
    // dropped; the next tick retries.
    (void)PublishOnce();
    lock.Lock();
  }
}

}  // namespace railgun::introspect
