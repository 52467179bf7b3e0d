#include "engine/processor_unit.h"

#include <algorithm>

#include "common/hash.h"
#include "trace/tracer.h"

namespace railgun::engine {

namespace {

// Max messages taken per poll or replica fetch.
constexpr size_t kPollMax = 256;
// Max real time the loop parks in its blocking poll (or backs off after
// a failed one) before re-checking shutdown, operational requests and
// replica fetches. A message, rebalance or wake ends the park sooner.
constexpr Micros kPollWait = 10 * kMicrosPerMilli;

}  // namespace

ProcessorUnit::ProcessorUnit(const UnitOptions& options, std::string unit_id,
                             std::string node_id, std::string dir,
                             msg::Bus* bus, Coordinator* coordinator,
                             Clock* clock)
    : options_(options),
      unit_id_(std::move(unit_id)),
      node_id_(std::move(node_id)),
      dir_(std::move(dir)),
      bus_(bus),
      coordinator_(coordinator),
      clock_(clock) {
  if (options_.registry != nullptr) {
    batch_size_ = options_.registry->histogram("unit.batch_size");
    routed_published_ = options_.registry->counter("ops.routed.published");
    routed_dropped_ = options_.registry->counter("ops.routed.dropped");
  }
  // Pipeline counters register against the same registry.
  options_.task.registry = options_.registry;
}

ProcessorUnit::~ProcessorUnit() {
  Stop();
}

Status ProcessorUnit::Start() {
  coordinator_->RegisterUnitDir(unit_id_, dir_);
  RAILGUN_RETURN_IF_ERROR(Subscribe());
  running_ = true;
  thread_ = std::thread([this] { Run(); });
  return Status::OK();
}

void ProcessorUnit::Stop() {
  if (!running_.exchange(false)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  backoff_cv_.NotifyAll();
  (void)bus_->WakeConsumer(unit_id_);  // Cut the poll's park short.
  if (thread_.joinable()) thread_.join();
  (void)bus_->Unsubscribe(unit_id_);  // Best effort on shutdown.
}

void ProcessorUnit::Kill() {
  running_ = false;
  backoff_cv_.NotifyAll();
  (void)bus_->WakeConsumer(unit_id_);  // Cut the poll's park short.
  if (thread_.joinable()) thread_.join();
  // No Unsubscribe: the bus discovers the death via heartbeat expiry
  // (or the harness calls KillConsumer for immediate detection).
}

void ProcessorUnit::EnqueueRegisterStream(const StreamDef& stream) {
  {
    MutexLock lock(&mu_);
    pending_streams_.push_back(stream);
  }
  // The loop applies the registration on its next pass; interrupt its
  // park so DDL takes effect promptly.
  (void)bus_->WakeConsumer(unit_id_);
}

UnitStats ProcessorUnit::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

std::vector<msg::TopicPartition> ProcessorUnit::active_tasks() const {
  MutexLock lock(&mu_);
  return active_tasks_;
}

std::vector<msg::TopicPartition> ProcessorUnit::replica_tasks() const {
  MutexLock lock(&mu_);
  std::vector<msg::TopicPartition> result;
  for (const auto& [tp, pos] : replica_positions_) result.push_back(tp);
  return result;
}

TaskProcessor* ProcessorUnit::FindProcessor(const msg::TopicPartition& tp) {
  MutexLock lock(&mu_);
  auto it = processors_.find(Coordinator::TaskSubdir(tp));
  return it == processors_.end() ? nullptr : it->second.get();
}

const StreamDef* ProcessorUnit::StreamForTopic(
    const std::string& topic) const {
  for (const auto& [name, stream] : streams_) {
    for (const auto& p : stream.partitioners) {
      if (stream.TopicFor(p) == topic) return &stream;
    }
  }
  return nullptr;
}

void ProcessorUnit::DrainOperationalRequests() {
  std::deque<StreamDef> pending;
  {
    MutexLock lock(&mu_);
    pending.swap(pending_streams_);
  }
  if (pending.empty()) return;

  // Propagate updated stream definitions into live task processors:
  // queries added at runtime are planned and backfilled (paper §3.1
  // operational requests / §6 metric backfill).
  {
    MutexLock lock(&mu_);
    for (auto& stream : pending) streams_[stream.name] = std::move(stream);
    for (auto& [key, processor] : processors_) {
      const StreamDef* stream = StreamForTopic(processor->topic());
      if (stream != nullptr && !processor->SyncQueries(*stream).ok()) {
        // A query whose backfill failed stays uninstalled; the next
        // RegisterStream retries it. Count it like a rejected message.
        ++stats_.process_failures;
      }
    }
  }

  if (!Subscribe().ok()) {
    MutexLock lock(&mu_);
    ++stats_.poll_errors;
  }
}

Status ProcessorUnit::Subscribe() {
  // (Re-)subscribe to the union of all event topics.
  std::vector<std::string> topics;
  {
    MutexLock lock(&mu_);
    for (const auto& [name, stream] : streams_) {
      for (const auto& p : stream.partitioners) {
        topics.push_back(stream.TopicFor(p));
      }
    }
  }
  msg::RebalanceListener listener;
  listener.on_assigned = [this](const std::vector<msg::TopicPartition>& a) {
    HandleAssigned(a);
  };
  listener.on_revoked = [this](const std::vector<msg::TopicPartition>& r) {
    MutexLock lock(&mu_);
    for (const auto& tp : r) {
      active_tasks_.erase(
          std::remove(active_tasks_.begin(), active_tasks_.end(), tp),
          active_tasks_.end());
    }
  };
  return bus_->Subscribe(unit_id_, kActiveGroup, topics,
                         "node=" + node_id_ + ";unit=" + unit_id_,
                         std::move(listener));
}

void ProcessorUnit::HandleAssigned(
    const std::vector<msg::TopicPartition>& assigned) {
  for (const auto& tp : assigned) {
    uint64_t replay_offset = 0;
    auto proc_or = GetOrCreateProcessor(tp, &replay_offset);
    if (!proc_or.ok()) continue;
    Status seek = bus_->Seek(unit_id_, tp, replay_offset);
    MutexLock lock(&mu_);
    if (!seek.ok()) {
      // The poll continues from the committed position instead of the
      // checkpointed one; surfaced like any other failed bus call.
      ++stats_.poll_errors;
    }
    if (std::find(active_tasks_.begin(), active_tasks_.end(), tp) ==
        active_tasks_.end()) {
      active_tasks_.push_back(tp);
    }
  }
}

StatusOr<TaskProcessor*> ProcessorUnit::GetOrCreateProcessor(
    const msg::TopicPartition& tp, uint64_t* replay_offset) {
  const std::string key = Coordinator::TaskSubdir(tp);
  const StreamDef* stream;
  {
    MutexLock lock(&mu_);
    auto it = processors_.find(key);
    if (it != processors_.end()) {
      *replay_offset = it->second->replay_offset();
      return it->second.get();
    }
    stream = StreamForTopic(tp.topic);
  }
  if (stream == nullptr) {
    return Status::NotFound("no stream registered for topic " + tp.topic);
  }

  Env* env = options_.task.db.env != nullptr ? options_.task.db.env
                                             : Env::Default();
  const std::string task_dir = dir_ + "/" + key;
  const bool have_local_data =
      env->FileExists(task_dir + "/reservoir") ||
      env->FileExists(task_dir + "/ckpt/CURRENT");

  bool recovered_from_donor = false;
  uint64_t copied_bytes = 0;
  if (!have_local_data) {
    // Recovery (paper §4.2): copy reservoir + state store checkpoint
    // from a unit that still has data for this task.
    const std::string donor = coordinator_->FindDonorDir(tp, unit_id_);
    if (!donor.empty() && env->FileExists(donor)) {
      RAILGUN_RETURN_IF_ERROR(
          TaskProcessor::CloneData(env, donor, task_dir));
      recovered_from_donor = true;
      std::vector<std::string> children;
      if (env->ListDir(task_dir + "/reservoir", &children).ok()) {
        for (const auto& c : children) {
          uint64_t size = 0;
          if (env->GetFileSize(task_dir + "/reservoir/" + c, &size).ok()) {
            copied_bytes += size;
          }
        }
      }
    }
  }

  auto processor = std::make_unique<TaskProcessor>(options_.task, task_dir,
                                                   *stream, tp.topic);
  RAILGUN_RETURN_IF_ERROR(processor->Open());
  *replay_offset = processor->replay_offset();

  TaskProcessor* raw = processor.get();
  {
    MutexLock lock(&mu_);
    processors_[key] = std::move(processor);
    if (recovered_from_donor) {
      ++stats_.recoveries;
      stats_.bytes_recovered += copied_bytes;
    } else if (!have_local_data) {
      ++stats_.fresh_tasks;
    }
  }
  return raw;
}

void ProcessorUnit::SyncReplicaTasks() {
  const uint64_t generation = coordinator_->generation();
  if (generation == seen_generation_) return;
  seen_generation_ = generation;

  const std::vector<msg::TopicPartition> replicas =
      coordinator_->ReplicaTasksFor(unit_id_);

  // Kept replicas keep their progress; new ones start at UINT64_MAX,
  // initialized lazily by the loop.
  std::map<msg::TopicPartition, uint64_t> new_positions;
  MutexLock lock(&mu_);
  for (const auto& tp : replicas) {
    auto it = replica_positions_.find(tp);
    new_positions[tp] = it != replica_positions_.end() ? it->second
                                                       : UINT64_MAX;
  }
  replica_positions_ = std::move(new_positions);
}

namespace {
// Binds a routed field value to the target schema's declared type.
// Numeric widening/narrowing is allowed; anything is stringifiable;
// bools only accept bools and ints.
bool CoerceTo(reservoir::FieldType type, const reservoir::FieldValue& v,
              reservoir::FieldValue* out) {
  switch (type) {
    case reservoir::FieldType::kInt64:
      if (v.is_string()) return false;
      *out = reservoir::FieldValue(static_cast<int64_t>(v.ToNumber()));
      return true;
    case reservoir::FieldType::kDouble:
      if (v.is_string()) return false;
      *out = reservoir::FieldValue(v.ToNumber());
      return true;
    case reservoir::FieldType::kString:
      *out = reservoir::FieldValue(v.ToString());
      return true;
    case reservoir::FieldType::kBool:
      if (v.is_bool()) {
        *out = v;
      } else if (v.is_int()) {
        *out = reservoir::FieldValue(v.as_int() != 0);
      } else {
        return false;
      }
      return true;
  }
  return false;
}
}  // namespace

void ProcessorUnit::PublishRouted(std::vector<ops::RoutedEvent> routed) {
  if (routed.empty()) return;
  std::map<std::string, std::vector<msg::ProduceRecord>> batches;
  uint64_t dropped = 0;
  uint64_t prepared = 0;
  for (auto& re : routed) {
    StreamDef target;
    {
      MutexLock lock(&mu_);
      auto it = streams_.find(re.target);
      if (it == streams_.end()) {
        // Target stream unknown on this node: typed drop, not a crash —
        // registration may still be propagating.
        ++dropped;
        continue;
      }
      target = it->second;
    }
    const reservoir::Schema schema(0, target.fields);
    EventEnvelope envelope;  // request_id 0: fire-and-forget.
    envelope.event.timestamp = re.timestamp;
    // Deterministic derived id: a replayed source event re-derives the
    // same id, so the target reservoir's dedup keeps routing idempotent.
    envelope.event.id = MixHash64(Hash64(re.target) ^ re.source_id);
    envelope.event.values.reserve(target.fields.size());
    bool bound = true;
    for (const auto& field : target.fields) {
      const reservoir::FieldValue* found = nullptr;
      for (const auto& [name, value] : re.fields) {
        if (name == field.name) {
          found = &value;
          break;
        }
      }
      reservoir::FieldValue coerced;
      if (found == nullptr || !CoerceTo(field.type, *found, &coerced)) {
        bound = false;
        break;
      }
      envelope.event.values.push_back(std::move(coerced));
    }
    if (!bound) {
      ++dropped;
      continue;
    }
    std::string payload;
    EncodeEventEnvelope(envelope, schema, &payload);
    bool keyed = true;
    for (const auto& p : target.partitioners) {
      const int field = schema.FieldIndex(p);
      if (field < 0) {
        keyed = false;
        break;
      }
      batches[target.TopicFor(p)].push_back(
          {envelope.event.values[field].ToString(), payload});
    }
    if (keyed) {
      ++prepared;
    } else {
      ++dropped;
    }
  }
  uint64_t publish_errors = 0;
  for (auto& [topic, records] : batches) {
    if (!bus_->ProduceBatch(topic, std::move(records)).ok()) {
      ++publish_errors;
    }
  }
  if (routed_published_ != nullptr) routed_published_->Add(prepared);
  if (routed_dropped_ != nullptr) routed_dropped_->Add(dropped);
  MutexLock lock(&mu_);
  stats_.routed_events += prepared;
  stats_.routed_drops += dropped;
  stats_.publish_errors += publish_errors;
}

void ProcessorUnit::ProcessGrouped(
    const std::map<msg::TopicPartition, std::vector<msg::MessageView>>&
        groups,
    bool active) {
  // Replies for active tasks are batched per reply topic and published
  // with one ProduceBatch each; replicas stay silent (Algorithm 1).
  std::map<std::string, std::vector<msg::ProduceRecord>> reply_batches;
  // First traced reply per topic anchors that topic's publish span.
  std::map<std::string, trace::TraceContext> reply_trace_ctx;
  for (const auto& [tp, messages] : groups) {
    uint64_t replay_offset = 0;
    auto proc_or = GetOrCreateProcessor(tp, &replay_offset);
    if (!proc_or.ok()) continue;
    std::vector<ReplyEnvelope> replies;
    size_t failed = 0;
    if (!proc_or.value()->ProcessBatch(messages, &replies, &failed).ok()) {
      continue;
    }
    // Drain pipeline-routed events every batch (bounded memory). Only
    // the active task publishes; a replica ran the pipeline merely to
    // keep state warm, and its outputs would be duplicates.
    std::vector<ops::RoutedEvent> routed = proc_or.value()->TakeRouted();
    if (active) PublishRouted(std::move(routed));
    {
      MutexLock lock(&mu_);
      stats_.process_failures += failed;
      if (active) {
        stats_.active_messages += messages.size() - failed;
      } else {
        stats_.replica_messages += messages.size() - failed;
      }
    }
    if (!active) continue;
    for (size_t i = 0; i < messages.size(); ++i) {
      ReplyEnvelope& reply = replies[i];
      if (reply.request_id == 0 || reply.reply_topic.empty()) continue;
      std::string encoded;
      EncodeReplyEnvelope(reply, &encoded);
      // The trailer forwards the unit-side context so the front end's
      // completion span links into the same trace.
      trace::AppendTraceTrailer(reply.trace, &encoded);
      if (reply.trace.valid() &&
          !reply_trace_ctx.count(reply.reply_topic)) {
        reply_trace_ctx[reply.reply_topic] = reply.trace;
      }
      reply_batches[reply.reply_topic].push_back(
          {messages[i].key.ToString(), std::move(encoded)});
    }
  }
  trace::Tracer* tracer = trace::Tracer::Global();
  for (auto& [topic, records] : reply_batches) {
    const uint64_t count = records.size();
    const trace::TraceContext publish_ctx = reply_trace_ctx[topic];
    const Micros publish_start =
        tracer->enabled() ? tracer->NowMicros() : 0;
    Status published;
    {
      // Ambient context for the in-process broker's append span.
      trace::ScopedTraceContext scope(publish_ctx);
      published = bus_->ProduceBatch(topic, std::move(records));
    }
    if (publish_start != 0) {
      tracer->Record(trace::Stage::kReplyPublish, publish_ctx,
                     publish_start, tracer->NowMicros());
    }
    MutexLock lock(&mu_);
    if (published.ok()) {
      stats_.replies_sent += count;
    } else {
      ++stats_.publish_errors;
    }
  }
}

void ProcessorUnit::Run() {
  while (running_) {
    DrainOperationalRequests();
    SyncReplicaTasks();

    // Active tasks: blocking poll through the consumer group. Acts as
    // the heartbeat and parks (wake-on-arrival) when nothing is ready.
    // PollBatch hands back views into the transport's pooled buffer, so
    // the hot path never copies event payloads into per-message strings.
    trace::Tracer* tracer = trace::Tracer::Global();
    const Micros poll_start = tracer->enabled() ? tracer->NowMicros() : 0;
    Status poll_status =
        bus_->PollBatch(unit_id_, kPollMax, &active_batch_, kPollWait);
    if (poll_start != 0 && !active_batch_.empty()) {
      // No context yet at poll time: histogram-only hop (park-to-batch
      // latency; empty polls are just the idle park, skip them).
      tracer->Record(trace::Stage::kUnitPoll, trace::TraceContext(),
                     poll_start, tracer->NowMicros());
    }
    if (poll_status.IsNotFound()) {
      // The bus fenced this unit while it was still alive (a missed
      // session, or KillConsumer): its partitions already belong to
      // other units. Drop them as a revoke would, then rejoin; the
      // partitions that come back go through HandleAssigned, which
      // resumes each where its processor stopped.
      {
        MutexLock lock(&mu_);
        active_tasks_.clear();
      }
      poll_status = Subscribe();
    }
    if (!poll_status.ok()) {
      // A failed poll or rejoin returns immediately: back off one real-
      // time slice so replica duty continues without hot-spinning.
      MutexLock lock(&mu_);
      ++stats_.poll_errors;
      if (running_) backoff_cv_.WaitFor(&mu_, kPollWait);
    }

    // Replica tasks: direct fetch, tracked positions. Fetched messages
    // are owned by keepalive batches so the grouped views stay valid.
    std::map<msg::TopicPartition, std::vector<msg::MessageView>>
        replica_groups;
    std::deque<msg::MessageBatch> replica_keepalive;
    std::map<msg::TopicPartition, uint64_t> replica_list;
    {
      MutexLock lock(&mu_);
      replica_list = replica_positions_;
    }
    for (auto& [tp, pos] : replica_list) {
      if (pos == UINT64_MAX) {
        // First contact with this replica task: build the processor
        // (recovering data if needed) and start from its replay offset.
        uint64_t replay_offset = 0;
        auto proc_or = GetOrCreateProcessor(tp, &replay_offset);
        if (!proc_or.ok()) continue;
        pos = replay_offset;
      }
      std::vector<msg::Message> batch;
      const Status fetched = bus_->Fetch(tp, pos, kPollMax, &batch);
      if (fetched.ok() && !batch.empty()) {
        // Advance past what was actually read: retention may have
        // clamped the fetch forward of pos (offsets are absolute).
        pos = batch.back().offset + 1;
        replica_keepalive.emplace_back();
        replica_keepalive.back().Adopt(std::move(batch));
        replica_groups[tp] = replica_keepalive.back().views();
      }
      MutexLock lock(&mu_);
      if (!fetched.ok()) ++stats_.poll_errors;
      auto it = replica_positions_.find(tp);
      if (it != replica_positions_.end()) it->second = pos;
    }

    if (batch_size_ != nullptr && !active_batch_.empty()) {
      batch_size_->Record(static_cast<int64_t>(active_batch_.size()));
    }

    // Group active message views by task so each task processor handles
    // its slice of the poll as one batch. Views stay backed by
    // active_batch_ (pooled wire buffer or adopted messages).
    std::map<msg::TopicPartition, std::vector<msg::MessageView>>
        active_groups;
    for (const auto& view : active_batch_.views()) {
      active_groups[view.topic_partition()].push_back(view);
    }

    ProcessGrouped(active_groups, /*active=*/true);
    ProcessGrouped(replica_groups, /*active=*/false);
    active_batch_.Clear();
  }
}

}  // namespace railgun::engine
