#include "engine/frontend.h"

#include "common/hash.h"
#include "common/logging.h"
#include "introspect/internals.h"
#include "trace/trace_context.h"

namespace railgun::engine {

namespace {

// Max real time the front-end thread parks in its blocking reply poll
// before re-checking deadlines and shutdown. Replies wake it
// immediately; this only bounds the idle park.
constexpr Micros kPollWait = 5 * kMicrosPerMilli;
// Max replies taken per poll.
constexpr size_t kPollMax = 1024;

}  // namespace

FrontEnd::FrontEnd(const FrontEndOptions& options, std::string node_id,
                   msg::Bus* bus, Clock* clock)
    : options_(options),
      node_id_(std::move(node_id)),
      bus_(bus),
      clock_(clock),
      reply_topic_("replies." + node_id_),
      consumer_id_("fe." + node_id_),
      admission_(options.admission) {
  if (options_.registry != nullptr) {
    submit_latency_ =
        options_.registry->histogram("frontend.submit_latency_us");
  }
}

FrontEnd::~FrontEnd() { Stop(); }

Status FrontEnd::Start() {
  RAILGUN_RETURN_IF_ERROR(SubscribeReplies());
  running_ = true;
  thread_ = std::thread([this] { Run(); });
  return Status::OK();
}

Status FrontEnd::SubscribeReplies() {
  // (Re-)creating the topic here also restores it on a restarted broker.
  Status s = bus_->CreateTopic(reply_topic_, 1);
  if (!s.ok() && !s.IsAlreadyExists()) return s;
  // The front end consumes its reply topic through a private group so
  // its loop can park in a blocking Poll (wake-on-arrival) instead of
  // fetch-and-sleep polling.
  return bus_->Subscribe(consumer_id_, "fe." + node_id_, {reply_topic_}, "",
                         {});
}

void FrontEnd::Stop() {
  running_ = false;
  {
    MutexLock lock(&mu_);
    backoff_cv_.NotifyAll();  // Cut a poll-error backoff short.
  }
  (void)bus_->WakeConsumer(consumer_id_);  // Cut a parked reply poll short.
  if (thread_.joinable()) thread_.join();
  // NotFound when never started: fine.
  (void)bus_->Unsubscribe(consumer_id_);
  // Fail outstanding requests so no caller blocks on a reply that can
  // never arrive.
  std::vector<Completion> orphaned;
  for (auto& shard : pending_) {
    MutexLock lock(&shard.mu);
    for (auto& [id, pending] : shard.entries) {
      orphaned.push_back({std::move(pending.callback),
                          std::move(pending.results),
                          Status::Unavailable("front end stopped")});
    }
    pending_count_.fetch_sub(shard.entries.size(),
                             std::memory_order_relaxed);
    shard.entries.clear();
  }
  for (auto& completion : orphaned) {
    if (completion.callback) {
      completion.callback(completion.status, completion.results);
    }
  }
}

Status FrontEnd::RegisterStream(const StreamDef& stream) {
  for (const auto& p : stream.partitioners) {
    Status s =
        bus_->CreateTopic(stream.TopicFor(p), stream.partitions_per_topic);
    if (!s.ok() && !s.IsAlreadyExists()) return s;
  }
  auto route = std::make_shared<Route>();
  route->stream = stream;
  route->schema = reservoir::Schema(0, stream.fields);
  for (const auto& p : stream.partitioners) {
    const int field = route->schema.FieldIndex(p);
    if (field < 0) {
      return Status::InvalidArgument("partitioner not in schema: " + p);
    }
    route->targets.push_back({stream.TopicFor(p), field});
  }
  MutexLock lock(&mu_);
  routes_[stream.name] = std::move(route);
  return Status::OK();
}

Status FrontEnd::Enqueue(const Route& route, const reservoir::Event& event,
                         ReplyCallback callback,
                         const trace::TraceContext& trace_ctx, Outbox* out) {
  trace::Tracer* tracer = trace::Tracer::Global();
  const Micros trace_start = trace_ctx.valid() ? tracer->NowMicros() : 0;
  for (const auto& [topic, field] : route.targets) {
    if (static_cast<size_t>(field) >= event.values.size()) {
      return Status::InvalidArgument("event is missing partitioner field");
    }
  }

  EventEnvelope envelope;
  if (callback != nullptr) {
    // Request ids must be unique per reply topic; salt with the node id.
    uint64_t request_id =
        (Hash64(node_id_) & 0xffff000000000000ull) |
        (next_request_id_.fetch_add(1) & 0x0000ffffffffffffull);
    if (request_id == 0) request_id = next_request_id_.fetch_add(1);
    out->request_ids.push_back(request_id);
    envelope.request_id = request_id;
    envelope.reply_topic = reply_topic_;

    Pending pending;
    pending.expected = static_cast<int>(route.targets.size());
    pending.callback = std::move(callback);
    pending.submitted_at = clock_->NowMicros();
    pending.deadline = pending.submitted_at + options_.request_timeout;
    PendingShard& shard = ShardFor(request_id);
    MutexLock lock(&shard.mu);
    shard.entries[request_id] = std::move(pending);
    pending_count_.fetch_add(1, std::memory_order_relaxed);
  }
  envelope.event = event;
  std::string& payload = out->encoded;
  payload.clear();
  EncodeEventEnvelope(envelope, route.schema, &payload);
  if (trace_ctx.valid()) {
    // Record the enqueue hop and ship the advanced context in the
    // envelope trailer: every downstream hop parents under it. The
    // batch's produce hop records under its first traced event.
    const trace::TraceContext advanced =
        tracer->Record(trace::Stage::kFrontendEnqueue, trace_ctx,
                       trace_start, tracer->NowMicros());
    trace::AppendTraceTrailer(advanced, &payload);
    if (!out->trace.valid()) out->trace = advanced;
  }
  // The bus keeps each record's payload until its readers are done with
  // it, so every target gets an exact-size copy, not the buffer's slack.
  for (size_t t = 0; t < route.targets.size(); ++t) {
    out->records[t].push_back(
        {event.values[route.targets[t].second].ToString(), payload});
  }
  return Status::OK();
}

Status FrontEnd::Submit(const std::string& stream_name,
                        const reservoir::Event& event,
                        ReplyCallback callback,
                        const trace::TraceContext& trace_ctx) {
  std::vector<reservoir::Event> events = {event};
  std::vector<ReplyCallback> callbacks;
  callbacks.push_back(std::move(callback));
  return SubmitBatch(stream_name, events, std::move(callbacks),
                     {trace_ctx});
}

Status FrontEnd::SubmitBatch(const std::string& stream_name,
                             const std::vector<reservoir::Event>& events,
                             std::vector<ReplyCallback> callbacks,
                             const std::vector<trace::TraceContext>& traces) {
  if (!running_) {
    return Status::Unavailable("front end is not running");
  }
  std::shared_ptr<const Route> route;
  {
    MutexLock lock(&mu_);
    auto it = routes_.find(stream_name);
    if (it == routes_.end()) {
      return Status::NotFound("unknown stream: " + stream_name);
    }
    route = it->second;
  }

  // Admission control: refuse at the door, synchronously and typed,
  // before any pending entry is taken. The internals stream is exempt
  // so the engine's own health signal stays observable exactly when
  // admission is shedding — the moment it matters most.
  if (stream_name != introspect::kInternalsStream) {
    RAILGUN_RETURN_IF_ERROR(
        admission_.Admit(pending_count_.load(std::memory_order_relaxed)));
  }

  Outbox out;
  out.records.resize(route->targets.size());
  for (auto& records : out.records) records.reserve(events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    ReplyCallback callback =
        i < callbacks.size() ? std::move(callbacks[i]) : nullptr;
    const Status s = Enqueue(
        *route, events[i], std::move(callback),
        i < traces.size() ? traces[i] : trace::TraceContext{}, &out);
    if (!s.ok()) {
      // Roll back this batch's already-registered pendings: the caller
      // sees the typed error synchronously, so no callback may fire.
      for (uint64_t request_id : out.request_ids) {
        PendingShard& shard = ShardFor(request_id);
        MutexLock lock(&shard.mu);
        if (shard.entries.erase(request_id) > 0) {
          pending_count_.fetch_sub(1, std::memory_order_relaxed);
        }
      }
      return s;
    }
  }

  // Step 2 of Figure 3: replicate the batch to every partitioner topic,
  // one ProduceBatch per topic.
  trace::Tracer* tracer = trace::Tracer::Global();
  for (size_t t = 0; t < route->targets.size(); ++t) {
    const std::string& topic = route->targets[t].first;
    const Micros trace_start = out.trace.valid() ? tracer->NowMicros() : 0;
    Status published;
    {
      // Ambient context: the broker (in-process or via the remote bus's
      // wire trailer) records its append span under the produce hop.
      trace::ScopedTraceContext scope(out.trace);
      published = bus_->ProduceBatch(topic, std::move(out.records[t]));
    }
    if (out.trace.valid()) {
      tracer->Record(trace::Stage::kFrontendProduce, out.trace, trace_start,
                     tracer->NowMicros());
    }
    if (published.ok()) continue;
    ++publish_errors_;
    RAILGUN_LOG(kWarn, "frontend", "publish to %s failed: %s",
                topic.c_str(), published.ToString().c_str());
    // Every request of the batch fanned out to this topic: fail them
    // all; their other topics' late replies are discarded (the pending
    // entry is gone).
    for (uint64_t request_id : out.request_ids) {
      FailPending(request_id, published);
    }
  }
  if (!running_) {
    // Stopped while publishing: Stop may already have failed its
    // pending set, so complete the stragglers here (FailPending is
    // exactly-once under the shard lock).
    for (uint64_t request_id : out.request_ids) {
      FailPending(request_id, Status::Unavailable("front end stopped"));
    }
  }
  return Status::OK();
}

Status FrontEnd::SubmitNoReply(const std::string& stream_name,
                               const reservoir::Event& event) {
  return SubmitBatch(stream_name, {event}, {});
}

void FrontEnd::FailPending(uint64_t request_id, const Status& status) {
  Completion completion;
  {
    PendingShard& shard = ShardFor(request_id);
    MutexLock lock(&shard.mu);
    auto it = shard.entries.find(request_id);
    if (it == shard.entries.end()) return;  // Already completed.
    completion = {std::move(it->second.callback),
                  std::move(it->second.results), status};
    shard.entries.erase(it);
    pending_count_.fetch_sub(1, std::memory_order_relaxed);
  }
  if (completion.callback) {
    completion.callback(completion.status, completion.results);
  }
}

void FrontEnd::Run() {
  msg::MessageBatch batch;
  const msg::TopicPartition replies{reply_topic_, 0};
  // Reply offsets read up to (exclusive), and committed up to.
  uint64_t read_to = 0;
  uint64_t committed_to = 0;
  Micros next_sweep = 0;
  while (running_) {
    // Zero-copy reply poll: views decode straight out of the transport's
    // pooled receive buffer.
    const Status polled =
        bus_->PollBatch(consumer_id_, kPollMax, &batch, kPollWait);
    // Fenced while alive: rejoin. The bus kept the reply position, so
    // replies published meanwhile are read on the next poll.
    const bool rejoined = polled.IsNotFound() && SubscribeReplies().ok();
    if (!polled.ok() && !rejoined) {
      // Error-recovery path (transport failure), not the hot loop: back
      // off one real-time slice, then keep expiring deadlines below. A
      // simulated clock's SleepMicros would advance virtual time instead
      // of waiting, spinning the loop and ageing every deadline.
      batch.Clear();
      MutexLock lock(&mu_);
      (void)backoff_cv_.WaitFor(&mu_, kPollWait, [this] { return !running_; });
    }

    if (!batch.empty()) read_to = batch.views().back().offset + 1;
    std::vector<Completion> done;
    trace::Tracer* tracer = trace::Tracer::Global();
    for (const auto& message : batch.views()) {
      const Micros trace_start =
          tracer->enabled() ? tracer->NowMicros() : 0;
      ReplyEnvelope reply;
      Slice reply_rest;
      if (!DecodeReplyEnvelope(message.payload, &reply, &reply_rest).ok()) {
        continue;
      }
      // Trace context forwarded by the unit as a reply trailer: record
      // the completion hop so the trace covers reply delivery too.
      const trace::TraceContext reply_ctx =
          trace::ParseTraceTrailer(reply_rest);
      bool completed_request = false;
      {
        PendingShard& shard = ShardFor(reply.request_id);
        MutexLock lock(&shard.mu);
        auto it = shard.entries.find(reply.request_id);
        if (it == shard.entries.end()) continue;  // Timed out already.
        Pending& pending = it->second;
        for (auto& r : reply.results) {
          pending.results.push_back(std::move(r));
        }
        if (++pending.received >= pending.expected) {
          if (submit_latency_ != nullptr) {
            submit_latency_->Record(clock_->NowMicros() -
                                    pending.submitted_at);
          }
          done.push_back({std::move(pending.callback),
                          std::move(pending.results), Status::OK()});
          shard.entries.erase(it);
          pending_count_.fetch_sub(1, std::memory_order_relaxed);
          ++completed_;
          completed_request = true;
        }
      }
      if (completed_request && reply_ctx.valid()) {
        tracer->Record(trace::Stage::kFrontendComplete, reply_ctx,
                       trace_start, tracer->NowMicros());
      }
    }

    // Expire overdue requests: the callback fires with a typed error
    // and whatever partial results arrived (late aggregation replies
    // are discarded upstream, paper §5). The sweep walks every pending
    // entry, so it runs once per kPollWait, not on every cycle: a
    // request completes at most kPollWait past its deadline.
    const Micros now = clock_->NowMicros();
    const bool sweep = now >= next_sweep;
    if (sweep) {
      next_sweep = now + kPollWait;
      for (auto& shard : pending_) {
        MutexLock lock(&shard.mu);
        for (auto it = shard.entries.begin(); it != shard.entries.end();) {
          if (it->second.deadline <= now) {
            Pending& pending = it->second;
            done.push_back({std::move(pending.callback),
                            std::move(pending.results),
                            Status::Unavailable(
                                "request timed out: " +
                                std::to_string(pending.received) + "/" +
                                std::to_string(pending.expected) +
                                " partitioner replies arrived")});
            it = shard.entries.erase(it);
            pending_count_.fetch_sub(1, std::memory_order_relaxed);
            ++timed_out_;
          } else {
            ++it;
          }
        }
      }
    }

    for (auto& completion : done) {
      if (completion.callback) {
        completion.callback(completion.status, completion.results);
      }
    }
    // The replies read are done with: let the bus drop them. Once per
    // sweep, not per cycle: over a RemoteBus a commit is a round trip
    // this loop waits for. A failed commit is retried at the next sweep.
    if (sweep && read_to > committed_to &&
        bus_->Commit(consumer_id_, replies, read_to).ok()) {
      committed_to = read_to;
    }
  }
}

}  // namespace railgun::engine
