#include "ops/subscription.h"

#include <algorithm>

#include "msg/remote/wire.h"
#include "trace/tracer.h"

namespace railgun::ops {

namespace {

constexpr size_t kPumpBatch = 256;
// Pump poll quantum; Cancel cuts a park or a backoff short.
constexpr Micros kPollWait = 50 * kMicrosPerMilli;
// Server-side cap on one Fetch long-poll.
constexpr Micros kMaxFetchWait = 2 * kMicrosPerSecond;

// Joins group-key field values with a separator no ToString produces.
constexpr char kKeySep = '\x1f';

}  // namespace

SubscriptionHub::SubscriptionHub(msg::Bus* bus, StreamLookup lookup,
                                 introspect::Registry* registry,
                                 SubscriptionHubOptions options)
    : bus_(bus),
      lookup_(std::move(lookup)),
      registry_(registry),
      options_(options) {
  if (registry_ != nullptr) {
    created_ = registry_->counter("subscribe.created");
    pushed_ = registry_->counter("subscribe.records.pushed");
    dropped_ = registry_->counter("subscribe.records.dropped");
    decode_errors_ = registry_->counter("subscribe.errors");
  } else {
    owned_counters_.reserve(4);
    for (int i = 0; i < 4; ++i) {
      owned_counters_.push_back(std::make_unique<introspect::Counter>());
    }
    created_ = owned_counters_[0].get();
    pushed_ = owned_counters_[1].get();
    dropped_ = owned_counters_[2].get();
    decode_errors_ = owned_counters_[3].get();
  }
}

SubscriptionHub::~SubscriptionHub() { Stop(); }

StatusOr<uint64_t> SubscriptionHub::Create(const std::string& statement) {
  RAILGUN_ASSIGN_OR_RETURN(query::SubscribeSpec spec,
                           query::ParseSubscribe(statement));
  RAILGUN_ASSIGN_OR_RETURN(engine::StreamDef stream, lookup_(spec.stream));
  if (stream.partitioners.empty()) {
    return Status::InvalidArgument("stream has no partitioners: " +
                                   spec.stream);
  }

  auto sub = std::make_shared<Subscription>();
  sub->spec = std::move(spec);
  sub->stream = std::move(stream);
  sub->schema = reservoir::Schema(0, sub->stream.fields);
  sub->topic = sub->stream.TopicFor(sub->stream.partitioners[0]);

  if (sub->spec.filter != nullptr) {
    // The parse above minted this Expr in this call, so binding it here
    // mutates state no other subscription shares.
    RAILGUN_RETURN_IF_ERROR(sub->spec.filter->Bind(sub->schema));
  }
  if (!sub->spec.raw_tail) {
    const query::QueryDef& q = sub->spec.query;
    if (q.window.kind != window::WindowKind::kInfinite &&
        q.window.kind != window::WindowKind::kCountSliding) {
      return Status::InvalidArgument(
          "SUBSCRIBE metric tails support OVER infinite or OVER sliding N "
          "events; time windows need a registered metric");
    }
    for (const auto& field : q.group_by) {
      const int index = sub->schema.FieldIndex(field);
      if (index < 0) {
        return Status::InvalidArgument("GROUP BY field is not a field of " +
                                       sub->spec.stream + ": " + field);
      }
      sub->group_indices.push_back(index);
    }
    for (const auto& agg : q.aggs) {
      if (agg.kind == agg::AggKind::kCountDistinct) {
        return Status::InvalidArgument(
            "countDistinct needs stateful storage; SUBSCRIBE metric tails "
            "do not support it");
      }
      int index = -1;
      if (!agg.field.empty()) {
        index = sub->schema.FieldIndex(agg.field);
        if (index < 0) {
          return Status::InvalidArgument(
              "aggregation field is not a field of " + sub->spec.stream +
              ": " + agg.field);
        }
      }
      sub->agg_field_indices.push_back(index);
      sub->aggs.push_back(agg::Aggregator::Create(agg.kind));
    }
  }

  MutexLock lock(&mu_);
  if (stopped_) return Status::Unavailable("subscription hub stopped");
  sub->id = next_id_++;
  sub->consumer_id = "__railgun.sub." +
                     std::to_string(reinterpret_cast<uintptr_t>(this)) + "." +
                     std::to_string(sub->id);

  // Capture the tail position *now*: the pump's rebalance listener
  // seeks here, so events submitted after Create returns are delivered
  // and history is not — the attach point is deterministic.
  std::map<msg::TopicPartition, uint64_t> start_offsets;
  for (const auto& tp : bus_->PartitionsOf(sub->topic)) {
    auto end = bus_->EndOffset(tp);
    start_offsets[tp] = end.ok() ? end.value() : 0;
  }
  if (start_offsets.empty()) {
    return Status::NotFound("no topic for stream: " + sub->spec.stream);
  }

  msg::RebalanceListener listener;
  Subscription* raw = sub.get();
  msg::Bus* bus = bus_;
  listener.on_assigned =
      [bus, raw, start_offsets](const std::vector<msg::TopicPartition>& tps) {
        for (const auto& tp : tps) {
          const auto it = start_offsets.find(tp);
          // Partitions that appeared after Create attach at their head.
          const uint64_t offset = it == start_offsets.end() ? 0 : it->second;
          (void)bus->Seek(raw->consumer_id, tp, offset);
        }
      };
  RAILGUN_RETURN_IF_ERROR(bus_->Subscribe(sub->consumer_id, sub->consumer_id,
                                          {sub->topic}, /*metadata=*/"",
                                          std::move(listener)));
  sub->pump = std::thread([this, raw] { Pump(raw); });
  created_->Add(1);
  subs_[sub->id] = sub;
  return sub->id;
}

void SubscriptionHub::Pump(Subscription* sub) {
  msg::MessageBatch messages;
  while (!sub->stop.load(std::memory_order_acquire)) {
    const Status status =
        bus_->PollBatch(sub->consumer_id, kPumpBatch, &messages, kPollWait);
    if (status.IsNotFound()) {
      // The bus fenced the tail consumer: end the subscription the way
      // Cancel does, so the client's next Fetch gets the typed NotFound
      // and resubscribes (a fresh tail never replays history).
      MutexLock lock(&sub->mu);
      sub->stop.store(true, std::memory_order_release);
      sub->cv.NotifyAll();
      break;
    }
    if (!status.ok()) {
      if (sub->stop.load(std::memory_order_acquire)) break;
      decode_errors_->Add(1);
      // Transport failure: back off one quantum (Cancel cuts it short).
      MutexLock lock(&sub->mu);
      (void)sub->cv.WaitFor(&sub->mu, kPollWait,
                            [&]() NO_THREAD_SAFETY_ANALYSIS {
                              return sub->stop.load(
                                  std::memory_order_acquire);
                            });
      continue;
    }
    for (const msg::MessageView& message : messages.views()) {
      HandleEvent(sub, message);
    }
  }
}

void SubscriptionHub::HandleEvent(Subscription* sub,
                                  const msg::MessageView& message) {
  trace::Tracer* tracer = trace::Tracer::Global();
  const Micros t0 = tracer->NowMicros();

  engine::EventEnvelope envelope;
  Slice rest;
  if (!engine::DecodeEventEnvelope(message.payload, sub->schema,
                                   &envelope, &rest)
           .ok()) {
    decode_errors_->Add(1);
    return;
  }
  const reservoir::Event& event = envelope.event;
  if (sub->spec.filter != nullptr && !sub->spec.filter->EvalBool(event)) {
    return;
  }

  SubRecord record;
  record.timestamp = event.timestamp;
  if (sub->spec.raw_tail) {
    record.fields.reserve(sub->stream.fields.size());
    for (size_t i = 0; i < sub->stream.fields.size(); ++i) {
      record.fields.emplace_back(sub->stream.fields[i].name,
                                 event.values[i]);
    }
  } else {
    // Metric tail: fold the event into per-group aggregator state
    // (pump-thread-only, no lock needed) and emit one update row.
    std::string key;
    for (const int index : sub->group_indices) {
      key += event.values[index].ToString();
      key += kKeySep;
    }
    GroupState& group = sub->groups[key];
    if (group.agg_states.empty()) {
      group.agg_states.resize(sub->aggs.size());
    }
    // Project the aggregated fields into one event, in AggSpec order, so
    // a count-sliding window can keep exactly what entered and expire
    // it later. Its offset is the subscription's arrival number: the
    // tail reads every partition of the topic, where log offsets repeat,
    // and max/min match expiries to deque entries by offset.
    reservoir::Event projected;
    projected.offset = sub->arrivals++;
    projected.values.resize(sub->aggs.size());
    for (size_t i = 0; i < sub->aggs.size(); ++i) {
      const int index = sub->agg_field_indices[i];
      if (index >= 0) projected.values[i] = event.values[index];
    }
    const auto projected_field = [sub](size_t i) {
      return sub->agg_field_indices[i] >= 0 ? static_cast<int>(i) : -1;
    };
    agg::AggContext agg_ctx;
    const reservoir::Event* entering = &projected;
    for (size_t i = 0; i < sub->aggs.size(); ++i) {
      if (!sub->aggs[i]
               ->Enter(&entering, 1, projected_field(i),
                       &group.agg_states[i], &agg_ctx)
               .ok()) {
        decode_errors_->Add(1);
        return;
      }
    }
    if (sub->spec.query.window.kind == window::WindowKind::kCountSliding) {
      group.recent.push_back(std::move(projected));
      while (group.recent.size() > sub->spec.query.window.count) {
        const reservoir::Event* expiring = &group.recent.front();
        for (size_t i = 0; i < sub->aggs.size(); ++i) {
          (void)sub->aggs[i]->Expire(&expiring, 1, projected_field(i),
                                     &group.agg_states[i], &agg_ctx);
        }
        group.recent.pop_front();
      }
    }
    for (const int index : sub->group_indices) {
      record.fields.emplace_back(sub->stream.fields[index].name,
                                 event.values[index]);
    }
    for (size_t i = 0; i < sub->aggs.size(); ++i) {
      auto result = sub->aggs[i]->Result(group.agg_states[i]);
      if (!result.ok()) {
        decode_errors_->Add(1);
        return;
      }
      record.fields.emplace_back(sub->spec.query.aggs[i].name,
                                 std::move(result).value());
    }
  }

  Enqueue(sub, std::move(record));
  // The push span parents under the submit that produced the event, so
  // an exported trace shows client.submit -> ... -> subscribe.push.
  const trace::TraceContext ctx = trace::ParseTraceTrailer(rest);
  if (ctx.valid()) {
    (void)tracer->Record(trace::Stage::kSubscribePush, ctx, t0,
                         tracer->NowMicros());
  }
}

void SubscriptionHub::Enqueue(Subscription* sub, SubRecord record) {
  MutexLock lock(&sub->mu);
  record.seq = sub->next_seq++;
  sub->queue.push_back(std::move(record));
  while (sub->queue.size() > options_.queue_capacity) {
    sub->queue.pop_front();
    ++sub->dropped_total;
    dropped_->Add(1);
  }
  pushed_->Add(1);
  sub->cv.NotifyAll();
}

std::shared_ptr<SubscriptionHub::Subscription> SubscriptionHub::Find(
    uint64_t sub_id) {
  MutexLock lock(&mu_);
  auto it = subs_.find(sub_id);
  return it == subs_.end() ? nullptr : it->second;
}

Status SubscriptionHub::Fetch(uint64_t sub_id, uint64_t acked_seq,
                              uint32_t max_records, Micros max_wait,
                              SubFetchReply* reply) {
  std::shared_ptr<Subscription> sub = Find(sub_id);
  if (sub == nullptr) {
    return Status::NotFound("unknown subscription (resubscribe)");
  }
  reply->records.clear();

  MutexLock lock(&sub->mu);
  // Acked records are consumed: trim them so they are never redelivered.
  while (!sub->queue.empty() && sub->queue.front().seq <= acked_seq) {
    sub->queue.pop_front();
  }
  const Micros wait = std::min(max_wait, kMaxFetchWait);
  if (sub->queue.empty() && wait > 0) {
    (void)sub->cv.WaitFor(&sub->mu, wait, [&]() NO_THREAD_SAFETY_ANALYSIS {
      return !sub->queue.empty() ||
             sub->stop.load(std::memory_order_acquire);
    });
  }
  if (sub->stop.load(std::memory_order_acquire)) {
    return Status::NotFound("subscription cancelled");
  }
  const size_t take =
      std::min<size_t>(sub->queue.size(),
                       max_records == 0 ? kPumpBatch : max_records);
  for (size_t i = 0; i < take; ++i) {
    reply->records.push_back(sub->queue[i]);
  }
  reply->dropped_total = sub->dropped_total;
  reply->lag = sub->queue.size() - take;
  return Status::OK();
}

Status SubscriptionHub::Cancel(uint64_t sub_id) {
  std::shared_ptr<Subscription> sub;
  {
    MutexLock lock(&mu_);
    auto it = subs_.find(sub_id);
    if (it == subs_.end()) {
      return Status::NotFound("unknown subscription");
    }
    sub = std::move(it->second);
    subs_.erase(it);
  }
  sub->stop.store(true, std::memory_order_release);
  (void)bus_->WakeConsumer(sub->consumer_id);
  {
    MutexLock lock(&sub->mu);
    sub->cv.NotifyAll();
  }
  if (sub->pump.joinable()) sub->pump.join();
  (void)bus_->Unsubscribe(sub->consumer_id);
  return Status::OK();
}

void SubscriptionHub::Stop() {
  std::vector<uint64_t> ids;
  {
    MutexLock lock(&mu_);
    stopped_ = true;
    for (const auto& [id, sub] : subs_) ids.push_back(id);
  }
  for (const uint64_t id : ids) (void)Cancel(id);
}

bool SubscriptionHub::HandleWire(uint8_t opcode, const Slice& payload,
                                 Status* status, std::string* result) {
  using msg::remote::OpCode;
  switch (static_cast<OpCode>(opcode)) {
    case OpCode::kSubCreate: {
      SubCreateRequest request;
      Status s = DecodeSubCreateRequest(payload, &request);
      if (s.ok()) {
        StatusOr<uint64_t> id = Create(request.statement);
        if (id.ok()) {
          SubCreateReply reply;
          reply.sub_id = id.value();
          EncodeSubCreateReply(reply, result);
          s = Status::OK();
        } else {
          s = id.status();
        }
      }
      *status = s;
      return true;
    }
    case OpCode::kSubFetch: {
      SubFetchRequest request;
      Status s = DecodeSubFetchRequest(payload, &request);
      if (s.ok()) {
        SubFetchReply reply;
        s = Fetch(request.sub_id, request.acked_seq, request.max_records,
                  request.max_wait_us, &reply);
        if (s.ok()) EncodeSubFetchReply(reply, result);
      }
      *status = s;
      return true;
    }
    case OpCode::kSubCancel: {
      SubCancelRequest request;
      Status s = DecodeSubCancelRequest(payload, &request);
      if (s.ok()) s = Cancel(request.sub_id);
      *status = s;
      return true;
    }
    default:
      return false;
  }
}

size_t SubscriptionHub::subscriber_count() const {
  MutexLock lock(&mu_);
  return subs_.size();
}

size_t SubscriptionHub::TotalQueueDepth() const {
  std::vector<std::shared_ptr<Subscription>> subs;
  {
    MutexLock lock(&mu_);
    subs.reserve(subs_.size());
    for (const auto& [id, sub] : subs_) subs.push_back(sub);
  }
  size_t depth = 0;
  for (const auto& sub : subs) {
    MutexLock lock(&sub->mu);
    depth += sub->queue.size();
  }
  return depth;
}

}  // namespace railgun::ops
