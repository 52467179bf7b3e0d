#include "api/client.h"

#include <unistd.h>

#include <cstdio>

#include <algorithm>

#include "common/hash.h"
#include "common/logging.h"
#include "common/random.h"
#include "meta/meta_client.h"
#include "msg/remote/remote_bus.h"
#include "msg/remote/wire.h"
#include "ops/pipeline.h"
#include "query/ddl.h"
#include "trace/tracer.h"

namespace railgun::api {

namespace {

// Remote mode: how long a metadata miss ("unknown stream") is cached
// before re-asking the broker. Bounds both the RPC rate of a misdirected
// producer and the lag until a freshly created foreign stream becomes
// submittable here.
constexpr Micros kUnknownStreamTtl = kMicrosPerSecond;

// Process-unique id for a client: names its front end's reply topic and
// salts its event ids, so independent clients (and restarts of the
// same client) never collide on the shared bus. The per-process
// counter keeps clients created within the same microsecond distinct.
std::string RandomClientId() {
  static std::atomic<uint64_t> sequence{0};
  Random64 rng(static_cast<uint64_t>(MonotonicClock::Default()->NowMicros()) ^
               (static_cast<uint64_t>(::getpid()) << 32) ^
               (sequence.fetch_add(1) << 16));
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(rng.Next()));
  return buf;
}

// Completes a request's root span: records client.submit — forced when
// the request crossed the slow threshold — and logs slow requests the
// head sampler would otherwise have skipped.
void FinishRootSpan(const trace::TraceContext& ctx, Micros start_us,
                    const std::string& stream_name) {
  trace::Tracer* tracer = trace::Tracer::Global();
  if (!ctx.valid() || !tracer->enabled()) return;
  const Micros end = tracer->NowMicros();
  const Micros elapsed = end >= start_us ? end - start_us : 0;
  const bool slow = tracer->SlowExceeded(elapsed);
  tracer->RecordRoot(trace::Stage::kClientSubmit, ctx, start_us, end, slow);
  if (slow) {
    RAILGUN_LOG(kWarn, "trace",
                "slow request on %s: %lld us (threshold %lld us), trace "
                "%016llx%016llx force-sampled",
                stream_name.c_str(), static_cast<long long>(elapsed),
                static_cast<long long>(tracer->slow_threshold_us()),
                static_cast<unsigned long long>(ctx.trace_hi),
                static_cast<unsigned long long>(ctx.trace_lo));
  }
}

}  // namespace

engine::ClusterOptions ClientOptions::ToClusterOptions() const {
  engine::ClusterOptions out = engine;
  out.num_nodes = num_nodes;
  out.node.num_processor_units = processor_units_per_node;
  out.replication_factor = replication_factor;
  out.base_dir = base_dir;
  out.node.frontend.request_timeout = request_timeout;
  out.node.frontend.admission = admission;
  if (clock != nullptr) out.clock = clock;
  return out;
}

Client::Client(const ClientOptions& options)
    : options_(options),
      clock_(options.clock != nullptr ? options.clock
                                      : MonotonicClock::Default()) {
  trace::Tracer::InitFromEnvOnce();
  client_id_ = RandomClientId();
  // Reservoirs deduplicate events by id (paper §4.1.1), so ids minted
  // by independent clients sharing one cluster must not collide: each
  // client mints from a random 64-bit base (base+1, base+2, ...), so a
  // collision needs two clients' id ranges to overlap — vanishingly
  // unlikely, where a narrow per-client prefix would alias entire id
  // streams on a prefix collision.
  event_id_base_ = Hash64(client_id_);
  if (options_.remote_address.empty()) {
    owned_cluster_.reset(new engine::Cluster(options.ToClusterOptions()));
    cluster_ = owned_cluster_.get();
  } else {
    msg::remote::RemoteBusOptions bus_options;
    bus_options.address = options_.remote_address;
    // One clock domain end to end: reconnect backoff windows must
    // elapse on the same clock as the front end's deadlines.
    bus_options.clock = clock_;
    remote_bus_.reset(new msg::remote::RemoteBus(bus_options));
    engine::FrontEndOptions frontend_options;
    frontend_options.request_timeout = options_.request_timeout;
    frontend_options.admission = options_.admission;
    remote_frontend_.reset(new engine::FrontEnd(
        frontend_options, "client-" + client_id_, remote_bus_.get(),
        clock_));
    // The stub shares the bus's connections (and so its reconnect
    // backoff and clock domain).
    meta_.reset(new meta::MetaClient(remote_bus_.get()));
  }
  if (!remote()) {
    // The built-in internals stream is queryable out of the box in
    // local mode: preloading its definition lets metric DDL validate
    // against it (the cluster-side registration rides along with the
    // first metric). Remote mode instead resolves it like any foreign
    // stream — the broker pre-registers it in the metadata service —
    // so the client's front end learns the routing too.
    engine::StreamDef internals = introspect::InternalsStreamDef();
    streams_.emplace(internals.name, std::move(internals));
  }
  if (options_.noreply_tokens_per_sec > 0) {
    noreply_bucket_ = std::make_unique<engine::TokenBucket>(
        options_.noreply_tokens_per_sec, options_.noreply_burst, clock_);
  }
  admin_.reset(new Admin(cluster_, meta_.get()));
}

Client::Client(engine::Cluster* cluster)
    : cluster_(cluster),
      admin_(new Admin(cluster_)),
      clock_(MonotonicClock::Default()) {
  // Attached clients share the cluster with other clients by
  // definition — their auto-minted event ids need the same collision
  // protection as the owning constructor's.
  trace::Tracer::InitFromEnvOnce();
  client_id_ = RandomClientId();
  event_id_base_ = Hash64(client_id_);
  engine::StreamDef internals = introspect::InternalsStreamDef();
  streams_.emplace(internals.name, std::move(internals));
}

Client::~Client() { Stop(); }

Status Client::Start() {
  if (started_) return Status::OK();
  if (remote()) {
    RAILGUN_RETURN_IF_ERROR(remote_bus_->Connect());
    RAILGUN_RETURN_IF_ERROR(remote_frontend_->Start());
    started_ = true;
    return Status::OK();
  }
  if (owned_cluster_ == nullptr) return Status::OK();
  RAILGUN_RETURN_IF_ERROR(owned_cluster_->Start());
  started_ = true;
  return Status::OK();
}

void Client::Stop() {
  if (!started_) return;
  if (remote()) {
    remote_frontend_->Stop();
    started_ = false;
    return;
  }
  if (owned_cluster_ == nullptr) return;
  owned_cluster_->Stop();
  started_ = false;
}

// --- Stream DDL ------------------------------------------------------

Status Client::CreateStream(const std::string& ddl) {
  return RunDdl(ddl, {query::DdlKind::kCreateStream},
                "CreateStream() takes CREATE STREAM statements");
}

Status Client::Query(const std::string& statement) {
  return RunDdl(statement, {query::DdlKind::kAddMetric},
                "Query() takes ADD METRIC / SELECT statements; use "
                "CreateStream() for CREATE STREAM");
}

Status Client::AddPipeline(const std::string& statement) {
  return RunDdl(statement, {query::DdlKind::kAddPipeline},
                "AddPipeline() takes ADD PIPELINE statements");
}

Status Client::Execute(const std::string& statement) {
  if (query::IsSubscribeStatement(statement)) {
    return Status::InvalidArgument(
        "SUBSCRIBE returns a live tail; use Client::Subscribe()");
  }
  return RunDdl(statement,
                {query::DdlKind::kCreateStream, query::DdlKind::kAddMetric,
                 query::DdlKind::kAddPipeline},
                "");
}

Status Client::RunDdl(const std::string& statement,
                      std::initializer_list<query::DdlKind> accepted,
                      const char* refusal) {
  RAILGUN_ASSIGN_OR_RETURN(query::DdlStatement ddl,
                           query::ParseDdlOrMetric(statement));
  if (std::find(accepted.begin(), accepted.end(), ddl.kind) ==
      accepted.end()) {
    return Status::InvalidArgument(refusal);
  }
  if (remote() && ddl.kind != query::DdlKind::kCreateStream) {
    // Foreign streams are fair game: fetch the definition from the
    // metadata service before validating against it.
    RAILGUN_RETURN_IF_ERROR(EnsureStream(ddl.kind == query::DdlKind::kAddMetric
                                             ? ddl.metric.stream
                                             : ddl.pipeline.stream));
  }
  MutexLock lock(&mu_);
  RAILGUN_ASSIGN_OR_RETURN(engine::StreamDef updated, ValidateLocked(ddl));
  if (!remote()) {
    // Registering under the lock keeps concurrent DDL on one stream
    // from dropping each other's additions.
    RAILGUN_RETURN_IF_ERROR(cluster_->RegisterStream(updated));
    engine::FoldDdl(std::move(ddl), &streams_);
    lock.Unlock();
    return WaitForRegistration(options_.request_timeout);
  }
  // The metadata service answers once every alive unit applied the
  // statement (ADD METRIC backfill included); submits must not queue
  // behind mu_ meanwhile.
  lock.Unlock();
  const Status executed = meta_->ExecuteDdl(statement);
  // AlreadyExists means the cluster has it (e.g. this client reattached
  // after a restart): still fold it into the view so the client can
  // bind and submit, and let the caller see the typed status.
  if (!executed.ok() && !executed.IsAlreadyExists()) return executed;
  if (ddl.kind == query::DdlKind::kCreateStream) {
    // Teach the client's own front end the fan-out routing (topic
    // creation over the remote bus is idempotent).
    RAILGUN_RETURN_IF_ERROR(remote_frontend_->RegisterStream(updated));
  }
  lock.Lock();
  engine::FoldDdl(std::move(ddl), &streams_);
  return executed;
}

StatusOr<engine::StreamDef> Client::ValidateLocked(
    const query::DdlStatement& ddl) const {
  if (ddl.kind == query::DdlKind::kCreateStream) {
    const std::string& name = ddl.create_stream.name;
    if (streams_.count(name) > 0) {
      return Status::AlreadyExists("stream already exists: " + name);
    }
    return engine::StreamDefFromSchema(ddl.create_stream);
  }
  const bool metric = ddl.kind == query::DdlKind::kAddMetric;
  const std::string& stream = metric ? ddl.metric.stream : ddl.pipeline.stream;
  auto it = streams_.find(stream);
  if (it == streams_.end()) {
    return Status::NotFound("unknown stream: " + stream);
  }
  // Validate against a copy; the view changes only once the statement
  // has been applied.
  engine::StreamDef updated = it->second;
  if (metric) {
    // Fail fast when no partitioner covers the metric's group-by set
    // (paper §4: metrics hash by a subset of the partitioners).
    RAILGUN_RETURN_IF_ERROR(updated.PartitionerForQuery(ddl.metric).status());
    if (engine::ContainsRaw(updated.queries, ddl.metric.raw)) {
      return Status::AlreadyExists("metric already registered: " +
                                   ddl.metric.raw);
    }
    updated.queries.push_back(ddl.metric);
    return updated;
  }
  if (engine::ContainsRaw(updated.pipelines, ddl.pipeline.raw)) {
    return Status::AlreadyExists("pipeline already registered: " +
                                 ddl.pipeline.raw);
  }
  // Compile-validate against the source schema before shipping (the
  // throwaway instance's counters are pipeline-local).
  RAILGUN_RETURN_IF_ERROR(
      ops::Pipeline::Compile(ddl.pipeline.raw,
                             reservoir::Schema(0, updated.fields),
                             /*registry=*/nullptr)
          .status());
  updated.pipelines.push_back(ddl.pipeline);
  return updated;
}

std::vector<query::PipelineSpec> Client::ListPipelines() const {
  MutexLock lock(&mu_);
  std::vector<query::PipelineSpec> out;
  for (const auto& [name, stream] : streams_) {
    out.insert(out.end(), stream.pipelines.begin(), stream.pipelines.end());
  }
  return out;
}

StatusOr<std::unique_ptr<Subscription>> Client::Subscribe(
    const std::string& statement) {
  if (!started_) return Status::Unavailable("client not started");
  if (remote()) {
    ops::SubCreateRequest request;
    request.statement = statement;
    std::string payload, result;
    ops::EncodeSubCreateRequest(request, &payload);
    RAILGUN_RETURN_IF_ERROR(remote_bus_->CallOpcode(
        "", static_cast<uint8_t>(msg::remote::OpCode::kSubCreate), payload,
        &result));
    ops::SubCreateReply reply;
    RAILGUN_RETURN_IF_ERROR(ops::DecodeSubCreateReply(Slice(result), &reply));
    return std::unique_ptr<Subscription>(
        new Subscription(remote_bus_.get(), reply.sub_id));
  }
  ops::SubscriptionHub* hub = cluster_->subscription_hub();
  if (hub == nullptr) {
    return Status::NotSupported("cluster has no subscription hub");
  }
  RAILGUN_ASSIGN_OR_RETURN(const uint64_t id, hub->Create(statement));
  return std::unique_ptr<Subscription>(new Subscription(hub, id));
}

Status Client::EnsureStream(const std::string& stream) {
  const Micros now = clock_->NowMicros();
  {
    MutexLock lock(&mu_);
    if (streams_.count(stream) > 0) return Status::OK();
    // Negative cache: a producer stuck on a misspelled stream name
    // must keep failing on a map lookup, not turn every submit into a
    // metadata round trip.
    auto it = unknown_streams_.find(stream);
    if (it != unknown_streams_.end()) {
      if (now < it->second) {
        return Status::NotFound("unknown stream: " + stream);
      }
      unknown_streams_.erase(it);
    }
  }
  if (!remote()) return Status::NotFound("unknown stream: " + stream);
  auto def_or = meta_->GetStream(stream);
  if (!def_or.ok()) {
    // Transport failures stay Unavailable and wire corruption stays
    // Corruption (both retryable); a broker without a metadata service
    // answers the RPC itself with a typed NotSupported ("unknown
    // opcode"). Only a plain miss is cached as an unknown stream.
    const Status& status = def_or.status();
    if (!status.IsNotFound()) return status;
    MutexLock lock(&mu_);
    // The negative cache is bounded: expired entries are swept on
    // insert, so it holds at most the distinct unknown names of the
    // last TTL window.
    for (auto it = unknown_streams_.begin();
         it != unknown_streams_.end();) {
      it = now < it->second ? std::next(it) : unknown_streams_.erase(it);
    }
    unknown_streams_[stream] = now + kUnknownStreamTtl;
    return Status::NotFound("unknown stream: " + stream);
  }
  engine::StreamDef def = std::move(def_or).value();
  RAILGUN_RETURN_IF_ERROR(remote_frontend_->RegisterStream(def));
  MutexLock lock(&mu_);
  streams_.emplace(def.name, std::move(def));
  unknown_streams_.erase(stream);
  return Status::OK();
}

Status Client::WaitForRegistration(Micros timeout) {
  const Micros deadline = clock_->NowMicros() + timeout;
  while (true) {
    bool pending = false;
    const int n = cluster_->num_nodes();
    for (int i = 0; i < n && !pending; ++i) {
      engine::RailgunNode* node = cluster_->node(i);
      if (!node->alive()) continue;  // Dead units never drain.
      for (int u = 0; u < node->num_units(); ++u) {
        if (node->unit(u)->has_pending_streams()) {
          pending = true;
          break;
        }
      }
    }
    if (!pending) return Status::OK();
    if (clock_->NowMicros() >= deadline) {
      return Status::Unavailable(
          "stream registration accepted but not yet applied by every "
          "processor unit");
    }
    clock_->SleepMicros(kMicrosPerMilli);
  }
}

std::vector<std::string> Client::ListStreams() const {
  std::vector<std::string> names;
  {
    MutexLock lock(&mu_);
    names.reserve(streams_.size());
    for (const auto& [name, stream] : streams_) names.push_back(name);
  }
  if (remote() && meta_ != nullptr) {
    // Merge in streams other clients declared (best effort: a broker
    // without a metadata service just yields the local view).
    auto view = meta_->GetView();
    if (view.ok()) {
      names.insert(names.end(), view.value().streams.begin(),
                   view.value().streams.end());
      std::sort(names.begin(), names.end());
      names.erase(std::unique(names.begin(), names.end()), names.end());
    }
  }
  return names;
}

StatusOr<reservoir::Schema> Client::GetSchema(const std::string& stream) {
  if (remote()) RAILGUN_RETURN_IF_ERROR(EnsureStream(stream));
  MutexLock lock(&mu_);
  auto schema = SchemaLocked(stream);
  if (schema == nullptr) return Status::NotFound("unknown stream: " + stream);
  return *schema;
}

std::shared_ptr<const reservoir::Schema> Client::SchemaLocked(
    const std::string& stream) const {
  auto cached = schemas_.find(stream);
  if (cached != schemas_.end()) return cached->second;
  auto it = streams_.find(stream);
  if (it == streams_.end()) return nullptr;
  auto schema =
      std::make_shared<const reservoir::Schema>(0, it->second.fields);
  schemas_.emplace(stream, schema);
  return schema;
}

// --- Event submission ------------------------------------------------

StatusOr<reservoir::Event> Client::BindRow(const std::string& stream_name,
                                           const Row& row) const {
  std::shared_ptr<const reservoir::Schema> schema;
  {
    MutexLock lock(&mu_);
    schema = SchemaLocked(stream_name);
  }
  if (schema == nullptr) {
    return Status::NotFound("unknown stream: " + stream_name);
  }
  RAILGUN_ASSIGN_OR_RETURN(reservoir::Event event, row.Bind(*schema));
  event.timestamp =
      row.has_timestamp() ? row.timestamp() : clock_->NowMicros();
  // Wrapping add: the counter walks a contiguous range from the
  // client's random 64-bit base.
  event.id = row.has_id() ? row.id()
                          : event_id_base_ + next_event_id_.fetch_add(1);
  return event;
}

engine::FrontEnd* Client::PickFrontEnd() {
  if (remote()) return started_ ? remote_frontend_.get() : nullptr;
  const int n = cluster_->num_nodes();
  if (n == 0) return nullptr;
  // Round-robin over alive nodes so attached multi-node clusters spread
  // client load the way independent per-node clients would.
  const uint64_t start = next_frontend_.fetch_add(1);
  for (int i = 0; i < n; ++i) {
    engine::RailgunNode* node =
        cluster_->node(static_cast<int>((start + i) % n));
    if (node->alive()) return node->frontend();
  }
  return nullptr;
}

engine::FrontEnd::ReplyCallback Client::CompletionFor(
    std::shared_ptr<ResultFuture::State> state,
    const trace::TraceContext& trace_ctx, Micros trace_start,
    const std::string& stream_name) {
  return [state = std::move(state), trace_ctx, trace_start, stream_name](
             Status status, const std::vector<engine::MetricReply>& replies) {
    EventResult result;
    result.status = std::move(status);
    result.metrics.reserve(replies.size());
    for (const auto& reply : replies) {
      result.metrics.push_back(
          {reply.metric_name, reply.group_key, reply.value});
    }
    FinishRootSpan(trace_ctx, trace_start, stream_name);
    ResultFuture::Complete(state, std::move(result));
  };
}

ResultFuture Client::Submit(const std::string& stream_name, const Row& row) {
  auto reject = [](Status status) {
    EventResult result;
    result.status = std::move(status);
    return ResultFuture::Ready(std::move(result));
  };

  if (remote()) {
    const Status known = EnsureStream(stream_name);
    if (!known.ok()) return reject(known);
  }
  auto event_or = BindRow(stream_name, row);
  if (!event_or.ok()) return reject(event_or.status());

  engine::FrontEnd* frontend = PickFrontEnd();
  if (frontend == nullptr) {
    return reject(Status::Unavailable("no alive node to submit to"));
  }

  // Root of the distributed trace: minted here, carried through the
  // event envelope, completed when the reply lands.
  trace::Tracer* tracer = trace::Tracer::Global();
  const trace::TraceContext trace_ctx = tracer->Mint();
  const Micros trace_start = trace_ctx.valid() ? tracer->NowMicros() : 0;

  auto state = std::make_shared<ResultFuture::State>();
  const Status submitted = frontend->Submit(
      stream_name, event_or.value(),
      CompletionFor(state, trace_ctx, trace_start, stream_name), trace_ctx);
  if (!submitted.ok()) return reject(submitted);
  return ResultFuture(std::move(state));
}

std::vector<ResultFuture> Client::SubmitBatch(const std::string& stream_name,
                                              const std::vector<Row>& rows) {
  std::vector<ResultFuture> futures(rows.size());
  auto reject = [](const Status& status) {
    EventResult result;
    result.status = status;
    return ResultFuture::Ready(std::move(result));
  };

  if (remote()) {
    const Status known = EnsureStream(stream_name);
    if (!known.ok()) {
      for (auto& future : futures) future = reject(known);
      return futures;
    }
  }
  // Bind every row up front; individual binding failures complete that
  // row's future without sinking the batch.
  trace::Tracer* tracer = trace::Tracer::Global();
  std::vector<reservoir::Event> events;
  std::vector<engine::FrontEnd::ReplyCallback> callbacks;
  std::vector<trace::TraceContext> traces;
  std::vector<size_t> accepted;  // Index into rows/futures.
  events.reserve(rows.size());
  callbacks.reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    auto event_or = BindRow(stream_name, rows[i]);
    if (!event_or.ok()) {
      futures[i] = reject(event_or.status());
      continue;
    }
    auto state = std::make_shared<ResultFuture::State>();
    futures[i] = ResultFuture(state);
    accepted.push_back(i);
    events.push_back(std::move(event_or).value());
    // Each row is its own trace: the head sampler decides per root.
    const trace::TraceContext trace_ctx = tracer->Mint();
    const Micros trace_start = trace_ctx.valid() ? tracer->NowMicros() : 0;
    traces.push_back(trace_ctx);
    callbacks.push_back(
        CompletionFor(std::move(state), trace_ctx, trace_start, stream_name));
  }
  if (events.empty()) return futures;

  engine::FrontEnd* frontend = PickFrontEnd();
  if (frontend == nullptr) {
    const Status unavailable =
        Status::Unavailable("no alive node to submit to");
    for (size_t i : accepted) futures[i] = reject(unavailable);
    return futures;
  }
  const Status submitted = frontend->SubmitBatch(
      stream_name, events, std::move(callbacks), traces);
  if (!submitted.ok()) {
    // Synchronous rejection: no callback fires for this batch.
    for (size_t i : accepted) futures[i] = reject(submitted);
  }
  return futures;
}

EventResult Client::SubmitSync(const std::string& stream_name,
                               const Row& row) {
  ResultFuture future = Submit(stream_name, row);
  // Every accepted request completes — with replies, with the
  // front-end's own deadline, or with Unavailable on shutdown — so an
  // unbounded wait cannot hang.
  return future.Get();
}

Status Client::SubmitNoReply(const std::string& stream_name, const Row& row) {
  // Fail fast before binding: when the bucket is drained (or frozen by
  // a server shed), the whole point is to not do per-event work.
  if (noreply_bucket_ != nullptr) {
    RAILGUN_RETURN_IF_ERROR(noreply_bucket_->Acquire());
  }
  if (remote()) RAILGUN_RETURN_IF_ERROR(EnsureStream(stream_name));
  RAILGUN_ASSIGN_OR_RETURN(reservoir::Event event,
                           BindRow(stream_name, row));
  engine::FrontEnd* frontend = PickFrontEnd();
  if (frontend == nullptr) {
    return Status::Unavailable("no alive node to submit to");
  }
  const Status submitted = frontend->SubmitNoReply(stream_name, event);
  if (submitted.IsOverloaded() && noreply_bucket_ != nullptr) {
    // Honor the server's pacing hint: freeze refill so the flood backs
    // off for the whole retry-after window instead of per-call luck.
    noreply_bucket_->Penalize(engine::RetryAfterMicros(submitted));
  }
  return submitted;
}

uint64_t Client::noreply_rejected() const {
  return noreply_bucket_ != nullptr ? noreply_bucket_->rejected_count() : 0;
}

StatusOr<std::vector<introspect::InternalsSample>> Client::InternalsSnapshot() {
  msg::Bus* bus = remote() ? static_cast<msg::Bus*>(remote_bus_.get())
                           : (cluster_ != nullptr ? cluster_->bus() : nullptr);
  if (bus == nullptr || (remote() && !started_)) {
    return Status::Unavailable("client not started");
  }
  const engine::StreamDef def = introspect::InternalsStreamDef();
  const msg::TopicPartition tp{def.TopicFor(def.partitioners[0]), 0};
  auto base = bus->BaseOffset(tp);
  if (!base.ok()) {
    // No publisher has created the topic yet: empty stats, not an
    // error (e.g. a cluster with introspection disabled).
    if (base.status().IsNotFound()) {
      return std::vector<introspect::InternalsSample>{};
    }
    return base.status();
  }
  RAILGUN_ASSIGN_OR_RETURN(const uint64_t end, bus->EndOffset(tp));
  const reservoir::Schema schema(0, def.fields);
  // Offset order is publish order, so overwriting keeps the newest
  // sample of each (node, metric) series.
  std::map<std::pair<std::string, std::string>, introspect::InternalsSample>
      latest;
  uint64_t pos = base.value();
  std::vector<msg::Message> batch;
  while (pos < end) {
    batch.clear();
    RAILGUN_RETURN_IF_ERROR(bus->Fetch(tp, pos, 512, &batch));
    if (batch.empty()) break;  // Retention raced us past `end`.
    for (const msg::Message& message : batch) {
      pos = message.offset + 1;
      engine::EventEnvelope envelope;
      if (!engine::DecodeEventEnvelope(Slice(message.payload), schema,
                                       &envelope)
               .ok()) {
        continue;  // Foreign writer; skip rather than fail the snapshot.
      }
      introspect::InternalsSample sample;
      if (!introspect::ParseInternalsEvent(envelope.event, &sample).ok()) {
        continue;
      }
      latest[{sample.node, sample.metric}] = std::move(sample);
    }
  }
  std::vector<introspect::InternalsSample> out;
  out.reserve(latest.size());
  for (auto& [key, sample] : latest) out.push_back(std::move(sample));
  return out;
}

}  // namespace railgun::api
