// railgun::api::Client — the single supported way to use Railgun.
//
// The client owns (or attaches to) a cluster and exposes the service
// surface of the paper: declare a stream and its metrics textually,
// push events, get the per-event aggregations back:
//
//   ClientOptions options;
//   Client client(options);
//   client.Start();
//   client.CreateStream(
//       "CREATE STREAM payments (cardId STRING, amount DOUBLE) "
//       "PARTITION BY cardId PARTITIONS 4");
//   client.Query(
//       "ADD METRIC SELECT sum(amount) FROM payments "
//       "GROUP BY cardId OVER sliding 5 minutes");
//   EventResult r = client.SubmitSync(
//       "payments", Row().Set("cardId", "c1").Set("amount", 10.0));
//
// FrontEnd / Cluster / StreamDef stay internal layers behind this
// facade (see DESIGN.md).
#ifndef RAILGUN_API_CLIENT_H_
#define RAILGUN_API_CLIENT_H_

#include <atomic>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/admin.h"
#include "api/result.h"
#include "api/row.h"
#include "api/subscription.h"
#include "common/mutex.h"
#include "engine/admission.h"
#include "engine/cluster.h"
#include "introspect/internals.h"
#include "query/ddl.h"
#include "trace/trace_context.h"

namespace railgun::msg::remote {
class RemoteBus;
}  // namespace railgun::msg::remote

namespace railgun::meta {
class MetaClient;
}  // namespace railgun::meta

namespace railgun::api {

struct ClientOptions {
  // Topology of the owned cluster.
  int num_nodes = 1;
  int processor_units_per_node = 2;
  int replication_factor = 1;
  std::string base_dir = "/tmp/railgun-client";
  // Per-request reply deadline; a request past it completes with
  // Status::Unavailable and whatever partial metrics arrived.
  Micros request_timeout = 10 * kMicrosPerSecond;
  Clock* clock = nullptr;  // Defaults to the monotonic clock.

  // When set ("host:port" of a msg::remote::BusServer), the client owns
  // no cluster: it attaches to the remote one over the network, running
  // its own front end against a RemoteBus and executing DDL as the
  // broker metadata service's kMetaExecuteDdl RPC (src/meta/). The
  // topology fields above are ignored. Schemas of streams this client
  // did not declare are fetched on demand from the metadata service;
  // admin() answers node/stream listings from the metadata view and
  // mutating calls degrade to Unavailable. A server without a metadata
  // service answers DDL and schema fetches with NotSupported.
  std::string remote_address;

  // Admission-control ceiling (engine/admission.h); zero (the default)
  // disables shedding. Local mode applies it to every owned node's
  // front end, remote mode to the client's own front end — in both, a
  // submission past the ceiling completes with a typed kOverloaded
  // carrying a retry-after hint.
  engine::AdmissionOptions admission;

  // Client-side pacing of SubmitNoReply: a token bucket that fails fast
  // with kOverloaded when drained, and freezes refill for the server's
  // retry-after hint whenever the front end sheds. <= 0 disables (the
  // default: every submit reaches the front end).
  double noreply_tokens_per_sec = 0;
  double noreply_burst = 64;

  // Escape hatch: advanced engine tuning on top of the fields above.
  // Applied first; the named fields then override.
  engine::ClusterOptions engine;

  engine::ClusterOptions ToClusterOptions() const;
};

class Client {
 public:
  // Owns a cluster built from the options; Start() launches it.
  explicit Client(const ClientOptions& options);
  // Attaches to an externally managed cluster (must already be started
  // or be started by its owner; Start()/Stop() become no-ops for it).
  explicit Client(engine::Cluster* cluster);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  Status Start();
  void Stop();

  // --- Stream DDL ----------------------------------------------------
  // DDL is synchronous: when a call returns OK, the registration has
  // been applied by every alive processor unit, so the next submitted
  // event is evaluated against the new definition.

  // Executes a CREATE STREAM statement. AlreadyExists when the stream
  // name is taken; InvalidArgument on grammar/validation errors.
  Status CreateStream(const std::string& ddl);

  // Registers a metric: "ADD METRIC SELECT ..." or a bare SELECT
  // statement. The FROM stream must have been created; the engine
  // backfills the new metric from reservoir history on live tasks.
  Status Query(const std::string& statement);

  // Routes any statement (CREATE STREAM / ADD METRIC / ADD PIPELINE /
  // SELECT) to the right handler — the REPL's single entry point.
  // SUBSCRIBE statements need a result handle; use Subscribe().
  Status Execute(const std::string& statement);

  // --- Operator pipelines & live subscriptions ------------------------

  // Registers an operator pipeline: "ADD PIPELINE <name> ON <stream>
  // | filter(...) | by(...) | ...". Synthesize the statement with
  // ops::PipelineBuilder for the programmatic (fluent) form. Synchronous
  // like the other DDL; the route_to_stream target must be created
  // (and registered on the cluster) separately.
  Status AddPipeline(const std::string& statement);

  // Pipelines registered on the streams this client knows, in stream
  // order. Per-operator counters live in the internals stream
  // (`ops.pipeline.<name>.*` via InternalsSnapshot()).
  std::vector<query::PipelineSpec> ListPipelines() const;

  // Opens a live tail: "SUBSCRIBE SELECT * FROM s [WHERE ...]" or a
  // metric tail "SUBSCRIBE SELECT agg(...) FROM s ... [OVER infinite |
  // sliding N events]". A cluster without a subscription hub (local or
  // behind the remote server) answers NotSupported.
  StatusOr<std::unique_ptr<Subscription>> Subscribe(
      const std::string& statement);

  // In remote mode the listing merges the metadata service's view with
  // locally declared streams, so foreign streams show up too.
  std::vector<std::string> ListStreams() const;
  // Fetches the schema of a foreign stream from the metadata service on
  // demand in remote mode (hence non-const).
  StatusOr<reservoir::Schema> GetSchema(const std::string& stream);

  // --- Event submission ----------------------------------------------
  // Binds the row against the stream schema and publishes it; the
  // future completes with every registered metric's value for this
  // event. Submission errors (unknown stream, bad row) come back as an
  // already-completed future carrying the typed status.
  ResultFuture Submit(const std::string& stream, const Row& row);

  // Batched submission: all rows are bound, routed to one front end and
  // handed over as a single batch, which the engine fans out with one
  // broker write per partitioner topic. Returns one future per row, in
  // order; rows that fail binding come back as already-completed
  // futures carrying the typed status (the rest of the batch still
  // ships). This is the throughput path — per-event pipelining costs
  // collapse across the batch.
  std::vector<ResultFuture> SubmitBatch(const std::string& stream,
                                        const std::vector<Row>& rows);

  // Blocking variant. The front end guarantees every accepted request
  // completes (reply, deadline, or shutdown), so this returns as soon
  // as the result is determined.
  EventResult SubmitSync(const std::string& stream, const Row& row);

  // Fire-and-forget path for throughput-oriented callers: no reply is
  // requested or collected. The call returns once the event is
  // published to every partitioner topic.
  Status SubmitNoReply(const std::string& stream, const Row& row);

  // --- Introspection -------------------------------------------------
  // Latest self-instrumentation sample per (node, metric), read
  // straight off the built-in "__railgun.internals" topic — the same
  // events ADD METRIC aggregates. Works identically in local and remote
  // mode (this is what unifies REPL `stats`); an engine whose publisher
  // has not ticked yet yields an empty vector, not an error.
  StatusOr<std::vector<introspect::InternalsSample>> InternalsSnapshot();

  // SubmitNoReply calls refused client-side by the token bucket.
  uint64_t noreply_rejected() const;

  // --- Administration ------------------------------------------------
  Admin& admin() { return *admin_; }

  // Internal escape hatch for benches/tests; application code should
  // not need it.
  engine::Cluster* cluster() { return cluster_; }

 private:
  // The one DDL path behind CreateStream/Query/AddPipeline/Execute:
  // parses `statement` (a bare SELECT is ADD METRIC), refuses kinds the
  // entry point does not take (InvalidArgument carrying `refusal`),
  // validates it against the client's view and applies it — local mode
  // registers on the cluster, remote mode executes it on the broker's
  // metadata service — then folds it into the view.
  Status RunDdl(const std::string& statement,
                std::initializer_list<query::DdlKind> accepted,
                const char* refusal);
  // The stream definition `ddl` produces from the client's view, or
  // the typed reason the view refuses it.
  StatusOr<engine::StreamDef> ValidateLocked(
      const query::DdlStatement& ddl) const REQUIRES(mu_);
  // Blocks until every alive processor unit has applied its enqueued
  // stream registrations (or the timeout elapses).
  Status WaitForRegistration(Micros timeout);
  // Remote mode: when `stream` is unknown locally, fetches its
  // definition from the broker's metadata service and teaches the
  // local front end its routing — this is what lets a client submit to
  // (or add metrics on) a stream another client created. NotFound when
  // neither side knows the stream; NotSupported when the broker has no
  // metadata service.
  Status EnsureStream(const std::string& stream);
  // The stream's schema, built from streams_ on first use; null for an
  // unknown stream.
  std::shared_ptr<const reservoir::Schema> SchemaLocked(
      const std::string& stream) const REQUIRES(mu_);
  StatusOr<reservoir::Event> BindRow(const std::string& stream_name,
                                     const Row& row) const;
  engine::FrontEnd* PickFrontEnd();
  // The front-end reply callback of one submitted row (Submit and
  // SubmitBatch): completes the row's future and its root span.
  static engine::FrontEnd::ReplyCallback CompletionFor(
      std::shared_ptr<ResultFuture::State> state,
      const trace::TraceContext& trace_ctx, Micros trace_start,
      const std::string& stream_name);
  bool remote() const { return remote_bus_ != nullptr; }

  ClientOptions options_;
  std::unique_ptr<engine::Cluster> owned_cluster_;
  engine::Cluster* cluster_ = nullptr;
  std::unique_ptr<Admin> admin_;
  Clock* clock_;
  bool started_ = false;

  // Remote mode (ClientOptions::remote_address): the client's own front
  // end speaks to the cluster through a RemoteBus.
  std::string client_id_;
  std::unique_ptr<msg::remote::RemoteBus> remote_bus_;
  std::unique_ptr<engine::FrontEnd> remote_frontend_;
  std::unique_ptr<meta::MetaClient> meta_;

  // Null unless ClientOptions::noreply_tokens_per_sec > 0.
  std::unique_ptr<engine::TokenBucket> noreply_bucket_;

  mutable Mutex mu_{kRankApiClient};
  std::map<std::string, engine::StreamDef> streams_ GUARDED_BY(mu_);
  // Schemas built by SchemaLocked (a stream's fields never change), so
  // binding a row copies a pointer rather than the field list.
  mutable std::map<std::string, std::shared_ptr<const reservoir::Schema>>
      schemas_ GUARDED_BY(mu_);
  // Stream name -> cache-entry expiry on clock_ (see EnsureStream).
  std::map<std::string, Micros> unknown_streams_ GUARDED_BY(mu_);
  // Auto-minted event ids count up from a random per-client base (see
  // BindRow): the reservoirs dedup by id, so two clients must never
  // mint the same one.
  uint64_t event_id_base_ = 0;
  mutable std::atomic<uint64_t> next_event_id_{1};
  std::atomic<uint64_t> next_frontend_{0};
};

}  // namespace railgun::api

#endif  // RAILGUN_API_CLIENT_H_
