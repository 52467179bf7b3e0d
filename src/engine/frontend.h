// Front-end layer (paper §3.1): accepts client events, routes them to
// every partitioner topic of the stream, collects the per-topic
// aggregation replies from its dedicated reply topic, and completes the
// client request with all computed metrics in a single response.
//
// Submission runs on the caller's thread: Submit/SubmitBatch encode the
// events, register their pending entries and publish them with one
// ProduceBatch per partitioner topic before returning. The front-end
// thread only collects replies: it parks in a blocking bus Poll on its
// reply topic, completes requests and expires overdue ones. The
// pending-request table is sharded so concurrent submitters don't
// contend with reply collection.
#ifndef RAILGUN_ENGINE_FRONTEND_H_
#define RAILGUN_ENGINE_FRONTEND_H_

#include <array>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "engine/admission.h"
#include "engine/stream_def.h"
#include "introspect/registry.h"
#include "msg/bus.h"
#include "trace/tracer.h"

namespace railgun::engine {

struct FrontEndOptions {
  // Pending requests older than this complete with what has arrived
  // (late aggregation replies are discarded upstream, paper §5).
  Micros request_timeout = 10 * kMicrosPerSecond;
  // Admission control ceiling; zero (the default) admits everything.
  // See engine/admission.h.
  AdmissionOptions admission;
  // Optional metrics sink (borrowed; must outlive the front end). The
  // front end records its submit-latency histogram here; depth-style
  // metrics are exported by the owner as registry probes over the
  // accessors below.
  introspect::Registry* registry = nullptr;
};

class FrontEnd {
 public:
  using ReplyCallback =
      std::function<void(Status, const std::vector<MetricReply>&)>;

  FrontEnd(const FrontEndOptions& options, std::string node_id,
           msg::Bus* bus, Clock* clock);
  ~FrontEnd();

  FrontEnd(const FrontEnd&) = delete;
  FrontEnd& operator=(const FrontEnd&) = delete;

  Status Start();
  // Joins the reply thread and fails every outstanding request's
  // callback with Unavailable — after Stop returns, every accepted
  // Submit has completed exactly once.
  void Stop();

  // Creates the stream's topics (idempotent), remembers its schema and
  // precomputes the fan-out routing (per-partitioner topic + key field).
  Status RegisterStream(const StreamDef& stream);

  // Step 1-2 of Figure 3: publish the event to every partitioner topic
  // on the caller's thread. Returns NotFound for unregistered streams,
  // InvalidArgument for events that don't match the schema, and
  // Unavailable when the front end is not running (the callback never
  // fires for any of these). Once accepted, the callback fires on the
  // front-end thread with OK when all expected replies arrived, or with
  // Unavailable and the partial set on timeout or Stop. When a publish
  // fails, it fires with the bus's error on the caller's thread before
  // Submit returns. Every accepted request completes exactly once.
  // trace_ctx (optional) is the root context minted by api::Client: the
  // enqueue hop records under it and the advanced context travels in
  // the event envelope's trailer.
  Status Submit(const std::string& stream_name,
                const reservoir::Event& event, ReplyCallback callback,
                const trace::TraceContext& trace_ctx = {});

  // Batch submission: publishes all events with one ProduceBatch per
  // partitioner topic. callbacks[i] belongs to events[i] and follows
  // the same exactly-once contract; with fewer callbacks than events
  // the remainder are fire-and-forget. traces[i] (optional) is
  // events[i]'s trace context.
  Status SubmitBatch(const std::string& stream_name,
                     const std::vector<reservoir::Event>& events,
                     std::vector<ReplyCallback> callbacks,
                     const std::vector<trace::TraceContext>& traces = {});

  // Fire-and-forget path: the event is published like Submit's, but no
  // reply is requested or collected.
  Status SubmitNoReply(const std::string& stream_name,
                       const reservoir::Event& event);

  const std::string& reply_topic() const { return reply_topic_; }
  uint64_t completed_requests() const { return completed_; }
  uint64_t timed_out_requests() const { return timed_out_; }
  uint64_t publish_errors() const { return publish_errors_; }
  // Live pending-reply table depth (admission signal / introspection).
  size_t pending_count() const {
    return pending_count_.load(std::memory_order_relaxed);
  }
  // Requests refused with kOverloaded by admission control.
  uint64_t shed_count() const { return admission_.shed_count(); }

 private:
  struct Pending {
    int expected = 0;
    int received = 0;
    std::vector<MetricReply> results;
    ReplyCallback callback;
    Micros deadline = 0;
    Micros submitted_at = 0;
  };
  // The pending table is sharded by request id so submitters, the reply
  // loop and the timeout scan contend at 1/kPendingShards granularity.
  static constexpr size_t kPendingShards = 16;
  struct PendingShard {
    Mutex mu{kRankEngineFrontEndPending};
    std::map<uint64_t, Pending> entries GUARDED_BY(mu);
  };
  // Precomputed fan-out for one stream: the schema plus one
  // (topic, key-field index) per partitioner.
  struct Route {
    StreamDef stream;
    reservoir::Schema schema;
    std::vector<std::pair<std::string, int>> targets;
  };
  // One SubmitBatch call's publication.
  struct Outbox {
    // records[t] goes to Route::targets[t].
    std::vector<std::vector<msg::ProduceRecord>> records;
    // The batch's pending entries (fire-and-forget events have none).
    std::vector<uint64_t> request_ids;
    // Encode buffer reused across the batch's events.
    std::string encoded;
    // The first traced event's context after its enqueue span (invalid
    // when untraced); the produce hops parent under it.
    trace::TraceContext trace;
  };
  struct Completion {
    ReplyCallback callback;
    std::vector<MetricReply> results;
    Status status;
  };

  void Run();
  // Creates the reply topic if missing and joins the private reply
  // group (Start, and rejoin after a fence or a broker restart).
  Status SubscribeReplies();
  // Encodes and routes one event against its stream into out;
  // registers a pending entry when callback is non-null.
  Status Enqueue(const Route& route, const reservoir::Event& event,
                 ReplyCallback callback,
                 const trace::TraceContext& trace_ctx, Outbox* out);
  void FailPending(uint64_t request_id, const Status& status);
  PendingShard& ShardFor(uint64_t request_id) {
    return pending_[request_id % kPendingShards];
  }

  FrontEndOptions options_;
  std::string node_id_;
  msg::Bus* bus_;
  Clock* clock_;
  std::string reply_topic_;
  std::string consumer_id_;

  std::thread thread_;
  std::atomic<bool> running_{false};

  mutable Mutex mu_{kRankEngineFrontEnd};
  // Run's wait after a failed reply poll; Stop notifies it.
  CondVar backoff_cv_;
  // Shared so a submit copies a pointer, not the stream definition.
  std::map<std::string, std::shared_ptr<const Route>> routes_
      GUARDED_BY(mu_);

  std::array<PendingShard, kPendingShards> pending_;
  std::atomic<uint64_t> next_request_id_{1};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> timed_out_{0};
  std::atomic<uint64_t> publish_errors_{0};

  // Admission control state. pending_count_ mirrors the summed shard
  // sizes (maintained at every insert/erase) so admission decisions
  // never sweep the 16 shard locks.
  AdmissionController admission_;
  std::atomic<size_t> pending_count_{0};
  introspect::Histogram* submit_latency_ = nullptr;  // Null without registry.
};

}  // namespace railgun::engine

#endif  // RAILGUN_ENGINE_FRONTEND_H_
