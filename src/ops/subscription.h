// Live subscription hub: serves `SUBSCRIBE SELECT ...` tails (stream-
// shell's lazily-consumed, backpressured streams, grafted onto the
// bus). One hub runs next to each broker/cluster; every subscription
// gets a private tail consumer on the source stream's first partitioner
// topic (each event is produced to every partitioner topic, so one
// topic sees each event exactly once), seeked to the end at attach so a
// fresh subscription — and a resubscribe after failure — never replays
// history. A tail consumer the bus fences ends its subscription: the
// next Fetch answers NotFound, the client's signal to resubscribe.
//
// Two tail shapes, decided by the statement:
//  - raw tails (`SELECT *`): every event passing the WHERE filter
//    becomes a record of the stream's named fields.
//  - metric tails (`SELECT agg(...) ...`): the hub keeps incremental
//    per-group aggregator state (infinite or count-sliding windows
//    only) and pushes one update record per matching event.
//
// Backpressure: per-subscription bounded queue. Records stay queued
// until the subscriber acknowledges them (Fetch carries acked_seq), so
// redelivery after a dropped connection duplicates only unacked rows;
// when a slow subscriber lets the queue fill, the oldest records are
// evicted and counted (`subscribe.records.dropped`, per-sub
// dropped_total) — memory stays bounded and the tail stays current.
//
// Threading: one pump thread per subscription (Poll -> decode ->
// filter/aggregate -> enqueue). The hub table lock (kRankOpsSubscriptionHub)
// is held across bus Subscribe/Unsubscribe; each queue has a leaf lock
// (kRankOpsSubQueue) shared by pump, Fetch long-polls and probes.
#ifndef RAILGUN_OPS_SUBSCRIPTION_H_
#define RAILGUN_OPS_SUBSCRIPTION_H_

#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "agg/aggregator.h"
#include "common/clock.h"
#include "common/mutex.h"
#include "common/status.h"
#include "engine/stream_def.h"
#include "introspect/registry.h"
#include "msg/bus.h"
#include "ops/sub_wire.h"
#include "query/pipeline.h"

namespace railgun::ops {

struct SubscriptionHubOptions {
  // Bounded per-subscription record queue (eviction beyond).
  size_t queue_capacity = 1024;
};

class SubscriptionHub {
 public:
  using StreamLookup =
      std::function<StatusOr<engine::StreamDef>(const std::string&)>;

  // `bus` and `lookup` must outlive the hub; `registry` may be null.
  SubscriptionHub(msg::Bus* bus, StreamLookup lookup,
                  introspect::Registry* registry,
                  SubscriptionHubOptions options = {});
  ~SubscriptionHub();

  SubscriptionHub(const SubscriptionHub&) = delete;
  SubscriptionHub& operator=(const SubscriptionHub&) = delete;

  // Parses + validates the statement, attaches the tail consumer and
  // starts the pump. Returns the subscription id.
  StatusOr<uint64_t> Create(const std::string& statement);

  // Long-polls for records past acked_seq (trimming everything at or
  // below it first). Unknown ids yield NotFound — after a hub restart
  // every pre-restart id is unknown, which remote callers surface as a
  // typed signal to resubscribe.
  Status Fetch(uint64_t sub_id, uint64_t acked_seq, uint32_t max_records,
               Micros max_wait, SubFetchReply* reply);

  Status Cancel(uint64_t sub_id);

  // Cancels every subscription and joins the pumps. Idempotent.
  void Stop();

  // Extension-opcode dispatch for BusServer::SetExtension. Returns true
  // when the opcode is a subscription opcode (status/result filled).
  bool HandleWire(uint8_t opcode, const Slice& payload, Status* status,
                  std::string* result);

  size_t subscriber_count() const;
  // Records queued across all subscriptions (a cluster probe samples
  // this as subscribe.queue.depth).
  size_t TotalQueueDepth() const;

 private:
  struct GroupState {
    std::vector<std::string> agg_states;  // One blob per AggSpec.
    // Count-sliding windows: entered events pending expiry, projected
    // to the aggregated fields (value i feeds aggs[i]).
    std::deque<reservoir::Event> recent;
  };

  struct Subscription {
    uint64_t id = 0;
    query::SubscribeSpec spec;
    engine::StreamDef stream;
    reservoir::Schema schema;
    std::string consumer_id;
    std::string topic;
    std::vector<int> group_indices;           // Metric tails.
    std::vector<int> agg_field_indices;       // -1 for count(*).
    std::vector<std::unique_ptr<agg::Aggregator>> aggs;
    std::thread pump;
    std::atomic<bool> stop{false};
    // Aggregator state is touched only by the pump thread.
    std::map<std::string, GroupState> groups;
    uint64_t arrivals = 0;  // Events folded into metric state so far.

    Mutex mu{kRankOpsSubQueue};
    CondVar cv;
    std::deque<SubRecord> queue GUARDED_BY(mu);
    uint64_t next_seq GUARDED_BY(mu) = 1;
    uint64_t dropped_total GUARDED_BY(mu) = 0;
  };

  void Pump(Subscription* sub);
  void HandleEvent(Subscription* sub, const msg::MessageView& message);
  void Enqueue(Subscription* sub, SubRecord record);
  std::shared_ptr<Subscription> Find(uint64_t sub_id);

  msg::Bus* const bus_;
  const StreamLookup lookup_;
  introspect::Registry* const registry_;
  const SubscriptionHubOptions options_;

  // Fallback counter storage when no registry is attached.
  std::vector<std::unique_ptr<introspect::Counter>> owned_counters_;
  introspect::Counter* created_ = nullptr;
  introspect::Counter* pushed_ = nullptr;
  introspect::Counter* dropped_ = nullptr;
  introspect::Counter* decode_errors_ = nullptr;

  mutable Mutex mu_{kRankOpsSubscriptionHub};
  uint64_t next_id_ GUARDED_BY(mu_) = 1;
  std::map<uint64_t, std::shared_ptr<Subscription>> subs_ GUARDED_BY(mu_);
  bool stopped_ GUARDED_BY(mu_) = false;
};

}  // namespace railgun::ops

#endif  // RAILGUN_OPS_SUBSCRIPTION_H_
