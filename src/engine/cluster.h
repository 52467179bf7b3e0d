// Cluster harness: wires a message bus, a coordinator and N Railgun
// nodes into a running system. This is the substitute for the paper's
// Kubernetes deployment — same topology, in one process (see DESIGN.md).
#ifndef RAILGUN_ENGINE_CLUSTER_H_
#define RAILGUN_ENGINE_CLUSTER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "engine/node.h"
#include "introspect/publisher.h"
#include "introspect/registry.h"
#include "msg/broker.h"
#include "ops/subscription.h"

namespace railgun::engine {

struct ClusterOptions {
  int num_nodes = 1;
  int replication_factor = 1;
  NodeOptions node;
  msg::BusOptions bus;
  std::string base_dir = "/tmp/railgun-cluster";
  Clock* clock = nullptr;  // Defaults to the monotonic clock.
  // Self-instrumentation: snapshot period and the `node` label for the
  // cluster's "__railgun.internals" events (introspect/internals.h).
  introspect::PublisherOptions introspect{kMicrosPerSecond, "engine"};
};

class Cluster {
 public:
  explicit Cluster(const ClusterOptions& options);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  Status Start();
  void Stop();

  // Registers a stream (with its metric queries) on every node.
  Status RegisterStream(const StreamDef& stream);

  // Adds one more node to the running cluster (elastic scale-out).
  StatusOr<RailgunNode*> AddNode();
  // Fault injection.
  Status KillNode(int index, bool immediate_detection = true);
  Status StopNode(int index);

  // Node pointers stay valid for the cluster's lifetime (the node list
  // only grows; killed nodes are marked dead, not erased).
  RailgunNode* node(int index) const;
  int num_nodes() const;
  msg::InProcessBus* bus() { return bus_.get(); }
  Coordinator* coordinator() { return coordinator_.get(); }
  // Every layer of this cluster records its metrics here; the publisher
  // streams snapshots into "__railgun.internals". Borrowable by
  // co-hosted services (meta::Broker adds its own probes).
  introspect::Registry* registry() { return &registry_; }
  introspect::Publisher* publisher() { return publisher_.get(); }
  // Live SUBSCRIBE tails (src/ops/subscription.h) served against this
  // cluster's bus; stream definitions resolve from the registered set.
  ops::SubscriptionHub* subscription_hub() { return subscription_hub_.get(); }
  // The clock every bus/engine duration is interpreted in (the
  // metadata service leases nodes on this same clock).
  Clock* clock() const { return clock_; }

  // Blocks until every event topic has been fully consumed by the
  // active units (all processed), or the timeout elapses. Returns the
  // total processed message count.
  uint64_t WaitForQuiescence(Micros timeout);

  // Aggregate unit statistics.
  UnitStats TotalStats() const;

 private:
  StatusOr<RailgunNode*> AddNodeLocked() REQUIRES(mu_);

  ClusterOptions options_;
  Clock* clock_;
  std::unique_ptr<msg::InProcessBus> bus_;
  std::unique_ptr<Coordinator> coordinator_;
  introspect::Registry registry_;
  std::unique_ptr<introspect::Publisher> publisher_;
  // Declared after bus_ so it stops (joining pump threads that poll the
  // bus) before the bus is torn down.
  std::unique_ptr<ops::SubscriptionHub> subscription_hub_;
  // Guards the topology (nodes_, streams_) against concurrent
  // submission and admin operations (AddNode during Submit etc).
  mutable Mutex mu_{kRankEngineCluster};
  std::vector<std::unique_ptr<RailgunNode>> nodes_ GUARDED_BY(mu_);
  std::vector<StreamDef> streams_ GUARDED_BY(mu_);
  int next_node_index_ GUARDED_BY(mu_) = 0;
};

}  // namespace railgun::engine

#endif  // RAILGUN_ENGINE_CLUSTER_H_
