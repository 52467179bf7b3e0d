// The embeddable half of railgun_noded: one Railgun node (front end +
// processor units) that joins a remote broker instead of living inside
// its cluster process.
//
// Join protocol:
//   1. connect a MetaClient and a RemoteBus to the broker's BusServer;
//   2. Announce(node_id, unit ids) — the broker leases the node;
//   3. start the engine::RailgunNode against the RemoteBus (units join
//      the shared "railgun-active" consumer group; the broker-side
//      sticky coordinator places tasks);
//   4. fetch every registered StreamDef from the metadata service and
//      register it locally (creates topics idempotently, arms units);
//   5. heartbeat at a fraction of the lease; when the view generation
//      moves, re-sync streams — this is how DDL executed by any client
//      reaches every worker process.
// Stop() leaves gracefully: metadata Leave + clean unit unsubscribe
// (one rebalance, no lease wait). A crash ages out of the listing at
// lease expiry; its units were already fenced by their bus sessions,
// and a unit fenced while still running rejoins the group by itself.
//
// Replica/donor recovery stays process-local (the Coordinator here is
// private to this worker): replication_factor > 1 across processes is
// the seeded next step. A fenced task restarting on another worker
// rebuilds state by replaying its partition from the broker log.
#ifndef RAILGUN_META_WORKER_NODE_H_
#define RAILGUN_META_WORKER_NODE_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "common/mutex.h"
#include "engine/coordinator.h"
#include "engine/node.h"
#include "introspect/publisher.h"
#include "introspect/registry.h"
#include "meta/meta_client.h"
#include "msg/remote/remote_bus.h"

namespace railgun::meta {

struct WorkerNodeOptions {
  std::string broker_address;  // "host:port" of the broker's BusServer.
  std::string node_id;         // Empty: a process-unique id is generated.
  // Informational address announced to the metadata service (shown in
  // Admin / REPL node listings). Empty derives "<hostname>/<pid>".
  std::string address;
  int num_units = 2;
  // Data directory; empty derives "/tmp/railgun-noded-<node_id>".
  // Wiped on Start.
  std::string base_dir;
  // Heartbeat cadence; 0 derives lease_timeout / 3 from the broker's
  // announce response.
  Micros heartbeat_period = 0;
  engine::NodeOptions node;  // Unit / front-end tuning.
  Clock* clock = nullptr;    // Defaults to the monotonic clock.
};

class WorkerNode {
 public:
  explicit WorkerNode(const WorkerNodeOptions& options);
  ~WorkerNode();

  WorkerNode(const WorkerNode&) = delete;
  WorkerNode& operator=(const WorkerNode&) = delete;

  Status Start();
  // Graceful departure: metadata Leave, then clean unit unsubscribe.
  void Stop();

  // One heartbeat + stream re-sync when the view generation moved.
  // Re-announces (and fully re-syncs) after a lease expiry. Public so
  // tests and manual-heartbeat deployments can drive the cadence.
  Status Heartbeat();
  // Fetches all registered streams and registers new/changed ones.
  Status SyncStreams();

  const std::string& node_id() const { return node_id_; }
  engine::RailgunNode* node() { return node_.get(); }
  // This worker's metric registry (its publisher streams snapshots to
  // the broker's internals topic under node=<node_id>).
  introspect::Registry* registry() { return &registry_; }
  uint64_t view_generation() const {
    return last_generation_.load(std::memory_order_relaxed);
  }
  Micros lease_timeout() const {
    return lease_timeout_.load(std::memory_order_relaxed);
  }

 private:
  void HeartbeatLoop();
  Status AnnounceAndSync();
  NodeAnnouncement BuildAnnouncement() const;
  // Records the broker's lease and (re)derives the heartbeat cadence —
  // a rejoin may hand back a different lease than the first join.
  void AdoptLease(Micros lease_timeout);

  WorkerNodeOptions options_;
  Clock* clock_;
  std::string node_id_;
  std::string address_;
  std::string dir_;

  // meta_ borrows bus_: keep the bus declared first so the stub never
  // outlives its transport.
  std::unique_ptr<msg::remote::RemoteBus> bus_;
  std::unique_ptr<MetaClient> meta_;
  std::unique_ptr<engine::Coordinator> coordinator_;
  std::unique_ptr<engine::RailgunNode> node_;
  introspect::Registry registry_;
  std::unique_ptr<introspect::Publisher> publisher_;

  // Atomic: rewritten by the heartbeat thread on a lease-expiry rejoin
  // (AdoptLease) while the public accessor may read concurrently.
  std::atomic<Micros> lease_timeout_{0};
  // Only touched by Start() and the heartbeat thread itself.
  Micros heartbeat_period_ = 0;
  std::atomic<uint64_t> last_generation_{0};
  // Encoded form of each registered stream, to skip no-op re-registers
  // (a re-register forces a group resubscribe).
  std::map<std::string, std::string> registered_ GUARDED_BY(sync_mu_);
  Mutex sync_mu_{kRankMetaWorkerSync};  // Serializes SyncStreams/Heartbeat.

  std::atomic<bool> running_{false};
  std::thread heartbeat_thread_;
  Mutex hb_mu_{kRankMetaWorkerHeartbeat};
  CondVar hb_cv_;
};

}  // namespace railgun::meta

#endif  // RAILGUN_META_WORKER_NODE_H_
