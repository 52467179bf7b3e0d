// Cluster membership & metadata service: the control plane that turns
// one BusServer-hosted broker plus N independent worker processes into
// the paper's real multi-machine deployment.
//
// Hosted in the broker process next to the BusServer, it keeps three
// things behind one generation counter:
//   - membership: worker nodes announce, heartbeat and leave; a node
//     whose heartbeats stop loses its lease (measured on the *bus
//     clock*, so simulated-time tests are exact) and its processor
//     units are fenced through the bus, triggering a rebalance onto the
//     survivors;
//   - a schema registry of wire-serializable StreamDefs, so any client
//     or worker can fetch streams it did not declare;
//   - DDL execution: kMetaExecuteDdl statements are executed through
//     an attached api::Client and folded into the registry. DDL needs
//     no failover path of its own: it lives in the broker process with
//     the bus and the other kMeta* RPCs, so it fails over with them
//     once the broker does (broker HA, see ROADMAP.md).
//
// Wire surface: the BusServer extension hook routes the kMeta* opcodes
// (msg/remote/wire.h) into HandleWire, on the server's connection
// threads; meta::MetaClient is the client stub.
#ifndef RAILGUN_META_METADATA_SERVICE_H_
#define RAILGUN_META_METADATA_SERVICE_H_

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "api/client.h"
#include "common/mutex.h"
#include "engine/cluster.h"
#include "engine/stream_def.h"
#include "meta/cluster_view.h"
#include "msg/bus.h"

namespace railgun::meta {

struct MetadataServiceOptions {
  // A node missing heartbeats for this long (on the bus clock) loses
  // its lease: it is marked dead in the view and its units are fenced.
  Micros lease_timeout = 5 * kMicrosPerSecond;
  // Dead nodes stay visible in the view this long after leaving or
  // expiring (so operators see recent departures), then their records
  // are pruned — workers restart under fresh generated ids, so without
  // a bound the node map would grow forever.
  Micros dead_node_retention = 10 * kMicrosPerMinute;
};

class MetadataService {
 public:
  MetadataService(const MetadataServiceOptions& options,
                  engine::Cluster* cluster);
  ~MetadataService();

  MetadataService(const MetadataService&) = delete;
  MetadataService& operator=(const MetadataService&) = delete;

  Status Start();
  void Stop();

  // ----- Membership ---------------------------------------------------
  // Registers a joining node. AlreadyExists while another holder of the
  // same id is alive and inside its lease; rejoining after a leave or
  // an expiry succeeds. Bumps the view generation.
  StatusOr<AnnounceResult> Announce(const NodeAnnouncement& announcement);
  // Renews the lease; returns the current view generation so the node
  // can cheaply detect membership/schema changes. NotFound for unknown
  // or expired nodes — the caller should re-announce.
  StatusOr<uint64_t> Heartbeat(const std::string& node_id);
  // Graceful departure: the node is marked dead in the view but its
  // units are NOT fenced (they unsubscribe cleanly themselves).
  Status Leave(const std::string& node_id);

  // Expires leases against the bus clock; fences the units of every
  // newly expired node through the bus (one rebalance per fenced unit).
  // Runs inside Announce/Heartbeat and from a background sweeper on
  // real-time clocks; simulated-time tests call it directly. Returns
  // the number of nodes expired by this call.
  int CheckLeases();

  // Snapshot: broker-local engine nodes first (address "broker-local"),
  // then announced worker nodes.
  ClusterView View() const;

  // ----- Schema registry ----------------------------------------------
  Status RegisterStream(const engine::StreamDef& stream);
  StatusOr<engine::StreamDef> GetStream(const std::string& name) const;
  std::vector<engine::StreamDef> ListStreamDefs() const;

  // ----- DDL ----------------------------------------------------------
  // Executes one statement through the attached client (full
  // validation, applied-by-every-local-unit synchronization) and folds
  // the result into the schema registry. AlreadyExists still syncs the
  // registry, mirroring client reattachment semantics. Statements are
  // serialized; the kMetaExecuteDdl RPC lands here.
  Status ExecuteDdl(const std::string& statement);

  // ----- Introspection -------------------------------------------------
  // Cumulative control-plane activity, exported as registry probes by
  // the hosting meta::Broker.
  uint64_t announce_count() const {
    return announces_.load(std::memory_order_relaxed);
  }
  uint64_t heartbeat_count() const {
    return heartbeats_.load(std::memory_order_relaxed);
  }
  uint64_t leases_expired() const {
    return leases_expired_.load(std::memory_order_relaxed);
  }
  uint64_t ddl_executed() const {
    return ddl_executed_.load(std::memory_order_relaxed);
  }

  // ----- Wire hook ----------------------------------------------------
  // BusServer extension: true when `opcode` is a kMeta* RPC (filling
  // *status and, on OK, *result), false to fall through.
  bool HandleWire(uint8_t opcode, const Slice& payload, Status* status,
                  std::string* result);

 private:
  struct NodeRecord {
    NodeAnnouncement info;
    Micros last_heartbeat = 0;
    bool alive = true;
    Micros died_at = 0;  // Leave/expiry time; prunes the tombstone.
    // True while this node's units are being fenced outside mu_; the
    // id cannot re-announce until fencing completes, so a fence can
    // never kill a successor incarnation's fresh subscriptions.
    bool fencing = false;
  };

  void SweepLoop();
  // Appends newly expired nodes' unit ids to *fence and their node ids
  // to *fenced (the caller must hand both to FenceUnits). Also prunes
  // tombstones past dead_node_retention. Requires mu_.
  int CheckLeasesLocked(Micros now, std::vector<std::string>* fence,
                        std::vector<std::string>* fenced) REQUIRES(mu_);
  // Kills the listed unit consumers on the bus (never under mu_ — the
  // bus takes its own group lock and may run listeners), then clears
  // the named nodes' fencing flags, unblocking re-announces.
  void FenceUnits(const std::vector<std::string>& units,
                  const std::vector<std::string>& fenced);

  MetadataServiceOptions options_;
  engine::Cluster* cluster_;
  msg::Bus* bus_;
  Clock* clock_;  // The cluster's (= bus's) clock.
  api::Client client_;  // Attached to the cluster; executes DDL.

  mutable Mutex mu_{kRankMetaService};
  std::map<std::string, NodeRecord> nodes_ GUARDED_BY(mu_);
  std::map<std::string, engine::StreamDef> streams_ GUARDED_BY(mu_);
  uint64_t generation_ GUARDED_BY(mu_) = 1;

  // Serializes ExecuteDdl. Exception rank: held while driving the
  // embedded api::Client, so it sits above the api band (common/mutex.h).
  Mutex ddl_mu_{kRankMetaDdlSerializer};

  std::atomic<uint64_t> announces_{0};
  std::atomic<uint64_t> heartbeats_{0};
  std::atomic<uint64_t> leases_expired_{0};
  std::atomic<uint64_t> ddl_executed_{0};

  std::atomic<bool> running_{false};
  std::thread sweep_thread_;
  Mutex sweep_mu_{kRankMetaSweep};
  CondVar sweep_cv_;
};

}  // namespace railgun::meta

#endif  // RAILGUN_META_METADATA_SERVICE_H_
