// Cluster membership & metadata service: the control plane that turns
// one BusServer-hosted broker plus N independent worker processes into
// the paper's real multi-machine deployment.
//
// Hosted in the broker process next to the BusServer, it keeps three
// things behind one generation counter:
//   - membership: worker nodes announce, heartbeat and leave; a node
//     whose heartbeats stop loses its lease (measured on the *bus
//     clock*, so simulated-time tests are exact) and is listed dead.
//     The lease only ages this listing and its tombstones: processing
//     liveness belongs to the bus session alone, which fences a unit
//     that stops polling and rebalances its partitions onto the
//     survivors (a fenced unit that is still running rejoins itself);
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
#include <vector>

#include "api/client.h"
#include "common/mutex.h"
#include "engine/cluster.h"
#include "engine/stream_def.h"
#include "meta/cluster_view.h"

namespace railgun::meta {

struct MetadataServiceOptions {
  // A node missing heartbeats for this long (on the bus clock) loses
  // its lease and is marked dead in the view. Its units are left to the
  // bus session (BusOptions::session_timeout).
  Micros lease_timeout = 5 * kMicrosPerSecond;
};

// Dead nodes stay visible in the view this long after leaving or
// expiring (so operators see recent departures), then their records are
// pruned — workers restart under fresh generated ids, so without a bound
// the node map would grow forever.
constexpr Micros kDeadNodeRetention = 10 * kMicrosPerMinute;

class MetadataService {
 public:
  MetadataService(const MetadataServiceOptions& options,
                  engine::Cluster* cluster);

  MetadataService(const MetadataService&) = delete;
  MetadataService& operator=(const MetadataService&) = delete;

  // ----- Membership ---------------------------------------------------
  // Registers a joining node. AlreadyExists while another holder of the
  // same id is alive and inside its lease; rejoining after a leave or
  // an expiry succeeds. Bumps the view generation. Like Heartbeat, it
  // first records expired leases and prunes old tombstones.
  StatusOr<AnnounceResult> Announce(const NodeAnnouncement& announcement);
  // Renews the lease; returns the current view generation so the node
  // can cheaply detect membership/schema changes. NotFound for unknown
  // or expired nodes — the caller should re-announce.
  StatusOr<uint64_t> Heartbeat(const std::string& node_id);
  // Graceful departure: the node is marked dead in the view (its units
  // unsubscribe cleanly themselves).
  Status Leave(const std::string& node_id);

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
  // One listing entry. unit_ids only feed the view's unit count: the
  // units themselves live and die by their bus sessions.
  struct NodeRecord {
    NodeAnnouncement info;
    Micros last_heartbeat = 0;
    bool alive = true;
    Micros died_at = 0;  // Leave/expiry time; prunes the tombstone.
  };

  // Marks nodes whose lease ran out dead (bumping the generation and
  // leases_expired) and prunes tombstones past kDeadNodeRetention.
  void CheckLeasesLocked(Micros now) REQUIRES(mu_);

  MetadataServiceOptions options_;
  engine::Cluster* cluster_;
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
};

}  // namespace railgun::meta

#endif  // RAILGUN_META_METADATA_SERVICE_H_
