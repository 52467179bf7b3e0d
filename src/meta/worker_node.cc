#include "meta/worker_node.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/env.h"
#include "common/random.h"

namespace railgun::meta {

namespace {

// Period of this worker's "__railgun.internals" snapshots, published to
// the broker under node=<node_id>.
constexpr Micros kIntrospectPeriod = kMicrosPerSecond;

// Process-unique worker id: distinct across hosts' processes and across
// restarts, so a restarted worker never collides with its own expiring
// lease under a different incarnation.
std::string GeneratedNodeId() {
  static std::atomic<uint64_t> sequence{0};
  Random64 rng(static_cast<uint64_t>(MonotonicClock::Default()->NowMicros()) ^
               (static_cast<uint64_t>(::getpid()) << 32) ^
               (sequence.fetch_add(1) << 16));
  char buf[32];
  std::snprintf(buf, sizeof(buf), "noded-%012llx",
                static_cast<unsigned long long>(rng.Next() & 0xffffffffffffull));
  return buf;
}

// Informational default for the announced address: where this worker
// runs, for Admin / REPL node listings.
std::string DefaultAddress() {
  char host[256] = "unknown-host";
  ::gethostname(host, sizeof(host) - 1);
  return std::string(host) + "/" + std::to_string(::getpid());
}

}  // namespace

WorkerNode::WorkerNode(const WorkerNodeOptions& options)
    : options_(options),
      clock_(options.clock != nullptr ? options.clock
                                      : MonotonicClock::Default()),
      node_id_(options.node_id.empty() ? GeneratedNodeId()
                                       : options.node_id),
      address_(options.address.empty() ? DefaultAddress()
                                       : options.address),
      dir_(options.base_dir.empty() ? "/tmp/railgun-noded-" + node_id_
                                    : options.base_dir) {
  // The engine layers of this worker record into its private registry;
  // snapshots carry node=<node_id>, so per-worker series stay separable
  // at query time (GROUP BY node).
  options_.node.frontend.registry = &registry_;
  options_.node.unit.registry = &registry_;
  registry_.AddProbe("bus.dial_attempts", [this] {
    return bus_ != nullptr ? static_cast<double>(bus_->dial_attempts()) : 0.0;
  });
  // Client side of the wire hot path: pooled poll-buffer reuse.
  registry_.AddProbe("wire.decode.pool_hit", [this] {
    return bus_ != nullptr ? static_cast<double>(bus_->pool_hits()) : 0.0;
  });
  registry_.AddProbe("wire.decode.pool_miss", [this] {
    return bus_ != nullptr ? static_cast<double>(bus_->pool_misses()) : 0.0;
  });
  registry_.AddProbe("wire.decode.bytes", [this] {
    return bus_ != nullptr ? static_cast<double>(bus_->decode_bytes()) : 0.0;
  });
}

NodeAnnouncement WorkerNode::BuildAnnouncement() const {
  NodeAnnouncement announcement;
  announcement.node_id = node_id_;
  announcement.address = address_;
  for (int i = 0; i < options_.num_units; ++i) {
    announcement.unit_ids.push_back(node_id_ + "/u" + std::to_string(i));
  }
  return announcement;
}

void WorkerNode::AdoptLease(Micros lease_timeout) {
  lease_timeout_.store(lease_timeout, std::memory_order_relaxed);
  heartbeat_period_ = options_.heartbeat_period > 0
                          ? options_.heartbeat_period
                          : std::max<Micros>(lease_timeout / 3,
                                             10 * kMicrosPerMilli);
}

WorkerNode::~WorkerNode() { Stop(); }

Status WorkerNode::Start() {
  if (running_.exchange(true)) return Status::OK();

  msg::remote::RemoteBusOptions bus_options;
  bus_options.address = options_.broker_address;
  // One clock domain: backoff windows elapse on the node's clock.
  bus_options.clock = clock_;
  bus_ = std::make_unique<msg::remote::RemoteBus>(bus_options);
  // The metadata stub shares the bus's control connection.
  meta_ = std::make_unique<MetaClient>(bus_.get());
  Status started = bus_->Connect();
  if (!started.ok()) {
    running_ = false;
    return started;
  }

  auto announced = meta_->Announce(BuildAnnouncement());
  if (!announced.ok()) {
    running_ = false;
    return announced.status();
  }
  AdoptLease(announced.value().lease_timeout);
  last_generation_ = announced.value().generation;

  // Past this point we hold a live lease: a failed start must leave it
  // gracefully or the node id stays blocked until the lease expires.
  auto abandon = [this](Status status) {
    (void)meta_->Leave(node_id_);  // Best effort.
    running_ = false;
    return status;
  };

  started = Env::Default()->RemoveDirRecursive(dir_);
  if (started.ok()) started = Env::Default()->CreateDir(dir_);
  if (!started.ok()) return abandon(started);

  // Replication stays process-local: this coordinator only hands out
  // unit data directories for donor copies inside this worker.
  coordinator_ = std::make_unique<engine::Coordinator>(1);
  engine::NodeOptions node_options = options_.node;
  node_options.num_processor_units = options_.num_units;
  node_ = std::make_unique<engine::RailgunNode>(
      node_options, node_id_, dir_, bus_.get(), coordinator_.get(), clock_);
  started = node_->Start();
  if (!started.ok()) return abandon(started);

  started = SyncStreams();
  if (!started.ok()) {
    node_->Stop();
    return abandon(started);
  }

  introspect::PublisherOptions pub_options;
  pub_options.period = kIntrospectPeriod;
  pub_options.node = node_id_;
  publisher_ = std::make_unique<introspect::Publisher>(
      pub_options, &registry_, bus_.get(), clock_);
  started = publisher_->Start();
  if (!started.ok()) {
    node_->Stop();
    return abandon(started);
  }

  // Under a simulated clock the caller drives Heartbeat() by hand.
  if (clock_->IsRealTime()) {
    heartbeat_thread_ = std::thread([this] { HeartbeatLoop(); });
  }
  return Status::OK();
}

void WorkerNode::Stop() {
  if (!running_.exchange(false)) return;
  {
    MutexLock lock(&hb_mu_);
  }
  hb_cv_.NotifyAll();
  if (heartbeat_thread_.joinable()) heartbeat_thread_.join();
  // Leave first so the view stops counting this node, then let the
  // units unsubscribe cleanly (one rebalance, no lease wait). Best
  // effort: a dead broker cannot be left politely anyway.
  if (publisher_ != nullptr) publisher_->Stop();
  if (meta_ != nullptr) (void)meta_->Leave(node_id_);
  if (node_ != nullptr) node_->Stop();
}

Status WorkerNode::SyncStreams() {
  MutexLock lock(&sync_mu_);
  RAILGUN_ASSIGN_OR_RETURN(std::vector<engine::StreamDef> defs,
                           meta_->ListStreams());
  for (auto& def : defs) {
    std::string encoded;
    engine::EncodeStreamDef(def, &encoded);
    auto it = registered_.find(def.name);
    if (it != registered_.end() && it->second == encoded) continue;
    RAILGUN_RETURN_IF_ERROR(node_->RegisterStream(def));
    registered_[def.name] = std::move(encoded);
  }
  return Status::OK();
}

Status WorkerNode::AnnounceAndSync() {
  RAILGUN_ASSIGN_OR_RETURN(AnnounceResult announced,
                           meta_->Announce(BuildAnnouncement()));
  AdoptLease(announced.lease_timeout);
  RAILGUN_RETURN_IF_ERROR(SyncStreams());
  // Only now: a failed sync must keep looking out of date so the next
  // heartbeat retries it (the announce itself bumped the generation,
  // so the stale value cannot match).
  last_generation_.store(announced.generation, std::memory_order_relaxed);
  return Status::OK();
}

Status WorkerNode::Heartbeat() {
  auto generation = meta_->Heartbeat(node_id_);
  if (generation.status().IsNotFound()) {
    // Lease expired (e.g. a network partition outlived the timeout):
    // rejoin from scratch rather than silently resurrect.
    return AnnounceAndSync();
  }
  RAILGUN_RETURN_IF_ERROR(generation.status());
  if (generation.value() ==
      last_generation_.load(std::memory_order_relaxed)) {
    return Status::OK();
  }
  // Record the generation only once the sync lands, so a transient
  // sync failure is retried on the next tick instead of being
  // mistaken for already-seen.
  RAILGUN_RETURN_IF_ERROR(SyncStreams());
  last_generation_.store(generation.value(), std::memory_order_relaxed);
  return Status::OK();
}

void WorkerNode::HeartbeatLoop() {
  MutexLock lock(&hb_mu_);
  while (running_) {
    hb_cv_.WaitFor(&hb_mu_, heartbeat_period_);
    if (!running_) break;
    lock.Unlock();
    // Transient failures (broker restarting, backoff) are retried on
    // the next tick; the lease gives us lease_timeout of slack.
    (void)Heartbeat();
    lock.Lock();
  }
}

}  // namespace railgun::meta
