#include "engine/cluster.h"

#include "trace/tracer.h"

namespace railgun::engine {

namespace {

// Retention cap for the internals topic, set at Start so the self-stats
// log stays bounded even while units or SUBSCRIBE tails that never
// commit track it.
constexpr uint64_t kInternalsRetention = 1 << 16;

}  // namespace

Cluster::Cluster(const ClusterOptions& options)
    : options_(options),
      clock_(options.clock != nullptr ? options.clock
                                      : MonotonicClock::Default()) {
  msg::BusOptions bus_options = options_.bus;
  bus_options.clock = clock_;
  bus_.reset(new msg::InProcessBus(bus_options));
  coordinator_.reset(new Coordinator(options_.replication_factor));
  // The sticky coordinator places the active group's tasks for every
  // processor unit, local or joining over the network.
  bus_->SetGroupStrategy(kActiveGroup, coordinator_.get());

  // Wire every node's layers into the cluster-wide metrics registry;
  // instances sharing a name aggregate into one series.
  options_.node.frontend.registry = &registry_;
  options_.node.unit.registry = &registry_;

  // Pull-style metrics: snapshots sample the live components. The
  // lambdas capture `this` and the registry dies with the cluster, so
  // lifetimes are enclosed by construction.
  registry_.AddProbe("bus.rebalances", [this] {
    return static_cast<double>(bus_->rebalance_count());
  });
  registry_.AddProbe("bus.backlog", [this] {
    return static_cast<double>(bus_->BacklogHint());
  });
  registry_.AddProbe("bus.retained_messages", [this] {
    return static_cast<double>(bus_->RetainedTotals().messages);
  });
  registry_.AddProbe("bus.retained_bytes", [this] {
    return static_cast<double>(bus_->RetainedTotals().bytes);
  });
  registry_.AddProbe("bus.poll_parks", [this] {
    return static_cast<double>(bus_->poll_park_count());
  });
  registry_.AddProbe("bus.poll_wakes", [this] {
    return static_cast<double>(bus_->poll_wake_count());
  });
  registry_.AddProbe("frontend.pending", [this] {
    MutexLock lock(&mu_);
    double total = 0;
    for (const auto& node : nodes_) {
      if (node->alive()) {
        total += static_cast<double>(node->frontend()->pending_count());
      }
    }
    return total;
  });
  registry_.AddProbe("frontend.sheds", [this] {
    MutexLock lock(&mu_);
    double total = 0;
    for (const auto& node : nodes_) {
      total += static_cast<double>(node->frontend()->shed_count());
    }
    return total;
  });
  registry_.AddProbe("frontend.completed", [this] {
    MutexLock lock(&mu_);
    double total = 0;
    for (const auto& node : nodes_) {
      total += static_cast<double>(node->frontend()->completed_requests());
    }
    return total;
  });
  registry_.AddProbe("frontend.timed_out", [this] {
    MutexLock lock(&mu_);
    double total = 0;
    for (const auto& node : nodes_) {
      total += static_cast<double>(node->frontend()->timed_out_requests());
    }
    return total;
  });
  registry_.AddProbe("engine.active_messages", [this] {
    return static_cast<double>(TotalStats().active_messages);
  });
  registry_.AddProbe("engine.process_failures", [this] {
    return static_cast<double>(TotalStats().process_failures);
  });

  // Live SUBSCRIBE tails resolve streams from the registered set.
  subscription_hub_.reset(new ops::SubscriptionHub(
      bus_.get(),
      [this](const std::string& name) -> StatusOr<StreamDef> {
        MutexLock lock(&mu_);
        for (const auto& stream : streams_) {
          if (stream.name == name) return stream;
        }
        return Status::NotFound("unknown stream: " + name);
      },
      &registry_));
  registry_.AddProbe("subscribe.subscribers", [this] {
    return static_cast<double>(subscription_hub_->subscriber_count());
  });
  registry_.AddProbe("subscribe.queue.depth", [this] {
    return static_cast<double>(subscription_hub_->TotalQueueDepth());
  });

  // Per-stage trace latency histograms + trace.* counters flow into the
  // same registry (and through the publisher into __railgun.internals).
  trace::Tracer::InitFromEnvOnce();
  trace::Tracer::Global()->AttachRegistry(&registry_);
}

Cluster::~Cluster() {
  Stop();
  // The stage histograms live in registry_; the global tracer must not
  // outlive them holding the pointers.
  trace::Tracer::Global()->DetachRegistry(&registry_);
}

Status Cluster::Start() {
  // Every start is a fresh cluster: wipe what a previous run left.
  RAILGUN_RETURN_IF_ERROR(
      Env::Default()->RemoveDirRecursive(options_.base_dir));
  RAILGUN_RETURN_IF_ERROR(Env::Default()->CreateDir(options_.base_dir));
  {
    MutexLock lock(&mu_);
    for (int i = 0; i < options_.num_nodes; ++i) {
      RAILGUN_RETURN_IF_ERROR(AddNodeLocked().status());
    }
  }
  // Self-instrumentation: snapshots of the registry become ordinary
  // events on the internals stream. The publisher only creates the
  // topic — the stream is not auto-registered on the nodes, so no unit
  // consumes it until someone asks for it via DDL (keeps task counts
  // and quiescence accounting of instrumentation-unaware callers
  // intact).
  publisher_.reset(new introspect::Publisher(options_.introspect,
                                             &registry_, bus_.get(),
                                             clock_));
  RAILGUN_RETURN_IF_ERROR(publisher_->Start());
  return bus_->SetTopicRetention(
      introspect::InternalsStreamDef().TopicFor("node"), kInternalsRetention);
}

void Cluster::Stop() {
  // Stop the publisher before taking mu_: a snapshot in flight may be
  // inside a probe that locks mu_ itself. Likewise the hub: its Create
  // path resolves streams through a lookup that locks mu_.
  if (publisher_ != nullptr) publisher_->Stop();
  if (subscription_hub_ != nullptr) subscription_hub_->Stop();
  MutexLock lock(&mu_);
  for (auto& node : nodes_) {
    if (node->alive()) node->Stop();
  }
}

RailgunNode* Cluster::node(int index) const {
  MutexLock lock(&mu_);
  return nodes_[static_cast<size_t>(index)].get();
}

int Cluster::num_nodes() const {
  MutexLock lock(&mu_);
  return static_cast<int>(nodes_.size());
}

StatusOr<RailgunNode*> Cluster::AddNode() {
  MutexLock lock(&mu_);
  return AddNodeLocked();
}

StatusOr<RailgunNode*> Cluster::AddNodeLocked() {
  const std::string node_id = "node" + std::to_string(next_node_index_++);
  auto node = std::make_unique<RailgunNode>(
      options_.node, node_id, options_.base_dir + "/" + node_id, bus_.get(),
      coordinator_.get(), clock_);
  RAILGUN_RETURN_IF_ERROR(node->Start());
  for (const auto& stream : streams_) {
    RAILGUN_RETURN_IF_ERROR(node->RegisterStream(stream));
  }
  nodes_.push_back(std::move(node));
  return nodes_.back().get();
}

Status Cluster::KillNode(int index, bool immediate_detection) {
  MutexLock lock(&mu_);
  nodes_[static_cast<size_t>(index)]->Kill(immediate_detection);
  return Status::OK();
}

Status Cluster::StopNode(int index) {
  MutexLock lock(&mu_);
  nodes_[static_cast<size_t>(index)]->Stop();
  return Status::OK();
}

Status Cluster::RegisterStream(const StreamDef& stream) {
  MutexLock lock(&mu_);
  // Re-registration (e.g. a metric added to an existing stream) updates
  // in place; duplicate entries would double-count topics in
  // WaitForQuiescence.
  bool updated = false;
  for (auto& existing : streams_) {
    if (existing.name == stream.name) {
      existing = stream;
      updated = true;
      break;
    }
  }
  if (!updated) streams_.push_back(stream);
  for (auto& node : nodes_) {
    if (!node->alive()) continue;
    RAILGUN_RETURN_IF_ERROR(node->RegisterStream(stream));
  }
  return Status::OK();
}

uint64_t Cluster::WaitForQuiescence(Micros timeout) {
  const Micros deadline = clock_->NowMicros() + timeout;
  while (clock_->NowMicros() < deadline) {
    uint64_t produced = 0;
    uint64_t processed = 0;
    {
      MutexLock lock(&mu_);
      for (const auto& stream : streams_) {
        // The internals stream is fed continuously by the publisher:
        // counting its production would keep "quiescence" forever out
        // of reach. Callers that registered it still drain at least all
        // user events (processed is then an overcount, which only makes
        // the wait return sooner — acceptable for a stats stream).
        if (stream.name == introspect::kInternalsStream) continue;
        for (const auto& p : stream.partitioners) {
          for (const auto& tp : bus_->PartitionsOf(stream.TopicFor(p))) {
            auto end = bus_->EndOffset(tp);
            if (end.ok()) produced += end.value();
          }
        }
      }
      for (const auto& node : nodes_) {
        if (!node->alive()) continue;
        for (int u = 0; u < node->num_units(); ++u) {
          processed += node->unit(u)->stats().active_messages;
        }
      }
    }
    if (processed >= produced && produced > 0) return processed;
    clock_->SleepMicros(2000);
  }
  return 0;
}

UnitStats Cluster::TotalStats() const {
  MutexLock lock(&mu_);
  UnitStats total;
  for (const auto& node : nodes_) {
    for (int u = 0; u < node->num_units(); ++u) {
      const UnitStats s = node->unit(u)->stats();
      total.active_messages += s.active_messages;
      total.replica_messages += s.replica_messages;
      total.replies_sent += s.replies_sent;
      total.recoveries += s.recoveries;
      total.fresh_tasks += s.fresh_tasks;
      total.bytes_recovered += s.bytes_recovered;
      total.poll_errors += s.poll_errors;
      total.publish_errors += s.publish_errors;
      total.process_failures += s.process_failures;
      total.routed_events += s.routed_events;
      total.routed_drops += s.routed_drops;
    }
  }
  return total;
}

}  // namespace railgun::engine
