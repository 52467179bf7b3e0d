#include "meta/metadata_service.h"

#include "common/coding.h"
#include "msg/remote/wire.h"
#include "query/ddl.h"

namespace railgun::meta {

MetadataService::MetadataService(const MetadataServiceOptions& options,
                                 engine::Cluster* cluster)
    : options_(options),
      cluster_(cluster),
      clock_(cluster->clock()),
      client_(cluster) {}

// ----- Membership -----------------------------------------------------

void MetadataService::CheckLeasesLocked(Micros now) {
  int expired = 0;
  for (auto it = nodes_.begin(); it != nodes_.end();) {
    NodeRecord& record = it->second;
    if (!record.alive) {
      // Prune old tombstones (workers restart under fresh ids; without
      // a bound the map and every view would grow forever).
      if (now - record.died_at >= kDeadNodeRetention) {
        it = nodes_.erase(it);
        continue;
      }
    } else if (now - record.last_heartbeat >= options_.lease_timeout) {
      // Only the listing ages: the node's units keep whatever the bus
      // session decides for them.
      record.alive = false;
      record.died_at = now;
      ++expired;
    }
    ++it;
  }
  if (expired > 0) {
    ++generation_;
    leases_expired_.fetch_add(static_cast<uint64_t>(expired),
                              std::memory_order_relaxed);
  }
}

StatusOr<AnnounceResult> MetadataService::Announce(
    const NodeAnnouncement& announcement) {
  announces_.fetch_add(1, std::memory_order_relaxed);
  if (announcement.node_id.empty()) {
    return Status::InvalidArgument("node announcement without an id");
  }
  MutexLock lock(&mu_);
  const Micros now = clock_->NowMicros();
  CheckLeasesLocked(now);
  auto it = nodes_.find(announcement.node_id);
  if (it != nodes_.end() && it->second.alive) {
    return Status::AlreadyExists("node already announced and alive: " +
                                 announcement.node_id);
  }
  NodeRecord record;
  record.info = announcement;
  record.last_heartbeat = now;
  nodes_[announcement.node_id] = std::move(record);
  ++generation_;
  AnnounceResult result;
  result.lease_timeout = options_.lease_timeout;
  result.generation = generation_;
  return result;
}

StatusOr<uint64_t> MetadataService::Heartbeat(const std::string& node_id) {
  heartbeats_.fetch_add(1, std::memory_order_relaxed);
  MutexLock lock(&mu_);
  const Micros now = clock_->NowMicros();
  CheckLeasesLocked(now);
  auto it = nodes_.find(node_id);
  if (it == nodes_.end() || !it->second.alive) {
    // Expired or never announced: the node must re-announce rather
    // than silently resurrect an expired listing.
    return Status::NotFound("no live lease for node: " + node_id);
  }
  it->second.last_heartbeat = now;
  return generation_;
}

Status MetadataService::Leave(const std::string& node_id) {
  MutexLock lock(&mu_);
  auto it = nodes_.find(node_id);
  if (it == nodes_.end()) {
    return Status::NotFound("unknown node: " + node_id);
  }
  if (it->second.alive) {
    it->second.alive = false;
    it->second.died_at = clock_->NowMicros();
    ++generation_;
  }
  return Status::OK();
}

ClusterView MetadataService::View() const {
  ClusterView view;
  // Broker-local engine nodes first: they are part of the deployment
  // but never announce (they share the process with this service).
  const int local = cluster_->num_nodes();
  for (int i = 0; i < local; ++i) {
    engine::RailgunNode* node = cluster_->node(i);
    view.nodes.push_back(
        {node->id(), "broker-local", node->num_units(), node->alive()});
  }
  MutexLock lock(&mu_);
  view.generation = generation_;
  const Micros now = clock_->NowMicros();
  for (const auto& [node_id, record] : nodes_) {
    // Present expiry immediately, before the next Announce/Heartbeat
    // records it.
    const bool alive =
        record.alive && now - record.last_heartbeat < options_.lease_timeout;
    view.nodes.push_back({node_id, record.info.address,
                          static_cast<int>(record.info.unit_ids.size()),
                          alive});
  }
  for (const auto& [name, def] : streams_) view.streams.push_back(name);
  return view;
}

// ----- Schema registry ------------------------------------------------

Status MetadataService::RegisterStream(const engine::StreamDef& stream) {
  if (stream.name.empty()) {
    return Status::InvalidArgument("stream definition without a name");
  }
  MutexLock lock(&mu_);
  streams_[stream.name] = stream;
  ++generation_;
  return Status::OK();
}

StatusOr<engine::StreamDef> MetadataService::GetStream(
    const std::string& name) const {
  MutexLock lock(&mu_);
  auto it = streams_.find(name);
  if (it == streams_.end()) {
    return Status::NotFound("unknown stream: " + name);
  }
  return it->second;
}

std::vector<engine::StreamDef> MetadataService::ListStreamDefs() const {
  MutexLock lock(&mu_);
  std::vector<engine::StreamDef> defs;
  defs.reserve(streams_.size());
  for (const auto& [name, def] : streams_) defs.push_back(def);
  return defs;
}

// ----- DDL ------------------------------------------------------------

Status MetadataService::ExecuteDdl(const std::string& statement) {
  MutexLock ddl_lock(&ddl_mu_);
  // The attached client is the source of validation and synchronization
  // (the statement is applied by every alive broker-local unit before
  // Execute returns). AlreadyExists still syncs the registry so a
  // reattaching declarer and the registry agree.
  const Status executed = client_.Execute(statement);
  if (!executed.ok() && !executed.IsAlreadyExists()) return executed;
  ddl_executed_.fetch_add(1, std::memory_order_relaxed);
  auto ddl = query::ParseDdlOrMetric(statement);
  if (!ddl.ok()) return executed;  // Client accepted it; cannot happen.
  MutexLock lock(&mu_);
  if (engine::FoldDdl(std::move(ddl).value(), &streams_)) ++generation_;
  return executed;
}

// ----- Wire hook ------------------------------------------------------

bool MetadataService::HandleWire(uint8_t opcode, const Slice& payload,
                                 Status* status, std::string* result) {
  using msg::remote::OpCode;
  Slice in = payload;
  switch (static_cast<OpCode>(opcode)) {
    case OpCode::kMetaAnnounce: {
      NodeAnnouncement announcement;
      const Status parsed = DecodeNodeAnnouncement(&in, &announcement);
      if (!parsed.ok()) {
        *status = parsed;
        return true;
      }
      auto announced = Announce(announcement);
      *status = announced.status();
      if (announced.ok()) {
        PutVarsint64(result, announced.value().lease_timeout);
        PutVarint64(result, announced.value().generation);
      }
      return true;
    }
    case OpCode::kMetaHeartbeat: {
      Slice node_id;
      if (!GetLengthPrefixedSlice(&in, &node_id)) {
        *status = Status::Corruption("malformed heartbeat");
        return true;
      }
      auto generation = Heartbeat(node_id.ToString());
      *status = generation.status();
      if (generation.ok()) PutVarint64(result, generation.value());
      return true;
    }
    case OpCode::kMetaLeave: {
      Slice node_id;
      if (!GetLengthPrefixedSlice(&in, &node_id)) {
        *status = Status::Corruption("malformed leave");
        return true;
      }
      *status = Leave(node_id.ToString());
      return true;
    }
    case OpCode::kMetaGetView: {
      EncodeClusterView(View(), result);
      *status = Status::OK();
      return true;
    }
    case OpCode::kMetaGetStream: {
      Slice name;
      if (!GetLengthPrefixedSlice(&in, &name)) {
        *status = Status::Corruption("malformed stream fetch");
        return true;
      }
      auto def = GetStream(name.ToString());
      *status = def.status();
      if (def.ok()) engine::EncodeStreamDef(def.value(), result);
      return true;
    }
    case OpCode::kMetaListStreams: {
      engine::EncodeStreamDefList(ListStreamDefs(), result);
      *status = Status::OK();
      return true;
    }
    case OpCode::kMetaExecuteDdl: {
      Slice statement;
      if (!GetLengthPrefixedSlice(&in, &statement)) {
        *status = Status::Corruption("malformed DDL request");
        return true;
      }
      *status = ExecuteDdl(statement.ToString());
      return true;
    }
    default:
      return false;
  }
}

}  // namespace railgun::meta
