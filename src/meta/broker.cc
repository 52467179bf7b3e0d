#include "meta/broker.h"

#include "introspect/internals.h"

namespace railgun::meta {

Broker::Broker(const BrokerOptions& options) : options_(options) {
  cluster_ = std::make_unique<engine::Cluster>(options_.cluster);
  msg::remote::BusServerOptions server_options;
  server_options.host = options_.host;
  server_options.port = options_.port;
  server_ = std::make_unique<msg::remote::BusServer>(server_options,
                                                     cluster_->bus());
  meta_ = std::make_unique<MetadataService>(options_.meta, cluster_.get());
  // Route the kMeta* opcodes into the metadata service and the kSub*
  // opcodes into the cluster's subscription hub (installed before
  // Start: the server reads the hook unlocked). Opcodes neither claims
  // fall through to the server's NotSupported unknown-opcode reply.
  server_->SetExtension(
      [this](uint8_t opcode, const Slice& payload, Status* status,
             std::string* result) {
        if (cluster_->subscription_hub()->HandleWire(opcode, payload,
                                                     status, result)) {
          return true;
        }
        return meta_->HandleWire(opcode, payload, status, result);
      });

  // Control-plane metrics flow into the hosted cluster's registry, so
  // one internals stream carries data-plane and control-plane health.
  introspect::Registry* registry = cluster_->registry();
  registry->AddProbe("meta.announces", [this] {
    return static_cast<double>(meta_->announce_count());
  });
  registry->AddProbe("meta.heartbeats", [this] {
    return static_cast<double>(meta_->heartbeat_count());
  });
  registry->AddProbe("meta.leases_expired", [this] {
    return static_cast<double>(meta_->leases_expired());
  });
  registry->AddProbe("meta.ddl_executed", [this] {
    return static_cast<double>(meta_->ddl_executed());
  });
  registry->AddProbe("server.connections", [this] {
    return static_cast<double>(server_->live_connections());
  });
  // Wire hot-path health: pooled receive-buffer reuse on the server side
  // of every connection.
  registry->AddProbe("wire.decode.pool_hit", [this] {
    return static_cast<double>(server_->pool_hits());
  });
  registry->AddProbe("wire.decode.pool_miss", [this] {
    return static_cast<double>(server_->pool_misses());
  });
  registry->AddProbe("wire.decode.bytes", [this] {
    return static_cast<double>(server_->decode_bytes());
  });
}

Broker::~Broker() { Stop(); }

Status Broker::Start() {
  if (started_) return Status::OK();
  RAILGUN_RETURN_IF_ERROR(cluster_->Start());
  RAILGUN_RETURN_IF_ERROR(server_->Start());
  // Pre-register the built-in internals stream in the schema registry:
  // remote clients EnsureStream("__railgun.internals") like any user
  // stream and can immediately query the engine's own stats.
  RAILGUN_RETURN_IF_ERROR(
      meta_->RegisterStream(introspect::InternalsStreamDef()));
  started_ = true;
  return Status::OK();
}

void Broker::Stop() {
  if (!started_) return;
  started_ = false;
  server_->Stop();
  cluster_->Stop();
}

}  // namespace railgun::meta
