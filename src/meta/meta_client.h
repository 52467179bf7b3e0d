// Client stub for the metadata service: speaks the kMeta* opcodes of
// the remote wire protocol over a RemoteBus to a BusServer whose
// extension hook routes them into the broker's MetadataService. Every
// RPC but ExecuteDdl rides the bus's control connection.
//
// Used by worker daemons (announce/heartbeat/leave, stream sync) and by
// remote api::Clients (DDL, foreign-schema fetch, admin listings). The stub
// is a pure encoder/decoder: transport — lazy reconnect with capped
// backoff, correlation ids, Unavailable on failure — is the borrowed
// RemoteBus's, so metadata RPCs share the connection and failure model
// of the data path. A broker without a metadata service answers
// NotSupported ("unknown opcode"), which callers treat as "no metadata
// available".
#ifndef RAILGUN_META_META_CLIENT_H_
#define RAILGUN_META_META_CLIENT_H_

#include <string>
#include <vector>

#include "engine/stream_def.h"
#include "meta/cluster_view.h"
#include "msg/remote/remote_bus.h"

namespace railgun::meta {

class MetaClient {
 public:
  // Borrows the bus (typically the owning client's/worker's data-path
  // RemoteBus); it must outlive this stub.
  explicit MetaClient(msg::remote::RemoteBus* bus) : bus_(bus) {}

  MetaClient(const MetaClient&) = delete;
  MetaClient& operator=(const MetaClient&) = delete;

  // ----- Membership ---------------------------------------------------
  StatusOr<AnnounceResult> Announce(const NodeAnnouncement& announcement);
  StatusOr<uint64_t> Heartbeat(const std::string& node_id);
  Status Leave(const std::string& node_id);
  StatusOr<ClusterView> GetView();

  // ----- Schema registry ----------------------------------------------
  StatusOr<engine::StreamDef> GetStream(const std::string& name);
  StatusOr<std::vector<engine::StreamDef>> ListStreams();

  // ----- DDL ----------------------------------------------------------
  // Executes one statement on the broker and returns its typed status
  // once every unit applied it (ADD METRIC backfill included). That wait
  // runs on a dedicated connection, so it never stalls the bus's
  // produces.
  Status ExecuteDdl(const std::string& statement);

 private:
  Status Call(msg::remote::OpCode opcode, const std::string& payload,
              std::string* result);

  msg::remote::RemoteBus* bus_;
};

}  // namespace railgun::meta

#endif  // RAILGUN_META_META_CLIENT_H_
