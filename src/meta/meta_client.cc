#include "meta/meta_client.h"

#include <utility>

#include "common/coding.h"

namespace railgun::meta {

using msg::remote::OpCode;

Status MetaClient::Call(OpCode opcode, const std::string& payload,
                        std::string* result) {
  return bus_->CallOpcode("", static_cast<uint8_t>(opcode), payload, result);
}

StatusOr<AnnounceResult> MetaClient::Announce(
    const NodeAnnouncement& announcement) {
  std::string payload, result;
  EncodeNodeAnnouncement(announcement, &payload);
  RAILGUN_RETURN_IF_ERROR(Call(OpCode::kMetaAnnounce, payload, &result));
  Slice in(result);
  AnnounceResult out;
  if (!GetVarsint64(&in, &out.lease_timeout) ||
      !GetVarint64(&in, &out.generation)) {
    return Status::Corruption("malformed announce response");
  }
  return out;
}

StatusOr<uint64_t> MetaClient::Heartbeat(const std::string& node_id) {
  std::string payload, result;
  PutLengthPrefixedSlice(&payload, node_id);
  RAILGUN_RETURN_IF_ERROR(Call(OpCode::kMetaHeartbeat, payload, &result));
  Slice in(result);
  uint64_t generation;
  if (!GetVarint64(&in, &generation)) {
    return Status::Corruption("malformed heartbeat response");
  }
  return generation;
}

Status MetaClient::Leave(const std::string& node_id) {
  std::string payload;
  PutLengthPrefixedSlice(&payload, node_id);
  return Call(OpCode::kMetaLeave, payload, nullptr);
}

StatusOr<ClusterView> MetaClient::GetView() {
  std::string result;
  RAILGUN_RETURN_IF_ERROR(Call(OpCode::kMetaGetView, "", &result));
  Slice in(result);
  ClusterView view;
  RAILGUN_RETURN_IF_ERROR(DecodeClusterView(&in, &view));
  return view;
}

StatusOr<engine::StreamDef> MetaClient::GetStream(const std::string& name) {
  std::string payload, result;
  PutLengthPrefixedSlice(&payload, name);
  RAILGUN_RETURN_IF_ERROR(Call(OpCode::kMetaGetStream, payload, &result));
  Slice in(result);
  engine::StreamDef def;
  RAILGUN_RETURN_IF_ERROR(engine::DecodeStreamDef(&in, &def));
  return def;
}

StatusOr<std::vector<engine::StreamDef>> MetaClient::ListStreams() {
  std::string result;
  RAILGUN_RETURN_IF_ERROR(Call(OpCode::kMetaListStreams, "", &result));
  Slice in(result);
  std::vector<engine::StreamDef> defs;
  RAILGUN_RETURN_IF_ERROR(engine::DecodeStreamDefList(&in, &defs));
  return defs;
}

Status MetaClient::ExecuteDdl(const std::string& statement) {
  std::string payload;
  PutLengthPrefixedSlice(&payload, statement);
  return bus_->CallOpcode("meta/ddl",
                          static_cast<uint8_t>(OpCode::kMetaExecuteDdl),
                          payload, nullptr);
}

}  // namespace railgun::meta
