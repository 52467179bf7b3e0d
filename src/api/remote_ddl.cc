#include "api/remote_ddl.h"

#include "common/coding.h"
#include "msg/remote/wire.h"

namespace railgun::api {

void EncodeDdlRequest(const DdlRequest& request, std::string* out) {
  PutVarint64(out, request.request_id);
  PutLengthPrefixedSlice(out, request.reply_topic);
  PutLengthPrefixedSlice(out, request.statement);
}

Status DecodeDdlRequest(const Slice& data, DdlRequest* request) {
  Slice in = data;
  Slice reply_topic, statement;
  if (!GetVarint64(&in, &request->request_id) ||
      !GetLengthPrefixedSlice(&in, &reply_topic) ||
      !GetLengthPrefixedSlice(&in, &statement)) {
    return Status::Corruption("malformed DDL request");
  }
  request->reply_topic = reply_topic.ToString();
  request->statement = statement.ToString();
  return Status::OK();
}

void EncodeDdlReply(const DdlReply& reply, std::string* out) {
  PutVarint64(out, reply.request_id);
  msg::remote::PutStatus(out, reply.result);
}

Status DecodeDdlReply(const Slice& data, DdlReply* reply) {
  Slice in = data;
  if (!GetVarint64(&in, &reply->request_id) ||
      !msg::remote::GetStatus(&in, &reply->result)) {
    return Status::Corruption("malformed DDL reply");
  }
  return Status::OK();
}

// --- RemoteDdlClient -------------------------------------------------

RemoteDdlClient::RemoteDdlClient(msg::Bus* bus, std::string client_id,
                                 Clock* clock)
    : bus_(bus),
      client_id_(std::move(client_id)),
      reply_topic_(std::string(kDdlTopic) + ".replies." + client_id_),
      consumer_id_("ddlc." + client_id_),
      clock_(clock) {}

Status RemoteDdlClient::EnsureSubscribedLocked() {
  if (subscribed_) return Status::OK();
  Status s = bus_->CreateTopic(kDdlTopic, 1);
  if (!s.ok() && !s.IsAlreadyExists()) return s;
  s = bus_->CreateTopic(reply_topic_, 1);
  if (!s.ok() && !s.IsAlreadyExists()) return s;
  RAILGUN_RETURN_IF_ERROR(bus_->Subscribe(
      consumer_id_, "ddl." + client_id_, {reply_topic_}, "", nullptr, {}));
  subscribed_ = true;
  return Status::OK();
}

Status RemoteDdlClient::Execute(const std::string& statement,
                                Micros timeout) {
  MutexLock lock(&mu_);
  RAILGUN_RETURN_IF_ERROR(EnsureSubscribedLocked());

  DdlRequest request;
  // The reply topic is private to this client, so a plain counter
  // cannot collide.
  request.request_id = next_request_id_++;
  request.reply_topic = reply_topic_;
  request.statement = statement;
  std::string encoded;
  EncodeDdlRequest(request, &encoded);
  RAILGUN_RETURN_IF_ERROR(
      bus_->Produce(kDdlTopic, client_id_, std::move(encoded)).status());

  const Micros deadline = clock_->NowMicros() + timeout;
  msg::MessageBatch replies;
  while (clock_->NowMicros() < deadline) {
    RAILGUN_RETURN_IF_ERROR(
        bus_->PollBatch(consumer_id_, 16, &replies, 50 * kMicrosPerMilli));
    for (const msg::MessageView& message : replies.views()) {
      DdlReply reply;
      if (!DecodeDdlReply(message.payload, &reply).ok()) continue;
      if (reply.request_id == request.request_id) return reply.result;
    }
  }
  return Status::Unavailable("DDL request timed out: " + statement);
}

void RemoteDdlClient::Shutdown() {
  MutexLock lock(&mu_);
  if (!subscribed_) return;
  (void)bus_->Unsubscribe(consumer_id_);  // Best effort on shutdown.
  subscribed_ = false;
}

}  // namespace railgun::api
