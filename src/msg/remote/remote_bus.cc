#include "msg/remote/remote_bus.h"

#include <algorithm>
#include <utility>

#include "common/coding.h"
#include "trace/tracer.h"

namespace railgun::msg::remote {

RemoteBus::RemoteBus(const RemoteBusOptions& options)
    : options_(options),
      clock_(options.clock != nullptr ? options.clock
                                      : MonotonicClock::Default()) {
  address_status_ = ParseAddress(options_.address, &host_, &port_);
}

RemoteBus::~RemoteBus() {
  MutexLock lock(&mu_);
  for (auto& [key, conn] : conns_) {
    MutexLock conn_lock(&conn->mu);
    conn->sock.Close();
  }
}

Status RemoteBus::Connect() {
  RAILGUN_RETURN_IF_ERROR(address_status_);
  auto conn = ConnFor("");
  MutexLock lock(&conn->mu);
  // An explicit Connect is user-initiated: skip any backoff window.
  conn->backoff.Clear();
  return EnsureConnectedLocked(conn.get());
}

std::shared_ptr<RemoteBus::Conn> RemoteBus::ConnFor(
    const std::string& key) const {
  MutexLock lock(&mu_);
  auto& conn = conns_[key];
  if (conn == nullptr) conn = std::make_shared<Conn>();
  return conn;
}

Status RemoteBus::EnsureConnectedLocked(Conn* conn) const {
  if (conn->connected) return Status::OK();
  const Micros now = clock_->NowMicros();
  if (!conn->backoff.CanDial(now)) {
    // Inside the backoff window: fail fast without touching the
    // network, so poll loops retrying every few milliseconds don't
    // hammer a dead (or recovering) broker with SYNs.
    if (!conn->refusal.ok()) return conn->refusal;
    return Status::Unavailable("broker unreachable: " + options_.address +
                               " (reconnect backing off)");
  }
  dial_attempts_.fetch_add(1, std::memory_order_relaxed);
  auto sock = Socket::Connect(host_, port_);
  if (!sock.ok()) {
    // Re-read the clock: a blackholed peer can block connect() for far
    // longer than the backoff window, and anchoring at the pre-dial
    // time would put the whole window in the past.
    conn->backoff.RecordFailure(clock_->NowMicros());
    return sock.status();
  }
  conn->sock = std::move(sock).value();
  conn->connected = true;

  std::string hello;
  PutVarint32(&hello, kProtocolVersion);
  BufferRef buffer;
  Slice ignored;
  Status answered =
      RoundTripLocked(conn, OpCode::kHello, hello, &buffer, &ignored);
  if (!answered.ok()) {
    if (conn->connected) {
      // The server answered and refused. One predating kHello answers
      // its unknown-opcode NotSupported, which is a mismatch too.
      if (answered.IsNotSupported()) {
        answered = ProtocolMismatch("server predates the kHello check");
      }
      conn->refusal = answered;
      conn->sock.Close();
      conn->connected = false;
    }
    conn->backoff.RecordFailure(clock_->NowMicros());
    return answered;
  }
  conn->refusal = Status::OK();
  conn->backoff.RecordSuccess();
  return Status::OK();
}

Status RemoteBus::CallOpcode(const std::string& key, uint8_t opcode,
                             const std::string& payload,
                             std::string* result) {
  return Call(ConnFor(key), static_cast<OpCode>(opcode), payload, result);
}

void RemoteBus::DropConnection(const std::string& key) {
  MutexLock lock(&mu_);
  conns_.erase(key);
}

Status RemoteBus::Call(const std::shared_ptr<Conn>& conn, OpCode opcode,
                       const std::string& payload,
                       std::string* result) const {
  BufferRef buffer;
  Slice in;
  RAILGUN_RETURN_IF_ERROR(CallView(conn, opcode, payload, &buffer, &in));
  if (result != nullptr) result->assign(in.data(), in.size());
  return Status::OK();
}

Status RemoteBus::CallView(const std::shared_ptr<Conn>& conn, OpCode opcode,
                           const std::string& payload, BufferRef* buffer,
                           Slice* result) const {
  RAILGUN_RETURN_IF_ERROR(address_status_);
  MutexLock lock(&conn->mu);
  RAILGUN_RETURN_IF_ERROR(EnsureConnectedLocked(conn.get()));
  return RoundTripLocked(conn.get(), opcode, payload, buffer, result);
}

Status RemoteBus::RoundTripLocked(Conn* conn, OpCode opcode,
                                  const std::string& payload,
                                  BufferRef* buffer, Slice* result) const {
  Frame request;
  request.correlation_id = conn->next_correlation++;
  request.opcode = static_cast<uint8_t>(opcode);
  request.payload = payload;
  std::string encoded;
  EncodeFrame(request, &encoded);

  auto fail = [conn](Status status) {
    conn->sock.Close();
    conn->connected = false;
    return status;
  };

  Status sent = conn->sock.SendAll(encoded.data(), encoded.size());
  if (!sent.ok()) return fail(std::move(sent));

  FrameView response;
  Status received = ReadFramePooled(&conn->sock, &pool_, buffer, &response);
  if (!received.ok()) return fail(std::move(received));
  if (response.correlation_id != request.correlation_id ||
      response.opcode != (request.opcode | kResponseBit)) {
    return fail(Status::Corruption("response does not match request"));
  }

  Slice in = response.payload;
  Status remote;
  if (!GetStatus(&in, &remote)) {
    return fail(Status::Corruption("malformed response status"));
  }
  RAILGUN_RETURN_IF_ERROR(remote);
  *result = in;
  return Status::OK();
}

Status RemoteBus::CallControl(OpCode opcode, const std::string& payload,
                              std::string* result) const {
  return Call(ConnFor(""), opcode, payload, result);
}

// --- Topic administration --------------------------------------------

Status RemoteBus::CreateTopic(const std::string& topic, int partitions) {
  std::string payload;
  PutLengthPrefixedSlice(&payload, topic);
  PutVarint32(&payload, static_cast<uint32_t>(std::max(partitions, 0)));
  return CallControl(OpCode::kCreateTopic, payload, nullptr);
}

std::vector<TopicPartition> RemoteBus::PartitionsOf(
    const std::string& topic) const {
  std::string payload, result;
  PutLengthPrefixedSlice(&payload, topic);
  std::vector<TopicPartition> tps;
  if (!CallControl(OpCode::kPartitionsOf, payload, &result).ok()) return tps;
  Slice in(result);
  GetTopicPartitionList(&in, &tps);
  return tps;
}

// --- Producing -------------------------------------------------------

Status RemoteBus::ProduceBatch(const std::string& topic,
                               std::vector<ProduceRecord> records) {
  std::string payload;
  PutColumnarProduceBatch(&payload, topic, records);
  // When the producer left a trace context ambient, forward it as a
  // request trailer so the server-side append span joins the trace.
  if (trace::Tracer::Global()->enabled()) {
    trace::AppendTraceTrailer(trace::CurrentTraceContext(), &payload);
  }
  return CallControl(OpCode::kProduceBatch, payload, nullptr);
}

// --- Group management ------------------------------------------------

Status RemoteBus::Subscribe(const std::string& consumer_id,
                            const std::string& group,
                            const std::vector<std::string>& topics,
                            const std::string& metadata,
                            RebalanceListener listener) {
  std::string payload;
  PutLengthPrefixedSlice(&payload, consumer_id);
  PutLengthPrefixedSlice(&payload, group);
  PutVarint32(&payload, static_cast<uint32_t>(topics.size()));
  for (const auto& topic : topics) PutLengthPrefixedSlice(&payload, topic);
  PutLengthPrefixedSlice(&payload, metadata);
  {
    // Installed before the RPC: the first poll may already carry the
    // initial assignment.
    MutexLock lock(&mu_);
    listeners_[consumer_id] = std::move(listener);
  }
  const Status subscribed = CallControl(OpCode::kSubscribe, payload, nullptr);
  if (!subscribed.ok()) {
    MutexLock lock(&mu_);
    listeners_.erase(consumer_id);
  }
  return subscribed;
}

Status RemoteBus::Unsubscribe(const std::string& consumer_id) {
  std::string payload;
  PutLengthPrefixedSlice(&payload, consumer_id);
  const Status status = CallControl(OpCode::kUnsubscribe, payload, nullptr);
  {
    MutexLock lock(&mu_);
    listeners_.erase(consumer_id);
  }
  DropConnection(consumer_id);  // The dedicated poll connection.
  return status;
}

// --- Consuming -------------------------------------------------------

void RemoteBus::DeliverRebalance(const std::string& consumer_id,
                                 const std::vector<TopicPartition>& revoked,
                                 const std::vector<TopicPartition>& assigned) {
  if (revoked.empty() && assigned.empty()) return;
  RebalanceListener listener;
  {
    MutexLock lock(&mu_);
    auto it = listeners_.find(consumer_id);
    if (it != listeners_.end()) listener = it->second;
  }
  if (!revoked.empty() && listener.on_revoked) listener.on_revoked(revoked);
  if (!assigned.empty() && listener.on_assigned) {
    listener.on_assigned(assigned);
  }
}

Status RemoteBus::PollBatch(const std::string& consumer_id,
                            size_t max_messages, MessageBatch* out,
                            Micros max_wait) {
  out->Clear();
  std::string payload;
  PutLengthPrefixedSlice(&payload, consumer_id);
  PutVarint64(&payload, max_messages);
  PutVarsint64(&payload, max_wait);
  // The dedicated per-consumer connection lets the server park this
  // poll without stalling control traffic (wakes, produces, seeks).
  BufferRef buffer;
  Slice in;
  RAILGUN_RETURN_IF_ERROR(
      CallView(ConnFor(consumer_id), OpCode::kPoll, payload, &buffer, &in));
  std::vector<TopicPartition> revoked, assigned;
  RAILGUN_RETURN_IF_ERROR(GetPollResponse(in, &revoked, &assigned, out));
  out->BorrowBuffer(std::move(buffer));
  DeliverRebalance(consumer_id, revoked, assigned);
  return Status::OK();
}

Status RemoteBus::Fetch(const TopicPartition& tp, uint64_t offset,
                        size_t max_messages,
                        std::vector<Message>* out) const {
  out->clear();
  std::string payload;
  PutTopicPartition(&payload, tp);
  PutVarint64(&payload, offset);
  PutVarint64(&payload, max_messages);
  BufferRef buffer;
  Slice in;
  RAILGUN_RETURN_IF_ERROR(
      CallView(ConnFor(""), OpCode::kFetch, payload, &buffer, &in));
  MessageBatch batch;
  if (!GetColumnarMessageList(&in, &batch) || !in.empty()) {
    return Status::Corruption("malformed Fetch response");
  }
  out->reserve(batch.size());
  for (const MessageView& view : batch.views()) {
    out->push_back(view.ToMessage());
  }
  return Status::OK();
}

Status RemoteBus::Seek(const std::string& consumer_id,
                       const TopicPartition& tp, uint64_t offset) {
  std::string payload;
  PutLengthPrefixedSlice(&payload, consumer_id);
  PutTopicPartition(&payload, tp);
  PutVarint64(&payload, offset);
  return CallControl(OpCode::kSeek, payload, nullptr);
}

Status RemoteBus::Commit(const std::string& consumer_id,
                         const TopicPartition& tp, uint64_t offset) {
  std::string payload;
  PutLengthPrefixedSlice(&payload, consumer_id);
  PutTopicPartition(&payload, tp);
  PutVarint64(&payload, offset);
  return Call(ConnFor(consumer_id), OpCode::kCommit, payload, nullptr);
}

StatusOr<uint64_t> RemoteBus::EndOffset(const TopicPartition& tp) const {
  std::string payload, result;
  PutTopicPartition(&payload, tp);
  RAILGUN_RETURN_IF_ERROR(CallControl(OpCode::kEndOffset, payload, &result));
  Slice in(result);
  uint64_t offset;
  if (!GetVarint64(&in, &offset)) {
    return Status::Corruption("malformed EndOffset response");
  }
  return offset;
}

StatusOr<uint64_t> RemoteBus::BaseOffset(const TopicPartition& tp) const {
  std::string payload, result;
  PutTopicPartition(&payload, tp);
  RAILGUN_RETURN_IF_ERROR(CallControl(OpCode::kBaseOffset, payload, &result));
  Slice in(result);
  uint64_t offset;
  if (!GetVarint64(&in, &offset)) {
    return Status::Corruption("malformed BaseOffset response");
  }
  return offset;
}

Status RemoteBus::KillConsumer(const std::string& consumer_id) {
  std::string payload;
  PutLengthPrefixedSlice(&payload, consumer_id);
  return CallControl(OpCode::kKillConsumer, payload, nullptr);
}

Status RemoteBus::WakeConsumer(const std::string& consumer_id) {
  std::string payload;
  PutLengthPrefixedSlice(&payload, consumer_id);
  return CallControl(OpCode::kWakeConsumer, payload, nullptr);
}

}  // namespace railgun::msg::remote
