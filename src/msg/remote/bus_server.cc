#include "msg/remote/bus_server.h"

#include <utility>

#include "common/coding.h"
#include "trace/trace_context.h"

namespace railgun::msg::remote {

BusServer::BusServer(const BusServerOptions& options, Bus* bus)
    : options_(options), bus_(bus) {}

BusServer::~BusServer() { Stop(); }

Status BusServer::Start() {
  RAILGUN_ASSIGN_OR_RETURN(listener_,
                           ListenSocket::Listen(options_.host, options_.port));
  port_ = listener_.port();
  running_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void BusServer::Stop() {
  if (!running_.exchange(false)) return;
  listener_.Close();  // Unblocks the parked accept.
  std::vector<std::string> consumers;
  {
    MutexLock lock(&mu_);
    for (auto& [id, sock] : conns_) sock->ShutdownBoth();
    for (const auto& [id, buffer] : rebalances_) consumers.push_back(id);
  }
  // Unpark the server-side blocking Polls of this server's consumers so
  // their connection threads notice the shut-down sockets. The wake is
  // level-triggered, so a poll about to park returns at once too.
  for (const auto& id : consumers) (void)bus_->WakeConsumer(id);
  if (accept_thread_.joinable()) accept_thread_.join();
  MutexLock lock(&mu_);
  conns_drained_.Wait(&mu_, [this] { return live_connections_ == 0; });
}

void BusServer::AcceptLoop() {
  while (running_) {
    auto accepted = listener_.Accept();
    if (!accepted.ok()) {
      if (!running_) return;
      continue;  // Transient accept failure; keep serving.
    }
    auto sock = std::make_shared<Socket>(std::move(accepted).value());
    MutexLock lock(&mu_);
    if (!running_) return;
    const uint64_t conn_id = next_conn_id_++;
    conns_[conn_id] = sock;
    ++live_connections_;
    // Detached: each connection reaps itself on exit (long-running
    // servers see connection churn); Stop() waits for the live count
    // to drain, so no thread outlives the server.
    std::thread([this, conn_id, sock] {
      ServeConnection(conn_id, sock);
    }).detach();
  }
}

void BusServer::ServeConnection(uint64_t conn_id,
                                std::shared_ptr<Socket> sock) {
  std::string encoded;
  while (running_) {
    BufferRef buffer;
    FrameView request;
    // A framing failure (bad length or checksum) means the byte stream
    // itself can't be trusted; drop the connection rather than guess.
    // The body lands in a pooled buffer that recycles when `buffer`
    // drops at the end of the iteration — per-frame heap traffic is
    // zero once the pool is warm.
    if (!ReadFramePooled(sock.get(), &pool_, &buffer, &request).ok()) break;
    const Frame response = HandleRequest(request);
    encoded.clear();
    EncodeFrame(response, &encoded);
    if (!sock->SendAll(encoded.data(), encoded.size()).ok()) break;
  }
  sock->Close();
  MutexLock lock(&mu_);
  conns_.erase(conn_id);
  --live_connections_;
  conns_drained_.NotifyAll();
}

std::shared_ptr<BusServer::RebalanceBuffer> BusServer::BufferFor(
    const std::string& consumer_id) {
  MutexLock lock(&mu_);
  auto& buffer = rebalances_[consumer_id];
  if (buffer == nullptr) buffer = std::make_shared<RebalanceBuffer>();
  return buffer;
}

Frame BusServer::HandleRequest(const Frame& request) {
  FrameView view;
  view.correlation_id = request.correlation_id;
  view.opcode = request.opcode;
  view.payload = Slice(request.payload);
  return HandleRequest(view);
}

Frame BusServer::HandleRequest(const FrameView& request) {
  Frame response;
  response.correlation_id = request.correlation_id;
  response.opcode = request.opcode | kResponseBit;

  Slice in = request.payload;
  Status status;
  std::string result;  // RPC-specific fields, appended after the status.
  bool parsed = true;

  switch (static_cast<OpCode>(request.opcode)) {
    case OpCode::kCreateTopic: {
      Slice topic;
      uint32_t partitions;
      if ((parsed = GetLengthPrefixedSlice(&in, &topic) &&
                    GetVarint32(&in, &partitions) &&
                    partitions <= static_cast<uint32_t>(INT32_MAX))) {
        status = bus_->CreateTopic(topic.ToString(),
                                   static_cast<int>(partitions));
      }
      break;
    }
    case OpCode::kPartitionsOf: {
      Slice topic;
      if ((parsed = GetLengthPrefixedSlice(&in, &topic))) {
        PutTopicPartitionList(&result, bus_->PartitionsOf(topic.ToString()));
      }
      break;
    }
    case OpCode::kProduceBatch: {
      std::string topic;
      std::vector<ProduceRecord> records;
      if ((parsed = GetColumnarProduceBatch(&in, &topic, &records))) {
        // A tracing producer appends a trace trailer after the records;
        // make it ambient so the hosted bus's append span links. A
        // corrupt trailer degrades to an untraced produce, never an
        // error.
        const trace::ScopedTraceContext scope(trace::ParseTraceTrailer(in));
        status = bus_->ProduceBatch(topic, std::move(records));
      }
      break;
    }
    case OpCode::kSubscribe: {
      Slice consumer, group, metadata;
      uint32_t n = 0;
      std::vector<std::string> topics;
      parsed = GetLengthPrefixedSlice(&in, &consumer) &&
               GetLengthPrefixedSlice(&in, &group) && GetVarint32(&in, &n);
      for (uint32_t i = 0; parsed && i < n; ++i) {
        Slice topic;
        if ((parsed = GetLengthPrefixedSlice(&in, &topic))) {
          topics.push_back(topic.ToString());
        }
      }
      parsed = parsed && GetLengthPrefixedSlice(&in, &metadata);
      if (parsed) {
        // The buffering listener feeds rebalances into this consumer's
        // Poll responses.
        auto buffer = BufferFor(consumer.ToString());
        RebalanceListener listener;
        listener.on_revoked =
            [buffer](const std::vector<TopicPartition>& revoked) {
              MutexLock lock(&buffer->mu);
              buffer->revoked.insert(buffer->revoked.end(), revoked.begin(),
                                     revoked.end());
            };
        listener.on_assigned =
            [buffer](const std::vector<TopicPartition>& assigned) {
              MutexLock lock(&buffer->mu);
              buffer->assigned.insert(buffer->assigned.end(),
                                      assigned.begin(), assigned.end());
            };
        status = bus_->Subscribe(consumer.ToString(), group.ToString(),
                                 topics, metadata.ToString(),
                                 std::move(listener));
      }
      break;
    }
    case OpCode::kUnsubscribe: {
      Slice consumer;
      if ((parsed = GetLengthPrefixedSlice(&in, &consumer))) {
        status = bus_->Unsubscribe(consumer.ToString());
        MutexLock lock(&mu_);
        rebalances_.erase(consumer.ToString());
      }
      break;
    }
    case OpCode::kPoll: {
      Slice consumer;
      uint64_t max_messages;
      int64_t max_wait;
      if ((parsed = GetLengthPrefixedSlice(&in, &consumer) &&
                    GetVarint64(&in, &max_messages) &&
                    GetVarsint64(&in, &max_wait))) {
        // Registered before parking, so Stop() can wake this poll.
        auto buffer = BufferFor(consumer.ToString());
        MessageBatch batch;
        status = bus_->PollBatch(consumer.ToString(),
                                 static_cast<size_t>(max_messages), &batch,
                                 max_wait);
        if (status.ok()) {
          std::vector<TopicPartition> revoked, assigned;
          {
            MutexLock lock(&buffer->mu);
            revoked.swap(buffer->revoked);
            assigned.swap(buffer->assigned);
          }
          PutPollResponse(&result, revoked, assigned, batch.views());
        }
      }
      break;
    }
    case OpCode::kFetch: {
      TopicPartition tp;
      uint64_t offset, max_messages;
      if ((parsed = GetTopicPartition(&in, &tp) &&
                    GetVarint64(&in, &offset) &&
                    GetVarint64(&in, &max_messages))) {
        std::vector<Message> messages;
        status = bus_->Fetch(tp, offset, static_cast<size_t>(max_messages),
                             &messages);
        if (status.ok()) PutColumnarMessageList(&result, messages);
      }
      break;
    }
    case OpCode::kSeek:
    case OpCode::kCommit: {
      Slice consumer;
      TopicPartition tp;
      uint64_t offset;
      if ((parsed = GetLengthPrefixedSlice(&in, &consumer) &&
                    GetTopicPartition(&in, &tp) &&
                    GetVarint64(&in, &offset))) {
        status = static_cast<OpCode>(request.opcode) == OpCode::kSeek
                     ? bus_->Seek(consumer.ToString(), tp, offset)
                     : bus_->Commit(consumer.ToString(), tp, offset);
      }
      break;
    }
    case OpCode::kEndOffset:
    case OpCode::kBaseOffset: {
      TopicPartition tp;
      if ((parsed = GetTopicPartition(&in, &tp))) {
        auto offset = static_cast<OpCode>(request.opcode) == OpCode::kEndOffset
                          ? bus_->EndOffset(tp)
                          : bus_->BaseOffset(tp);
        status = offset.status();
        if (offset.ok()) PutVarint64(&result, offset.value());
      }
      break;
    }
    case OpCode::kKillConsumer: {
      Slice consumer;
      if ((parsed = GetLengthPrefixedSlice(&in, &consumer))) {
        status = bus_->KillConsumer(consumer.ToString());
      }
      break;
    }
    case OpCode::kWakeConsumer: {
      Slice consumer;
      if ((parsed = GetLengthPrefixedSlice(&in, &consumer))) {
        status = bus_->WakeConsumer(consumer.ToString());
      }
      break;
    }
    case OpCode::kHello: {
      uint32_t version;
      if ((parsed = GetVarint32(&in, &version)) &&
          version != kProtocolVersion) {
        status = ProtocolMismatch(
            "server speaks v" + std::to_string(kProtocolVersion) +
            ", client sent v" + std::to_string(version));
      }
      break;
    }
    default:
      if (extension_ == nullptr ||
          !extension_(request.opcode, in, &status, &result)) {
        // The frame passed CRC and framing, so this is a protocol
        // mismatch (e.g. a newer client's RPC), not line corruption.
        status = Status::NotSupported("unknown opcode " +
                                      std::to_string(request.opcode));
      }
      break;
  }
  if (!parsed) status = Status::Corruption("malformed request payload");

  PutStatus(&response.payload, status);
  if (status.ok()) response.payload.append(result);
  return response;
}

}  // namespace railgun::msg::remote
