#include "msg/remote/wire.h"

#include "common/coding.h"
#include "common/crc32c.h"

namespace railgun::msg::remote {

void EncodeFrame(const Frame& frame, std::string* out) {
  std::string body;
  PutVarint64(&body, frame.correlation_id);
  body.push_back(static_cast<char>(frame.opcode));
  body.append(frame.payload);

  PutFixed32(out, static_cast<uint32_t>(body.size()));
  PutFixed32(out, crc32c::Mask(crc32c::Value(body.data(), body.size())));
  out->append(body);
}

Status DecodeBody(const Slice& body, uint32_t masked_crc, Frame* out) {
  const uint32_t expected = crc32c::Unmask(masked_crc);
  if (crc32c::Value(body.data(), body.size()) != expected) {
    return Status::Corruption("frame checksum mismatch");
  }
  Slice in = body;
  if (!GetVarint64(&in, &out->correlation_id) || in.empty()) {
    return Status::Corruption("truncated frame body");
  }
  out->opcode = static_cast<uint8_t>(in[0]);
  in.remove_prefix(1);
  out->payload.assign(in.data(), in.size());
  return Status::OK();
}

Status ReadFrame(Socket* sock, Frame* out) {
  char header[kFrameHeaderSize];
  RAILGUN_RETURN_IF_ERROR(sock->RecvAll(header, sizeof(header)));
  const uint32_t body_len = DecodeFixed32(header);
  const uint32_t masked_crc = DecodeFixed32(header + 4);
  if (body_len > kMaxFrameBody) {
    return Status::Corruption("oversized frame body");
  }
  std::string body(body_len, '\0');
  RAILGUN_RETURN_IF_ERROR(sock->RecvAll(body.data(), body.size()));
  return DecodeBody(Slice(body), masked_crc, out);
}

Status DecodeBodyView(const Slice& body, uint32_t masked_crc,
                      FrameView* out) {
  const uint32_t expected = crc32c::Unmask(masked_crc);
  if (crc32c::Value(body.data(), body.size()) != expected) {
    return Status::Corruption("frame checksum mismatch");
  }
  Slice in = body;
  if (!GetVarint64(&in, &out->correlation_id) || in.empty()) {
    return Status::Corruption("truncated frame body");
  }
  out->opcode = static_cast<uint8_t>(in[0]);
  in.remove_prefix(1);
  out->payload = in;
  return Status::OK();
}

Status ReadFramePooled(Socket* sock, BufferPool* pool, BufferRef* buffer,
                       FrameView* out) {
  char header[kFrameHeaderSize];
  RAILGUN_RETURN_IF_ERROR(sock->RecvAll(header, sizeof(header)));
  const uint32_t body_len = DecodeFixed32(header);
  const uint32_t masked_crc = DecodeFixed32(header + 4);
  if (body_len > kMaxFrameBody) {
    return Status::Corruption("oversized frame body");
  }
  *buffer = pool->Acquire(body_len);
  RAILGUN_RETURN_IF_ERROR(sock->RecvAll((*buffer)->data(), body_len));
  return DecodeBodyView((*buffer)->slice(), masked_crc, out);
}

Status DecodeFrame(Slice* in, Frame* out) {
  if (in->size() < kFrameHeaderSize) {
    return Status::Corruption("truncated frame header");
  }
  uint32_t body_len, masked_crc;
  GetFixed32(in, &body_len);
  GetFixed32(in, &masked_crc);
  if (body_len > kMaxFrameBody) {
    return Status::Corruption("oversized frame body");
  }
  if (in->size() < body_len) {
    return Status::Corruption("truncated frame body");
  }
  const Slice body(in->data(), body_len);
  in->remove_prefix(body_len);
  return DecodeBody(body, masked_crc, out);
}

Status ProtocolMismatch(const std::string& detail) {
  return Status::InvalidArgument("protocol version mismatch: " + detail);
}

void PutStatus(std::string* out, const Status& status) {
  PutVarint32(out, static_cast<uint32_t>(status.code()));
  PutLengthPrefixedSlice(out, status.message());
}

bool GetStatus(Slice* in, Status* status) {
  uint32_t code;
  Slice message;
  if (!GetVarint32(in, &code) || !GetLengthPrefixedSlice(in, &message)) {
    return false;
  }
  if (code > static_cast<uint32_t>(StatusCode::kUnavailable)) return false;
  *status = Status(static_cast<StatusCode>(code), message.ToString());
  return true;
}

void PutTopicPartition(std::string* out, const TopicPartition& tp) {
  PutLengthPrefixedSlice(out, tp.topic);
  PutVarint32(out, static_cast<uint32_t>(tp.partition));
}

bool GetTopicPartition(Slice* in, TopicPartition* tp) {
  Slice topic;
  uint32_t partition;
  if (!GetLengthPrefixedSlice(in, &topic) || !GetVarint32(in, &partition) ||
      partition > static_cast<uint32_t>(INT32_MAX)) {
    return false;
  }
  tp->topic = topic.ToString();
  tp->partition = static_cast<int>(partition);
  return true;
}

void PutTopicPartitionList(std::string* out,
                           const std::vector<TopicPartition>& tps) {
  PutVarint32(out, static_cast<uint32_t>(tps.size()));
  for (const auto& tp : tps) PutTopicPartition(out, tp);
}

bool GetTopicPartitionList(Slice* in, std::vector<TopicPartition>* tps) {
  uint32_t n;
  if (!GetVarint32(in, &n)) return false;
  tps->clear();
  for (uint32_t i = 0; i < n; ++i) {
    TopicPartition tp;
    if (!GetTopicPartition(in, &tp)) return false;
    tps->push_back(std::move(tp));
  }
  return true;
}

namespace {

// Reads n varint32 column lengths, then carves the concatenated bytes
// region that follows into *columns. Fails (without reading past the
// input) when the lengths overrun what's left — the column-length
// mismatch case of the fuzz suite.
bool GetByteColumn(Slice* in, uint32_t n, std::vector<Slice>* columns) {
  columns->clear();
  columns->reserve(n);
  size_t total = 0;
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t len;
    if (!GetVarint32(in, &len)) return false;
    if (len > in->size()) return false;
    total += len;
    if (total > in->size()) return false;
    columns->push_back(Slice(nullptr, len));  // Length now, data below.
  }
  if (total > in->size()) return false;
  const char* base = in->data();
  for (uint32_t i = 0; i < n; ++i) {
    const size_t len = (*columns)[i].size();
    (*columns)[i] = Slice(base, len);
    base += len;
  }
  in->remove_prefix(total);
  return true;
}

}  // namespace

template <typename M>
void PutColumnarMessageList(std::string* out, const std::vector<M>& messages) {
  // Count runs of consecutive (topic, partition).
  uint32_t ngroups = 0;
  for (size_t i = 0; i < messages.size(); ++i) {
    if (i == 0 || messages[i].topic != messages[i - 1].topic ||
        messages[i].partition != messages[i - 1].partition) {
      ++ngroups;
    }
  }
  PutVarint32(out, ngroups);
  size_t start = 0;
  while (start < messages.size()) {
    size_t end = start + 1;
    while (end < messages.size() &&
           messages[end].topic == messages[start].topic &&
           messages[end].partition == messages[start].partition) {
      ++end;
    }
    const uint32_t n = static_cast<uint32_t>(end - start);
    PutLengthPrefixedSlice(out, messages[start].topic);
    PutVarint32(out, static_cast<uint32_t>(messages[start].partition));
    PutVarint32(out, n);
    PutVarint64(out, messages[start].offset);
    for (size_t i = start + 1; i < end; ++i) {
      PutVarsint64(out, static_cast<int64_t>(messages[i].offset) -
                            static_cast<int64_t>(messages[i - 1].offset));
    }
    for (size_t i = start; i < end; ++i) {
      PutVarint32(out, static_cast<uint32_t>(messages[i].key.size()));
    }
    for (size_t i = start; i < end; ++i) {
      out->append(messages[i].key.data(), messages[i].key.size());
    }
    for (size_t i = start; i < end; ++i) {
      PutVarint32(out, static_cast<uint32_t>(messages[i].payload.size()));
    }
    for (size_t i = start; i < end; ++i) {
      out->append(messages[i].payload.data(), messages[i].payload.size());
    }
    start = end;
  }
}

template void PutColumnarMessageList(std::string*,
                                     const std::vector<Message>&);
template void PutColumnarMessageList(std::string*,
                                     const std::vector<MessageView>&);

bool GetColumnarMessageList(Slice* in, MessageBatch* out) {
  uint32_t ngroups;
  if (!GetVarint32(in, &ngroups)) return false;
  // Each group needs at least a topic length byte, partition, count and
  // one message; bound ngroups by what could possibly fit.
  if (ngroups > in->size()) return false;
  std::vector<MessageView>* views = out->mutable_views();
  std::vector<Slice> keys, payloads;
  for (uint32_t g = 0; g < ngroups; ++g) {
    Slice topic;
    uint32_t partition, n;
    if (!GetLengthPrefixedSlice(in, &topic) || !GetVarint32(in, &partition) ||
        partition > static_cast<uint32_t>(INT32_MAX) ||
        !GetVarint32(in, &n) || n == 0 || n > in->size()) {
      return false;
    }
    uint64_t offset;
    if (!GetVarint64(in, &offset)) return false;
    std::vector<MessageView> group(n);
    group[0].offset = offset;
    for (uint32_t i = 1; i < n; ++i) {
      int64_t delta;
      if (!GetVarsint64(in, &delta)) return false;
      offset = static_cast<uint64_t>(static_cast<int64_t>(offset) + delta);
      group[i].offset = offset;
    }
    if (!GetByteColumn(in, n, &keys)) return false;
    if (!GetByteColumn(in, n, &payloads)) return false;
    views->reserve(views->size() + n);
    for (uint32_t i = 0; i < n; ++i) {
      group[i].topic = topic;
      group[i].partition = static_cast<int>(partition);
      group[i].key = keys[i];
      group[i].payload = payloads[i];
      views->push_back(group[i]);
    }
  }
  return true;
}

void PutColumnarProduceBatch(std::string* out, const std::string& topic,
                             const std::vector<ProduceRecord>& records) {
  PutLengthPrefixedSlice(out, topic);
  PutVarint32(out, static_cast<uint32_t>(records.size()));
  for (const auto& record : records) {
    PutVarint32(out, static_cast<uint32_t>(record.key.size()));
  }
  for (const auto& record : records) out->append(record.key);
  for (const auto& record : records) {
    PutVarint32(out, static_cast<uint32_t>(record.payload.size()));
  }
  for (const auto& record : records) out->append(record.payload);
}

bool GetColumnarProduceBatch(Slice* in, std::string* topic,
                             std::vector<ProduceRecord>* records) {
  Slice topic_slice;
  uint32_t n;
  if (!GetLengthPrefixedSlice(in, &topic_slice) || !GetVarint32(in, &n) ||
      n > in->size()) {
    return false;
  }
  *topic = topic_slice.ToString();
  std::vector<Slice> keys, payloads;
  if (!GetByteColumn(in, n, &keys)) return false;
  if (!GetByteColumn(in, n, &payloads)) return false;
  records->clear();
  records->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    ProduceRecord record;
    record.key = keys[i].ToString();
    record.payload = payloads[i].ToString();
    records->push_back(std::move(record));
  }
  return true;
}

void PutPollResponse(std::string* out,
                     const std::vector<TopicPartition>& revoked,
                     const std::vector<TopicPartition>& assigned,
                     const std::vector<MessageView>& messages) {
  PutTopicPartitionList(out, revoked);
  PutTopicPartitionList(out, assigned);
  PutColumnarMessageList(out, messages);
}

Status GetPollResponse(Slice in, std::vector<TopicPartition>* revoked,
                       std::vector<TopicPartition>* assigned,
                       MessageBatch* messages) {
  if (!GetTopicPartitionList(&in, revoked) ||
      !GetTopicPartitionList(&in, assigned) ||
      !GetColumnarMessageList(&in, messages) || !in.empty()) {
    messages->Clear();
    return Status::Corruption("malformed Poll response");
  }
  return Status::OK();
}

}  // namespace railgun::msg::remote
