// Binary wire protocol of the remote message bus. One RPC = one request
// frame from client to server and one response frame back, matched by
// correlation id (the client may multiplex connections, the server
// answers in request order per connection).
//
// Frame layout (all integers little-endian / LEB128 varints from
// common/coding):
//
//   [fixed32 body_len][fixed32 masked crc32c(body)][body]
//   body = [varint64 correlation_id][u8 opcode][payload]
//
// Response frames reuse the request opcode with kResponseBit set, and
// their payload always starts with an encoded Status; RPC-specific
// result fields follow only when that status is OK. Decoders return
// Status::Corruption for truncated frames, oversized bodies, checksum
// mismatches and malformed payloads — never crash, never trust lengths.
#ifndef RAILGUN_MSG_REMOTE_WIRE_H_
#define RAILGUN_MSG_REMOTE_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "msg/batch.h"
#include "msg/bus.h"
#include "msg/buffer_pool.h"
#include "msg/message.h"
#include "msg/remote/socket.h"

namespace railgun::msg::remote {

// Frames larger than this are rejected as corrupt: nothing the bus
// exchanges legitimately approaches it, and it bounds what a broken (or
// hostile) peer can make the other side allocate.
constexpr uint32_t kMaxFrameBody = 64u << 20;

constexpr size_t kFrameHeaderSize = 8;  // body_len + masked crc.

constexpr uint8_t kResponseBit = 0x80;

// Version carried by kHello. Bump it on any incompatible change to a
// frame or payload layout: peers never negotiate formats, they either
// match or refuse each other at connect time. v2: DDL is the
// kMetaExecuteDdl RPC (v1 clients published it to a bus topic that no
// v2 server consumes). v3: kProduceBatch is the only produce request
// and the test-only RPCs are gone; the bump refuses a v2 client at
// connect instead of answering its first row produce NotSupported. v4:
// kPoll responses lose their backlog trailer and columnar message groups
// their publish/visible time columns. v5: kCommit lets a log drop what
// its consumers have read; a v4 server would answer it NotSupported.
constexpr uint32_t kProtocolVersion = 5;

// The typed error a kHello with a foreign version gets (and that
// RemoteBus surfaces from the first call on such a connection). Not a
// NotSupported: callers read that code as "feature absent".
Status ProtocolMismatch(const std::string& detail);

// Retired opcode numbers (2, 3, 5, 6, 12, 18-21) are never reused.
enum class OpCode : uint8_t {
  kCreateTopic = 1,
  kPartitionsOf = 4,
  // Columnar produce payload (PutColumnarProduceBatch), followed by
  // trace::kTraceTrailerSize checksummed trace-context bytes when the
  // producer traces the request.
  kProduceBatch = 7,
  kSubscribe = 8,
  kUnsubscribe = 9,
  // kPoll responses carry [revoked tps][assigned tps][columnar message
  // list]; see PutPollResponse. kFetch responses carry a columnar
  // message list.
  kPoll = 10,
  kFetch = 11,
  kSeek = 13,
  kEndOffset = 14,
  kBaseOffset = 15,
  kKillConsumer = 16,
  kWakeConsumer = 17,
  // [len-prefixed consumer][tp][varint64 offset] -> status only. Sent on
  // the consumer's own connection, after the polls it follows.
  kCommit = 22,

  // Connect-time version check: payload [varint32 version]. The server
  // answers OK when the version equals kProtocolVersion and the typed
  // mismatch error (ProtocolMismatch, an InvalidArgument) otherwise.
  // RemoteBus sends it once per dialled connection, before any other
  // request on that connection.
  kHello = 25,

  // Live subscriptions (src/ops/subscription.h), answered by the
  // BusServer's extension handler. Payloads are defined in
  // ops/sub_wire.h; a server hosting no subscription hub answers
  // NotSupported through the unknown-opcode fallback.
  kSubCreate = 40,
  kSubFetch = 41,
  kSubCancel = 42,

  // Metadata-service RPCs (src/meta/), answered by the BusServer's
  // extension handler rather than the hosted bus. Opcodes stay below
  // kResponseBit so the response-bit convention holds.
  kMetaAnnounce = 32,
  kMetaHeartbeat = 33,
  kMetaLeave = 34,
  kMetaGetView = 35,
  kMetaGetStream = 36,
  kMetaListStreams = 37,
  // [length-prefixed statement] -> status only. Answered once every
  // unit applied the statement, so clients send it on a keyed
  // connection (RemoteBus::CallOpcode), never the control one.
  kMetaExecuteDdl = 38,
};

struct Frame {
  uint64_t correlation_id = 0;
  uint8_t opcode = 0;
  std::string payload;
};

// Zero-copy variant: the payload is a view into storage the caller owns
// (a pooled receive buffer, or the request body an Encode produced).
struct FrameView {
  uint64_t correlation_id = 0;
  uint8_t opcode = 0;
  Slice payload;
};

// Appends the full wire encoding (header + body) of one frame.
void EncodeFrame(const Frame& frame, std::string* out);

// Parses one frame from *in, advancing past it on success.
Status DecodeFrame(Slice* in, Frame* out);

// Validates and parses a frame body whose header was already consumed
// (the socket path reads header and body separately).
Status DecodeBody(const Slice& body, uint32_t masked_crc, Frame* out);

// Reads exactly one frame off a blocking socket: header, bounds check,
// body, checksum. Unavailable for transport failures, Corruption for
// framing violations (after which the stream cannot be trusted).
Status ReadFrame(Socket* sock, Frame* out);

// Like DecodeBody but without copying the payload: *out views into
// `body`, which must stay alive while *out is used.
Status DecodeBodyView(const Slice& body, uint32_t masked_crc,
                      FrameView* out);

// Zero-copy ReadFrame: the body lands in a buffer leased from *pool and
// *out views into it. The caller keeps *buffer alive for as long as any
// view derived from *out is; dropping the last ref recycles the buffer.
Status ReadFramePooled(Socket* sock, BufferPool* pool, BufferRef* buffer,
                       FrameView* out);

// ----- Payload building blocks shared by RemoteBus and BusServer -----

void PutStatus(std::string* out, const Status& status);
bool GetStatus(Slice* in, Status* status);

void PutTopicPartition(std::string* out, const TopicPartition& tp);
bool GetTopicPartition(Slice* in, TopicPartition* tp);

void PutTopicPartitionList(std::string* out,
                           const std::vector<TopicPartition>& tps);
bool GetTopicPartitionList(Slice* in, std::vector<TopicPartition>* tps);

// ----- Columnar batch forms (kPoll / kFetch / kProduceBatch) -----
//
// A columnar message list groups consecutive messages sharing
// (topic, partition) — preserving global order — and transposes each
// group into per-column arrays:
//
//   varint32 ngroups
//   per group: [len-prefixed topic][varint32 partition][varint32 n]
//     [varint64 offset_0][(n-1) x varsint64 offset delta]
//     [n x varint32 key_len][concatenated key bytes]
//     [n x varint32 payload_len][concatenated payload bytes]
//
// Every length is validated against the remaining input before any
// array is walked; mismatched column lengths fail the decode (mapped to
// Corruption by callers), never read out of bounds.
// M is Message or MessageView (both instantiated in wire.cc).
template <typename M>
void PutColumnarMessageList(std::string* out, const std::vector<M>& messages);
// Appends zero-copy views into out (topic shared per group). Storage
// behind *in must outlive the batch's views.
bool GetColumnarMessageList(Slice* in, MessageBatch* out);

// Columnar produce payload: [len-prefixed topic][varint32 n]
//   [n x varint32 key_len][key bytes][n x varint32 payload_len][bytes].
void PutColumnarProduceBatch(std::string* out, const std::string& topic,
                             const std::vector<ProduceRecord>& records);
bool GetColumnarProduceBatch(Slice* in, std::string* topic,
                             std::vector<ProduceRecord>* records);

// kPoll response fields (after the status):
//   [revoked tps][assigned tps][columnar message list]
void PutPollResponse(std::string* out,
                     const std::vector<TopicPartition>& revoked,
                     const std::vector<TopicPartition>& assigned,
                     const std::vector<MessageView>& messages);
// Appends zero-copy message views into *messages (storage behind `in`
// must outlive them). Corruption unless the whole input parses.
Status GetPollResponse(Slice in, std::vector<TopicPartition>* revoked,
                       std::vector<TopicPartition>* assigned,
                       MessageBatch* messages);

}  // namespace railgun::msg::remote

#endif  // RAILGUN_MSG_REMOTE_WIRE_H_
