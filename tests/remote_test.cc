// Tests for the remote transport: wire-protocol robustness (truncated
// frames and flipped bits must yield Status::Corruption, unknown
// opcodes a typed NotSupported response, never a crash), the kHello
// version check (a foreign version gets the typed mismatch error, and
// RemoteBus surfaces it from the first call), RemoteBus <-> BusServer
// behavior over a loopback socket (produce/poll, blocking poll
// wake-on-arrival, rebalance callback streaming), the full remote
// api::Client quickstart flow (a parked subscription fetch never
// stalls submits; DDL on a server without a metadata service fails
// fast and typed), and kill-the-server failure handling.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <functional>
#include <set>
#include <thread>

#include "api/client.h"
#include "common/clock.h"
#include "common/coding.h"
#include "engine/cluster.h"
#include "meta/broker.h"
#include "commit_contract.h"
#include "msg/broker.h"
#include "msg/remote/bus_server.h"
#include "msg/remote/remote_bus.h"
#include "msg/remote/socket.h"
#include "msg/remote/wire.h"
#include "ops/sub_wire.h"
#include "produce_util.h"
#include "trace/trace_context.h"
#include "trace/tracer.h"

namespace railgun::msg::remote {
namespace {

// PollBatch, copied out into owned messages so assertions can hold on
// to them across polls.
Status PollMessages(Bus* bus, const std::string& consumer_id,
                    size_t max_messages, std::vector<Message>* out,
                    Micros max_wait = 0) {
  MessageBatch batch;
  const Status status =
      bus->PollBatch(consumer_id, max_messages, &batch, max_wait);
  out->clear();
  for (const MessageView& view : batch.views()) {
    out->push_back(view.ToMessage());
  }
  return status;
}

Frame SampleFrame() {
  Frame frame;
  frame.correlation_id = 0x12345;
  frame.opcode = static_cast<uint8_t>(OpCode::kProduceBatch);
  PutColumnarProduceBatch(&frame.payload, "topic", {{"key", "payload-bytes"}});
  return frame;
}

TEST(WireTest, FrameRoundTrip) {
  const Frame frame = SampleFrame();
  std::string wire;
  EncodeFrame(frame, &wire);

  Slice in(wire);
  Frame decoded;
  ASSERT_TRUE(DecodeFrame(&in, &decoded).ok());
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(decoded.correlation_id, frame.correlation_id);
  EXPECT_EQ(decoded.opcode, frame.opcode);
  EXPECT_EQ(decoded.payload, frame.payload);
}

TEST(WireTest, EveryTruncationIsCorruptionNeverACrash) {
  std::string wire;
  EncodeFrame(SampleFrame(), &wire);
  for (size_t len = 0; len < wire.size(); ++len) {
    const std::string prefix = wire.substr(0, len);
    Slice in(prefix);
    Frame decoded;
    const Status status = DecodeFrame(&in, &decoded);
    EXPECT_TRUE(status.IsCorruption()) << "prefix length " << len;
  }
}

TEST(WireTest, EveryBitFlipFailsTheChecksum) {
  std::string wire;
  EncodeFrame(SampleFrame(), &wire);
  // Flip one bit per byte across the whole frame. Header corruptions
  // may surface as bad lengths; body corruptions must fail the CRC.
  for (size_t i = 0; i < wire.size(); ++i) {
    std::string mutated = wire;
    mutated[i] = static_cast<char>(mutated[i] ^ (1 << (i % 8)));
    Slice in(mutated);
    Frame decoded;
    const Status status = DecodeFrame(&in, &decoded);
    EXPECT_TRUE(status.IsCorruption()) << "byte " << i;
  }
}

TEST(WireTest, OversizedBodyLengthRejectedWithoutAllocating) {
  std::string wire;
  PutFixed32(&wire, kMaxFrameBody + 1);
  PutFixed32(&wire, 0);
  wire.append(16, 'x');
  Slice in(wire);
  Frame decoded;
  EXPECT_TRUE(DecodeFrame(&in, &decoded).IsCorruption());
}

std::vector<Message> SampleColumnarMessages() {
  // Three (topic, partition) runs with an interleaving that returns to
  // an earlier pair, so grouping must preserve global order rather than
  // coalesce by key.
  std::vector<Message> messages;
  const int partitions[] = {0, 0, 1, 0};
  const char* topics[] = {"alpha", "alpha", "beta", "alpha"};
  for (int i = 0; i < 4; ++i) {
    Message m;
    m.topic = topics[i];
    m.partition = partitions[i];
    m.offset = static_cast<uint64_t>(1000 + i * 3);
    m.key = i == 2 ? "" : "key" + std::to_string(i);
    m.payload = std::string(static_cast<size_t>(i) * 11, 'p');
    messages.push_back(std::move(m));
  }
  return messages;
}

TEST(WireTest, ColumnarMessageListRoundTripPreservesOrder) {
  const std::vector<Message> messages = SampleColumnarMessages();
  std::string encoded;
  PutColumnarMessageList(&encoded, messages);

  Slice in(encoded);
  MessageBatch batch;
  ASSERT_TRUE(GetColumnarMessageList(&in, &batch));
  EXPECT_TRUE(in.empty());
  ASSERT_EQ(batch.size(), messages.size());
  for (size_t i = 0; i < messages.size(); ++i) {
    const MessageView& v = batch[i];
    EXPECT_EQ(v.topic.ToString(), messages[i].topic) << i;
    EXPECT_EQ(v.partition, messages[i].partition) << i;
    EXPECT_EQ(v.offset, messages[i].offset) << i;
    EXPECT_EQ(v.key.ToString(), messages[i].key) << i;
    EXPECT_EQ(v.payload.ToString(), messages[i].payload) << i;
  }
}

TEST(WireTest, ColumnarEveryTruncationFailsTheDecode) {
  std::string encoded;
  PutColumnarMessageList(&encoded, SampleColumnarMessages());
  for (size_t len = 0; len < encoded.size(); ++len) {
    const std::string prefix = encoded.substr(0, len);
    Slice in(prefix);
    MessageBatch batch;
    EXPECT_FALSE(GetColumnarMessageList(&in, &batch))
        << "prefix length " << len;
  }
}

TEST(WireTest, ColumnarBitFlipsNeverEscapeTheBuffer) {
  // No CRC protects this layer (the frame's does); a flipped bit may
  // still decode, but every resulting view must stay inside the input
  // buffer — ASan turns any escape into a hard failure.
  std::string encoded;
  PutColumnarMessageList(&encoded, SampleColumnarMessages());
  for (size_t i = 0; i < encoded.size(); ++i) {
    std::string mutated = encoded;
    mutated[i] = static_cast<char>(mutated[i] ^ (1 << (i % 8)));
    Slice in(mutated);
    MessageBatch batch;
    if (!GetColumnarMessageList(&in, &batch)) continue;
    const char* base = mutated.data();
    const char* end = base + mutated.size();
    for (const MessageView& v : batch.views()) {
      for (const Slice& s : {v.topic, v.key, v.payload}) {
        if (s.empty()) continue;
        EXPECT_GE(s.data(), base) << "byte " << i;
        EXPECT_LE(s.data() + s.size(), end) << "byte " << i;
      }
    }
  }
}

TEST(WireTest, ColumnarColumnLengthMismatchIsRejected) {
  // Hand-crafted group claiming a key column that overruns the input:
  // the length pre-validation must fail the decode before any read.
  std::string enc;
  PutVarint32(&enc, 1);  // ngroups
  PutLengthPrefixedSlice(&enc, "t");
  PutVarint32(&enc, 0);  // partition
  PutVarint32(&enc, 2);  // n
  PutVarint64(&enc, 100);
  PutVarsint64(&enc, 1);  // offsets
  PutVarint32(&enc, 3);
  PutVarint32(&enc, 1u << 30);  // key lens: second overruns everything.
  enc.append("abcdefgh");
  Slice in(enc);
  MessageBatch batch;
  EXPECT_FALSE(GetColumnarMessageList(&in, &batch));
}

TEST(WireTest, ColumnarHugeRowCountRejectedWithoutAllocating) {
  std::string enc;
  PutVarint32(&enc, 1);  // ngroups
  PutLengthPrefixedSlice(&enc, "t");
  PutVarint32(&enc, 0);           // partition
  PutVarint32(&enc, 0x7fffffff);  // n: absurd for a 20-byte input.
  enc.append(8, 'x');
  Slice in(enc);
  MessageBatch batch;
  EXPECT_FALSE(GetColumnarMessageList(&in, &batch));
}

TEST(WireTest, ColumnarProduceBatchRoundTrip) {
  std::vector<ProduceRecord> records;
  records.push_back({"k1", "payload-one"});
  records.push_back({"", std::string(300, 'z')});
  records.push_back({"k3", ""});
  std::string enc;
  PutColumnarProduceBatch(&enc, "events", records);

  Slice in(enc);
  std::string topic;
  std::vector<ProduceRecord> decoded;
  ASSERT_TRUE(GetColumnarProduceBatch(&in, &topic, &decoded));
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(topic, "events");
  ASSERT_EQ(decoded.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(decoded[i].key, records[i].key);
    EXPECT_EQ(decoded[i].payload, records[i].payload);
  }

  for (size_t len = 0; len + 1 < enc.size(); ++len) {
    const std::string prefix = enc.substr(0, len);
    Slice trunc(prefix);
    std::string t;
    std::vector<ProduceRecord> r;
    EXPECT_FALSE(GetColumnarProduceBatch(&trunc, &t, &r)) << len;
  }

  // A flipped bit may still decode (no CRC at this layer); it must never
  // read past the input or conjure more records than bytes.
  for (size_t i = 0; i < enc.size(); ++i) {
    std::string mutated = enc;
    mutated[i] = static_cast<char>(mutated[i] ^ (1 << (i % 8)));
    Slice flipped(mutated);
    std::string t;
    std::vector<ProduceRecord> r;
    if (GetColumnarProduceBatch(&flipped, &t, &r)) {
      EXPECT_LE(r.size(), mutated.size()) << "byte " << i;
    }
  }
}

// A full kPoll response: every field present and non-empty.
std::string SamplePollResponse() {
  const std::vector<TopicPartition> revoked = {{"alpha", 3}};
  const std::vector<TopicPartition> assigned = {{"alpha", 0}, {"beta", 1}};
  MessageBatch messages;
  messages.Adopt(SampleColumnarMessages());
  std::string encoded;
  PutPollResponse(&encoded, revoked, assigned, messages.views());
  return encoded;
}

TEST(WireTest, PollResponseRoundTrip) {
  const std::string encoded = SamplePollResponse();
  std::vector<TopicPartition> revoked, assigned;
  MessageBatch batch;
  ASSERT_TRUE(
      GetPollResponse(Slice(encoded), &revoked, &assigned, &batch).ok());
  ASSERT_EQ(revoked.size(), 1u);
  EXPECT_EQ(revoked[0].partition, 3);
  ASSERT_EQ(assigned.size(), 2u);
  EXPECT_EQ(assigned[1].topic, "beta");
  const std::vector<Message> messages = SampleColumnarMessages();
  ASSERT_EQ(batch.size(), messages.size());
  for (size_t i = 0; i < messages.size(); ++i) {
    EXPECT_EQ(batch[i].offset, messages[i].offset) << i;
    EXPECT_EQ(batch[i].payload.ToString(), messages[i].payload) << i;
  }
}

TEST(WireTest, EveryPollResponseTruncationIsCorruption) {
  // The message list ends the response: cutting anywhere — down to
  // dropping just the last payload byte — fails the decode with a typed
  // status.
  const std::string encoded = SamplePollResponse();
  for (size_t len = 0; len < encoded.size(); ++len) {
    const std::string prefix = encoded.substr(0, len);
    std::vector<TopicPartition> revoked, assigned;
    MessageBatch batch;
    const Status status =
        GetPollResponse(Slice(prefix), &revoked, &assigned, &batch);
    EXPECT_TRUE(status.IsCorruption()) << "prefix length " << len;
    EXPECT_TRUE(batch.empty()) << "prefix length " << len;
  }
}

TEST(WireTest, PollResponseBitFlipsNeverEscapeTheBuffer) {
  const std::string encoded = SamplePollResponse();
  for (size_t i = 0; i < encoded.size(); ++i) {
    std::string mutated = encoded;
    mutated[i] = static_cast<char>(mutated[i] ^ (1 << (i % 8)));
    std::vector<TopicPartition> revoked, assigned;
    MessageBatch batch;
    const Status status =
        GetPollResponse(Slice(mutated), &revoked, &assigned, &batch);
    if (!status.ok()) {
      EXPECT_TRUE(status.IsCorruption()) << "byte " << i;
      continue;
    }
    const char* base = mutated.data();
    const char* end = base + mutated.size();
    for (const MessageView& v : batch.views()) {
      for (const Slice& s : {v.topic, v.key, v.payload}) {
        if (s.empty()) continue;
        EXPECT_GE(s.data(), base) << "byte " << i;
        EXPECT_LE(s.data() + s.size(), end) << "byte " << i;
      }
    }
  }
}

TEST(BufferPoolTest, RecyclesBuffersAfterWarmup) {
  BufferPool pool(/*max_idle=*/2);
  {
    BufferRef a = pool.Acquire(128);
    memset(a->data(), 7, a->size());
    EXPECT_GE(a->size(), 128u);
  }
  EXPECT_EQ(pool.misses(), 1u);
  const uint64_t warm_misses = pool.misses();
  for (int i = 0; i < 10; ++i) {
    BufferRef b = pool.Acquire(64);  // Fits the recycled block.
    EXPECT_GE(b->size(), 64u);
  }
  EXPECT_EQ(pool.misses(), warm_misses);  // Steady state: all hits.
  EXPECT_EQ(pool.hits(), 10u);
  EXPECT_GE(pool.bytes(), 128u + 10u * 64u);
}

TEST(BufferPoolTest, OutstandingBuffersSurviveThePool) {
  BufferRef survivor;
  {
    BufferPool pool(2);
    survivor = pool.Acquire(32);
    memset(survivor->data(), 1, survivor->size());
  }
  // The pool is gone; releasing the last ref must free, not return to a
  // destroyed free list.
  memset(survivor->data(), 2, survivor->size());
  survivor.reset();
}

TEST(BusServerTest, UnknownOpcodeReturnsNotSupportedResponse) {
  BusOptions options;
  options.delivery_delay = 0;
  InProcessBus bus(options);
  BusServer server(BusServerOptions{}, &bus);

  // 99 was never an OpCode; the rest are the nine v2 bus opcodes that
  // v3 retired (the row produces, commit, the whole-bus wake and the
  // test-only RPCs), each sent with a payload shaped like a request.
  for (const uint8_t opcode : {99, 2, 3, 5, 6, 12, 18, 19, 20, 21}) {
    Frame request;
    request.correlation_id = 7;
    request.opcode = opcode;
    PutLengthPrefixedSlice(&request.payload, "t");
    const Frame response = server.HandleRequest(request);
    EXPECT_EQ(response.correlation_id, 7u);
    EXPECT_EQ(response.opcode, opcode | kResponseBit);
    Slice in(response.payload);
    Status remote;
    ASSERT_TRUE(GetStatus(&in, &remote));
    // A CRC-valid frame with an unimplemented opcode is a typed protocol
    // mismatch (api::Client::EnsureStream relies on this to distinguish
    // "broker has no metadata service" from wire corruption).
    EXPECT_TRUE(remote.IsNotSupported())
        << "opcode " << int{opcode} << ": " << remote.ToString();
  }
}

Frame HelloFrame(uint32_t version) {
  Frame frame;
  frame.correlation_id = 1;
  frame.opcode = static_cast<uint8_t>(OpCode::kHello);
  PutVarint32(&frame.payload, version);
  return frame;
}

TEST(BusServerTest, HelloWithAForeignVersionGetsTheTypedMismatch) {
  BusOptions options;
  options.delivery_delay = 0;
  InProcessBus bus(options);
  BusServer server(BusServerOptions{}, &bus);
  ASSERT_TRUE(server.Start().ok());

  // Raw socket, no RemoteBus: exactly the bytes a foreign peer sends.
  auto sock_or = Socket::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(sock_or.ok());
  Socket sock = std::move(sock_or).value();
  // kProtocolVersion - 1 is v4, whose servers do not know kCommit.
  ASSERT_EQ(kProtocolVersion, 5u);
  for (const uint32_t version :
       {kProtocolVersion + 1, kProtocolVersion - 1, kProtocolVersion}) {
    std::string wire;
    EncodeFrame(HelloFrame(version), &wire);
    ASSERT_TRUE(sock.SendAll(wire.data(), wire.size()).ok());
    Frame response;
    ASSERT_TRUE(ReadFrame(&sock, &response).ok());
    EXPECT_EQ(response.opcode,
              static_cast<uint8_t>(OpCode::kHello) | kResponseBit);
    Slice in(response.payload);
    Status answered;
    ASSERT_TRUE(GetStatus(&in, &answered));
    if (version == kProtocolVersion) {
      EXPECT_TRUE(answered.ok()) << answered.ToString();
    } else {
      EXPECT_TRUE(answered.IsInvalidArgument()) << answered.ToString();
      EXPECT_NE(answered.ToString().find("protocol version mismatch"),
                std::string::npos)
          << answered.ToString();
    }
  }
  sock.Close();
  server.Stop();
}

// A one-connection peer that answers every request with `answer` — the
// shape of a server at another protocol version.
class FakePeer {
 public:
  explicit FakePeer(std::function<Frame(const Frame&)> answer)
      : answer_(std::move(answer)) {
    listener_ = std::move(ListenSocket::Listen("127.0.0.1", 0)).value();
    thread_ = std::thread([this] {
      auto accepted = listener_.Accept();
      if (!accepted.ok()) return;
      Socket sock = std::move(accepted).value();
      Frame request;
      while (ReadFrame(&sock, &request).ok()) {
        std::string wire;
        EncodeFrame(answer_(request), &wire);
        if (!sock.SendAll(wire.data(), wire.size()).ok()) break;
      }
    });
  }
  ~FakePeer() {
    listener_.Close();
    thread_.join();
  }
  std::string address() const {
    return "127.0.0.1:" + std::to_string(listener_.port());
  }

 private:
  std::function<Frame(const Frame&)> answer_;
  ListenSocket listener_;
  std::thread thread_;
};

TEST(RemoteBusHelloTest, MismatchedServerSurfacesTheTypedErrorOnFirstCall) {
  // The peer runs a real BusServer's request handler but speaks
  // another version: it rewrites the client's hello to what a server
  // at kProtocolVersion would receive from a client one version ahead.
  BusOptions options;
  options.delivery_delay = 0;
  InProcessBus bus(options);
  BusServer handler(BusServerOptions{}, &bus);
  FakePeer peer([&handler](const Frame& request) {
    Frame rewritten = request;
    if (request.opcode == static_cast<uint8_t>(OpCode::kHello)) {
      rewritten.payload.clear();
      PutVarint32(&rewritten.payload, kProtocolVersion + 1);
    }
    return handler.HandleRequest(rewritten);
  });

  RemoteBusOptions remote_options;
  remote_options.address = peer.address();
  RemoteBus remote(remote_options);
  // The first call is the one that dials: it must carry the mismatch,
  // not a NotSupported (callers read that as "feature absent") and not
  // a generic Unavailable.
  const Status first = remote.CreateTopic("t", 1);
  EXPECT_TRUE(first.IsInvalidArgument()) << first.ToString();
  EXPECT_NE(first.ToString().find("protocol version mismatch"),
            std::string::npos)
      << first.ToString();
  // Later calls inside the reconnect backoff keep reporting it.
  const Status second = remote.CreateTopic("t", 1);
  EXPECT_TRUE(second.IsInvalidArgument()) << second.ToString();
  EXPECT_TRUE(bus.PartitionsOf("t").empty());
}

TEST(RemoteBusHelloTest, ServerPredatingHelloIsAMismatchNotNotSupported) {
  // A peer without kHello answers it through its unknown-opcode
  // fallback. RemoteBus must not pass that NotSupported through.
  FakePeer peer([](const Frame& request) {
    Frame response;
    response.correlation_id = request.correlation_id;
    response.opcode = request.opcode | kResponseBit;
    PutStatus(&response.payload,
              Status::NotSupported("unknown opcode " +
                                   std::to_string(request.opcode)));
    return response;
  });
  RemoteBusOptions remote_options;
  remote_options.address = peer.address();
  RemoteBus remote(remote_options);
  const Status connected = remote.Connect();
  EXPECT_TRUE(connected.IsInvalidArgument()) << connected.ToString();
  EXPECT_FALSE(connected.IsNotSupported());
}

TEST(BusServerTest, MalformedPayloadReturnsCorruptionResponse) {
  BusOptions options;
  options.delivery_delay = 0;
  InProcessBus bus(options);
  BusServer server(BusServerOptions{}, &bus);

  Frame request;
  request.correlation_id = 8;
  request.opcode = static_cast<uint8_t>(OpCode::kCreateTopic);
  request.payload = "\xff\xff\xff";  // Not a length-prefixed topic.
  const Frame response = server.HandleRequest(request);
  Slice in(response.payload);
  Status remote;
  ASSERT_TRUE(GetStatus(&in, &remote));
  EXPECT_TRUE(remote.IsCorruption());
}

TEST(BusServerTest, GarbageBytesOverTheSocketCloseTheConnection) {
  BusOptions options;
  options.delivery_delay = 0;
  InProcessBus bus(options);
  BusServer server(BusServerOptions{}, &bus);
  ASSERT_TRUE(server.Start().ok());

  auto sock_or = Socket::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(sock_or.ok());
  Socket sock = std::move(sock_or).value();
  // A valid-looking header whose body fails the checksum: the server
  // must drop the connection (it cannot trust the framing) and stay up.
  std::string junk;
  PutFixed32(&junk, 8);
  PutFixed32(&junk, 0xdeadbeef);
  junk.append(8, 'z');
  ASSERT_TRUE(sock.SendAll(junk.data(), junk.size()).ok());
  char byte;
  EXPECT_FALSE(sock.RecvAll(&byte, 1).ok());  // Closed, no response.

  // The server still serves fresh connections.
  RemoteBusOptions remote_options;
  remote_options.address = server.address();
  RemoteBus remote(remote_options);
  ASSERT_TRUE(remote.Connect().ok());
  EXPECT_TRUE(remote.CreateTopic("after-garbage", 1).ok());
  server.Stop();
}

class RemoteBusTest : public ::testing::Test {
 protected:
  void SetUp() override {
    BusOptions options;
    options.delivery_delay = 0;
    bus_ = std::make_unique<InProcessBus>(options);
    server_ = std::make_unique<BusServer>(BusServerOptions{}, bus_.get());
    ASSERT_TRUE(server_->Start().ok());
    RemoteBusOptions remote_options;
    remote_options.address = server_->address();
    remote_ = std::make_unique<RemoteBus>(remote_options);
    ASSERT_TRUE(remote_->Connect().ok());
  }

  void TearDown() override {
    remote_.reset();
    if (server_ != nullptr) server_->Stop();
  }

  std::unique_ptr<InProcessBus> bus_;
  std::unique_ptr<BusServer> server_;
  std::unique_ptr<RemoteBus> remote_;
};

TEST_F(RemoteBusTest, TopicAdministrationMirrorsTheHostedBus) {
  ASSERT_TRUE(remote_->CreateTopic("t", 4).ok());
  EXPECT_TRUE(remote_->CreateTopic("t", 4).IsAlreadyExists());
  EXPECT_EQ(remote_->PartitionsOf("t").size(), 4u);
  EXPECT_EQ(bus_->PartitionsOf("t").size(), 4u);  // Same broker.
  EXPECT_TRUE(remote_->PartitionsOf("nope").empty());
}

TEST_F(RemoteBusTest, ProducePollSeekAcrossTheWire) {
  ASSERT_TRUE(remote_->CreateTopic("t", 1).ok());
  ASSERT_TRUE(remote_->Subscribe("c", "g", {"t"}, "", {}).ok());
  std::vector<Message> out;
  ASSERT_TRUE(PollMessages(remote_.get(), "c", 10, &out).ok());  // Assignment.

  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        ProduceOne(remote_.get(), "t", "k", "m" + std::to_string(i)).ok());
    EXPECT_EQ(remote_->EndOffset({"t", 0}).value(),
              static_cast<uint64_t>(i + 1));
  }
  ASSERT_TRUE(PollMessages(remote_.get(), "c", 10, &out).ok());
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out[0].payload, "m0");
  EXPECT_EQ(out[4].offset, 4u);

  ASSERT_TRUE(remote_->Seek("c", {"t", 0}, 2).ok());
  ASSERT_TRUE(PollMessages(remote_.get(), "c", 10, &out).ok());
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].payload, "m2");
  EXPECT_EQ(remote_->EndOffset({"t", 0}).value(), 5u);
  EXPECT_EQ(remote_->BaseOffset({"t", 0}).value(), 0u);

  ASSERT_TRUE(remote_->Fetch({"t", 0}, 1, 2, &out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].offset, 1u);
}

TEST_F(RemoteBusTest, BlockingPollParksServerSideAndWakesOnArrival) {
  ASSERT_TRUE(remote_->CreateTopic("t", 1).ok());
  ASSERT_TRUE(remote_->Subscribe("c", "g", {"t"}, "", {}).ok());
  std::vector<Message> out;
  ASSERT_TRUE(PollMessages(remote_.get(), "c", 10, &out).ok());  // Assignment.

  // Producer fires from another thread over the same RemoteBus (its own
  // control connection) while the consumer parks server-side.
  std::thread producer([this] {
    MonotonicClock::Default()->SleepMicros(30 * kMicrosPerMilli);
    ASSERT_TRUE(ProduceOne(remote_.get(), "t", "k", "wake").ok());
  });
  const Micros start = MonotonicClock::Default()->NowMicros();
  ASSERT_TRUE(
      PollMessages(remote_.get(), "c", 10, &out, 5 * kMicrosPerSecond).ok());
  const Micros elapsed = MonotonicClock::Default()->NowMicros() - start;
  producer.join();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].payload, "wake");
  EXPECT_LT(elapsed, 2 * kMicrosPerSecond);
}

TEST_F(RemoteBusTest, WakeConsumerInterruptsAParkedRemotePoll) {
  ASSERT_TRUE(remote_->CreateTopic("t", 1).ok());
  ASSERT_TRUE(remote_->Subscribe("c", "g", {"t"}, "", {}).ok());
  std::vector<Message> out;
  ASSERT_TRUE(PollMessages(remote_.get(), "c", 10, &out).ok());

  std::thread waker([this] {
    MonotonicClock::Default()->SleepMicros(30 * kMicrosPerMilli);
    ASSERT_TRUE(remote_->WakeConsumer("c").ok());
  });
  const Micros start = MonotonicClock::Default()->NowMicros();
  ASSERT_TRUE(
      PollMessages(remote_.get(), "c", 10, &out, 5 * kMicrosPerSecond).ok());
  const Micros elapsed = MonotonicClock::Default()->NowMicros() - start;
  waker.join();
  EXPECT_TRUE(out.empty());
  EXPECT_LT(elapsed, 2 * kMicrosPerSecond);
}

TEST_F(RemoteBusTest, RebalanceCallbacksStreamToTheRemoteClient) {
  ASSERT_TRUE(remote_->CreateTopic("t", 4).ok());
  std::atomic<int> assigned_total{0}, revoked_total{0};
  RebalanceListener listener;
  listener.on_assigned = [&](const std::vector<TopicPartition>& a) {
    assigned_total += static_cast<int>(a.size());
  };
  listener.on_revoked = [&](const std::vector<TopicPartition>& r) {
    revoked_total += static_cast<int>(r.size());
  };
  ASSERT_TRUE(
      remote_->Subscribe("c1", "g", {"t"}, "", listener).ok());
  std::vector<Message> out;
  ASSERT_TRUE(PollMessages(remote_.get(), "c1", 10, &out).ok());
  EXPECT_EQ(assigned_total.load(), 4);  // Sole member owns everything.
  EXPECT_EQ(bus_->AssignmentOf("c1").size(), 4u);

  // A second member (directly on the hosted bus) takes over partitions:
  // the remote consumer sees the revocations on its next poll.
  ASSERT_TRUE(bus_->Subscribe("c2", "g", {"t"}, "", {}).ok());
  ASSERT_TRUE(PollMessages(remote_.get(), "c1", 10, &out).ok());
  EXPECT_EQ(revoked_total.load(), 2);
  EXPECT_GT(bus_->rebalance_count(), 0u);
}

TEST_F(RemoteBusTest, FencedConsumerGetsNotFoundAndResumesAfterRejoin) {
  ASSERT_TRUE(remote_->CreateTopic("t", 1).ok());
  std::atomic<int> assigned_total{0};
  RebalanceListener listener;
  listener.on_assigned = [&](const std::vector<TopicPartition>& a) {
    assigned_total += static_cast<int>(a.size());
  };
  ASSERT_TRUE(remote_->Subscribe("c", "g", {"t"}, "", listener).ok());
  std::vector<Message> out;
  ASSERT_TRUE(PollMessages(remote_.get(), "c", 10, &out).ok());  // Assignment.
  ASSERT_TRUE(ProduceOne(remote_.get(), "t", "k", "before").ok());
  ASSERT_TRUE(PollMessages(remote_.get(), "c", 10, &out).ok());
  ASSERT_EQ(out.size(), 1u);

  // Fenced: NotFound crosses the wire, distinct from a transport
  // failure's Unavailable.
  ASSERT_TRUE(remote_->KillConsumer("c").ok());
  ASSERT_TRUE(ProduceOne(remote_.get(), "t", "k", "during").ok());
  EXPECT_TRUE(PollMessages(remote_.get(), "c", 10, &out).IsNotFound());

  // Rejoin: the partition comes back and reading resumes at the kept
  // position.
  ASSERT_TRUE(remote_->Subscribe("c", "g", {"t"}, "", listener).ok());
  ASSERT_TRUE(PollMessages(remote_.get(), "c", 10, &out).ok());
  EXPECT_EQ(assigned_total.load(), 2);
  ASSERT_TRUE(PollMessages(remote_.get(), "c", 10, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].payload, "during");
}

TEST_F(RemoteBusTest, FencedConsumerRejoinsAnEmptiedGroup) {
  CheckFencedConsumerRejoinsAnEmptiedGroup(remote_.get());
}

TEST_F(RemoteBusTest, CommitBelowAnotherTrackersFloorDropsNothing) {
  CheckCommitBelowAnotherTrackersFloorDropsNothing(remote_.get());
}

TEST_F(RemoteBusTest, FencedTrackerHoldsTheFloorUntilItUnsubscribes) {
  CheckFencedTrackerHoldsTheFloorUntilItUnsubscribes(remote_.get());
}

TEST_F(RemoteBusTest, UntrackedPartitionKeepsEverything) {
  CheckUntrackedPartitionKeepsEverything(remote_.get());
}

TEST_F(RemoteBusTest, CommitNeverLowersTheFloor) {
  CheckCommitNeverLowersTheFloor(remote_.get());
}

TEST_F(RemoteBusTest, SeekAndFetchClampToTheRetainedHead) {
  CheckSeekAndFetchClampToTheRetainedHead(remote_.get());
}

TEST_F(RemoteBusTest, ColumnarPollIsZeroCopyAndPoolStabilizes) {
  ASSERT_TRUE(remote_->CreateTopic("t", 1).ok());
  ASSERT_TRUE(remote_->Subscribe("c", "g", {"t"}, "", {}).ok());
  MessageBatch batch;
  ASSERT_TRUE(remote_->PollBatch("c", 10, &batch).ok());  // Assignment.

  for (int round = 0; round < 8; ++round) {
    std::vector<ProduceRecord> records;
    for (int i = 0; i < 4; ++i) {
      records.push_back({"k", "r" + std::to_string(round) + "-m" +
                                  std::to_string(i)});
    }
    ASSERT_TRUE(remote_->ProduceBatch("t", std::move(records)).ok());
    ASSERT_TRUE(
        remote_->PollBatch("c", 10, &batch, kMicrosPerSecond).ok());
    ASSERT_EQ(batch.size(), 4u);
    EXPECT_TRUE(batch.zero_copy());  // Views into the pooled buffer.
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(batch[i].topic.ToString(), "t");
      EXPECT_EQ(batch[i].payload.ToString(),
                "r" + std::to_string(round) + "-m" + std::to_string(i));
      EXPECT_EQ(batch[i].offset,
                static_cast<uint64_t>(round * 4 + i));
    }
    if (round == 3) {
      // Warmed up: later rounds must recycle, not allocate.
      const uint64_t misses = remote_->pool_misses();
      for (int r2 = 0; r2 < 2; ++r2) {
        ASSERT_TRUE(
            remote_->PollBatch("c", 10, &batch, /*max_wait=*/0).ok());
      }
      EXPECT_EQ(remote_->pool_misses(), misses);
    }
  }
  EXPECT_GT(remote_->decode_bytes(), 0u);
}

TEST_F(RemoteBusTest, TraceTrailerCrossesTheWireToTheHostedBroker) {
  trace::Tracer* tracer = trace::Tracer::Global();
  tracer->ResetForTest();
  trace::TracerOptions trace_options;
  trace_options.sample_every = 1;
  tracer->Enable(trace_options);

  ASSERT_TRUE(remote_->CreateTopic("t", 1).ok());
  const trace::TraceContext ctx = tracer->Mint();
  ASSERT_TRUE(ctx.sampled());
  {
    // The produce path reads the ambient context (as the front end's
    // drain loop does) and rides it across as a frame trailer.
    trace::ScopedTraceContext scope(ctx);
    std::vector<ProduceRecord> records;
    records.push_back({"k", "v"});
    ASSERT_TRUE(remote_->ProduceBatch("t", std::move(records)).ok());
  }

  // The hosted bus (the "server process" of this loopback pair)
  // recorded its append under the wire-carried context: same trace,
  // parented directly under ctx.span_id.
  tracer->Drain();
  bool found = false;
  for (const auto& span : tracer->CollectedSpans()) {
    if (span.stage != trace::Stage::kBrokerAppend) continue;
    EXPECT_EQ(span.trace_hi, ctx.trace_hi);
    EXPECT_EQ(span.trace_lo, ctx.trace_lo);
    EXPECT_EQ(span.parent_id, ctx.span_id);
    found = true;
  }
  EXPECT_TRUE(found);
  tracer->ResetForTest();
}

TEST_F(RemoteBusTest, ServerDeathSurfacesUnavailable) {
  ASSERT_TRUE(remote_->CreateTopic("t", 1).ok());
  server_->Stop();
  server_.reset();

  EXPECT_TRUE(remote_->CreateTopic("x", 1).IsUnavailable());
  EXPECT_TRUE(ProduceOne(remote_.get(), "t", "k", "v").IsUnavailable());
  std::vector<Message> out;
  EXPECT_TRUE(PollMessages(remote_.get(), "c", 10, &out, kMicrosPerSecond)
                  .IsUnavailable());
}

TEST(RemoteBusBackoffTest, DeadBrokerIsNotHammeredByRetryingCallers) {
  // Grab a port with nothing listening on it.
  auto listener_or = ListenSocket::Listen("127.0.0.1", 0);
  ASSERT_TRUE(listener_or.ok());
  const int dead_port = listener_or.value().port();
  listener_or.value().Close();

  SimulatedClock clock;  // Backoff windows never elapse on their own.
  RemoteBusOptions options;
  options.address = "127.0.0.1:" + std::to_string(dead_port);
  options.clock = &clock;
  RemoteBus remote(options);

  // First call dials and fails; the next twenty — the shape of a poll
  // loop retrying every few milliseconds — must fail fast inside the
  // backoff window without touching the network again.
  EXPECT_TRUE(ProduceOne(&remote, "t", "k", "v").IsUnavailable());
  EXPECT_EQ(remote.dial_attempts(), 1u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(ProduceOne(&remote, "t", "k", "v").IsUnavailable());
  }
  EXPECT_EQ(remote.dial_attempts(), 1u);

  // Once the (capped, jittered) window elapses, exactly one new dial
  // goes out per window.
  clock.Advance(kReconnectBackoffMax * 2);
  EXPECT_TRUE(ProduceOne(&remote, "t", "k", "v").IsUnavailable());
  EXPECT_EQ(remote.dial_attempts(), 2u);
  EXPECT_TRUE(ProduceOne(&remote, "t", "k", "v").IsUnavailable());
  EXPECT_EQ(remote.dial_attempts(), 2u);

  // An explicit Connect is user-initiated and skips the window.
  EXPECT_FALSE(remote.Connect().ok());
  EXPECT_EQ(remote.dial_attempts(), 3u);

  // Per-consumer poll connections back off independently of control.
  std::vector<Message> out;
  EXPECT_TRUE(PollMessages(&remote, "c", 4, &out).IsUnavailable());
  EXPECT_EQ(remote.dial_attempts(), 4u);
  EXPECT_TRUE(PollMessages(&remote, "c", 4, &out).IsUnavailable());
  EXPECT_EQ(remote.dial_attempts(), 4u);
}

// ----- Subscription opcodes (kSubCreate/kSubFetch/kSubCancel) --------

ops::SubFetchReply SampleSubFetchReply() {
  ops::SubFetchReply reply;
  reply.dropped_total = 7;
  reply.lag = 3;
  for (int i = 0; i < 3; ++i) {
    ops::SubRecord record;
    record.seq = static_cast<uint64_t>(10 + i);
    record.timestamp = 1000 + i;
    record.fields.emplace_back("cardId",
                               reservoir::FieldValue(std::string("c1")));
    record.fields.emplace_back("amount", reservoir::FieldValue(12.5 + i));
    record.fields.emplace_back("hits", reservoir::FieldValue(int64_t{4}));
    record.fields.emplace_back("flag", reservoir::FieldValue(true));
    reply.records.push_back(std::move(record));
  }
  return reply;
}

TEST(SubWireTest, AllMessagesRoundTrip) {
  ops::SubCreateRequest create;
  create.statement = "SUBSCRIBE SELECT * FROM payments WHERE amount > 1";
  std::string wire;
  ops::EncodeSubCreateRequest(create, &wire);
  ops::SubCreateRequest create2;
  ASSERT_TRUE(ops::DecodeSubCreateRequest(Slice(wire), &create2).ok());
  EXPECT_EQ(create2.statement, create.statement);

  ops::SubCreateReply created;
  created.sub_id = 0xfeedface;
  wire.clear();
  ops::EncodeSubCreateReply(created, &wire);
  ops::SubCreateReply created2;
  ASSERT_TRUE(ops::DecodeSubCreateReply(Slice(wire), &created2).ok());
  EXPECT_EQ(created2.sub_id, created.sub_id);

  ops::SubFetchRequest fetch;
  fetch.sub_id = 42;
  fetch.acked_seq = 17;
  fetch.max_records = 128;
  fetch.max_wait_us = kMicrosPerSecond;
  wire.clear();
  ops::EncodeSubFetchRequest(fetch, &wire);
  ops::SubFetchRequest fetch2;
  ASSERT_TRUE(ops::DecodeSubFetchRequest(Slice(wire), &fetch2).ok());
  EXPECT_EQ(fetch2.sub_id, fetch.sub_id);
  EXPECT_EQ(fetch2.acked_seq, fetch.acked_seq);
  EXPECT_EQ(fetch2.max_records, fetch.max_records);
  EXPECT_EQ(fetch2.max_wait_us, fetch.max_wait_us);

  const ops::SubFetchReply reply = SampleSubFetchReply();
  wire.clear();
  ops::EncodeSubFetchReply(reply, &wire);
  ops::SubFetchReply reply2;
  ASSERT_TRUE(ops::DecodeSubFetchReply(Slice(wire), &reply2).ok());
  EXPECT_EQ(reply2.dropped_total, reply.dropped_total);
  EXPECT_EQ(reply2.lag, reply.lag);
  ASSERT_EQ(reply2.records.size(), reply.records.size());
  for (size_t i = 0; i < reply.records.size(); ++i) {
    EXPECT_EQ(reply2.records[i].seq, reply.records[i].seq);
    EXPECT_EQ(reply2.records[i].timestamp, reply.records[i].timestamp);
    ASSERT_EQ(reply2.records[i].fields.size(),
              reply.records[i].fields.size());
    for (size_t j = 0; j < reply.records[i].fields.size(); ++j) {
      EXPECT_EQ(reply2.records[i].fields[j].first,
                reply.records[i].fields[j].first);
      EXPECT_EQ(reply2.records[i].fields[j].second.ToString(),
                reply.records[i].fields[j].second.ToString());
    }
  }

  ops::SubCancelRequest cancel;
  cancel.sub_id = 99;
  wire.clear();
  ops::EncodeSubCancelRequest(cancel, &wire);
  ops::SubCancelRequest cancel2;
  ASSERT_TRUE(ops::DecodeSubCancelRequest(Slice(wire), &cancel2).ok());
  EXPECT_EQ(cancel2.sub_id, cancel.sub_id);
}

TEST(SubWireTest, EveryTruncationIsCorruptionNeverACrash) {
  std::string create_wire, fetch_wire, reply_wire;
  ops::SubCreateRequest create;
  create.statement = "SUBSCRIBE SELECT * FROM payments";
  ops::EncodeSubCreateRequest(create, &create_wire);
  ops::SubFetchRequest fetch;
  fetch.sub_id = 42;
  fetch.acked_seq = 17;
  ops::EncodeSubFetchRequest(fetch, &fetch_wire);
  ops::EncodeSubFetchReply(SampleSubFetchReply(), &reply_wire);

  for (size_t len = 0; len < create_wire.size(); ++len) {
    ops::SubCreateRequest out;
    EXPECT_TRUE(ops::DecodeSubCreateRequest(
                    Slice(create_wire.substr(0, len)), &out)
                    .IsCorruption())
        << "create prefix " << len;
  }
  for (size_t len = 0; len < fetch_wire.size(); ++len) {
    ops::SubFetchRequest out;
    EXPECT_TRUE(
        ops::DecodeSubFetchRequest(Slice(fetch_wire.substr(0, len)), &out)
            .IsCorruption())
        << "fetch prefix " << len;
  }
  for (size_t len = 0; len < reply_wire.size(); ++len) {
    ops::SubFetchReply out;
    EXPECT_TRUE(
        ops::DecodeSubFetchReply(Slice(reply_wire.substr(0, len)), &out)
            .IsCorruption())
        << "reply prefix " << len;
  }
}

TEST(SubWireTest, BitFlipsYieldTypedStatusesNeverACrash) {
  // The frame layer owns integrity (CRC); the payload codecs only
  // guarantee memory safety and typed errors under mutation. Flipped
  // counts must not trigger huge allocations either — the codecs bound
  // allocations by the remaining input.
  std::string wire;
  ops::EncodeSubFetchReply(SampleSubFetchReply(), &wire);
  for (size_t i = 0; i < wire.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = wire;
      mutated[i] = static_cast<char>(mutated[i] ^ (1 << bit));
      ops::SubFetchReply out;
      const Status status = ops::DecodeSubFetchReply(Slice(mutated), &out);
      EXPECT_TRUE(status.ok() || status.IsCorruption())
          << "byte " << i << " bit " << bit << ": " << status.ToString();
    }
  }
}

TEST(BusServerTest, SubscriptionOpcodesOnAPlainServerAreNotSupported) {
  // A BusServer without the broker's extension handler — the shape of a
  // pre-subscription peer — answers the new opcodes exactly like any
  // unknown opcode: typed NotSupported, never Corruption or a crash.
  BusOptions options;
  options.delivery_delay = 0;
  InProcessBus bus(options);
  BusServer server(BusServerOptions(), &bus);
  ASSERT_TRUE(server.Start().ok());
  for (const OpCode opcode :
       {OpCode::kSubCreate, OpCode::kSubFetch, OpCode::kSubCancel}) {
    Frame frame;
    frame.correlation_id = 77;
    frame.opcode = static_cast<uint8_t>(opcode);
    ops::SubCreateRequest request;
    request.statement = "SUBSCRIBE SELECT * FROM payments";
    ops::EncodeSubCreateRequest(request, &frame.payload);
    const Frame response = server.HandleRequest(frame);
    Slice in(response.payload);
    Status status;
    ASSERT_TRUE(GetStatus(&in, &status));
    EXPECT_TRUE(status.IsNotSupported())
        << "opcode " << static_cast<int>(opcode) << ": "
        << status.ToString();
  }
  server.Stop();
}

}  // namespace
}  // namespace railgun::msg::remote

namespace railgun::api {
namespace {

constexpr const char* kPaymentsDdl =
    "CREATE STREAM payments (cardId STRING, merchantId STRING, "
    "amount DOUBLE) PARTITION BY cardId, merchantId PARTITIONS 2";
constexpr const char* kCardMetric =
    "ADD METRIC SELECT sum(amount), count(*) FROM payments "
    "GROUP BY cardId OVER sliding 5 minutes";

// One process playing both roles over a real loopback socket: the
// serving side (a meta::Broker with one colocated processing node —
// cluster + BusServer + metadata/DDL service) and a remote client.
struct RemoteHarness {
  explicit RemoteHarness(const std::string& name) {
    meta::BrokerOptions options;
    options.cluster.num_nodes = 1;
    options.cluster.node.num_processor_units = 2;
    options.cluster.base_dir = "/tmp/railgun-remote-test-" + name;
    options.cluster.bus.delivery_delay = 0;
    broker = std::make_unique<meta::Broker>(options);
  }

  Status Start() { return broker->Start(); }
  void Stop() { broker->Stop(); }
  std::string address() const { return broker->address(); }

  std::unique_ptr<meta::Broker> broker;
};

TEST(RemoteClientTest, QuickstartFlowOverTheLoopbackTransport) {
  RemoteHarness harness("quickstart");
  ASSERT_TRUE(harness.Start().ok());

  ClientOptions options;
  options.remote_address = harness.address();
  Client client(options);
  ASSERT_TRUE(client.Start().ok());
  ASSERT_TRUE(client.CreateStream(kPaymentsDdl).ok());
  EXPECT_TRUE(client.CreateStream(kPaymentsDdl).IsAlreadyExists());
  ASSERT_TRUE(client.Query(kCardMetric).ok());

  EventResult first = client.SubmitSync(
      "payments", Row()
                      .At(1 * kMicrosPerMinute)
                      .Set("cardId", "card1")
                      .Set("merchantId", "m1")
                      .Set("amount", 10.0));
  ASSERT_TRUE(first.ok()) << first.status.ToString();
  ASSERT_NE(first.Find("count(*)", "card1"), nullptr);
  EXPECT_DOUBLE_EQ(first.Find("count(*)", "card1")->value.ToNumber(), 1.0);
  EXPECT_DOUBLE_EQ(first.Find("sum(amount)", "card1")->value.ToNumber(),
                   10.0);

  EventResult second = client.SubmitSync(
      "payments", Row()
                      .At(2 * kMicrosPerMinute)
                      .Set("cardId", "card1")
                      .Set("merchantId", "m2")
                      .Set("amount", 4.5));
  ASSERT_TRUE(second.ok()) << second.status.ToString();
  EXPECT_DOUBLE_EQ(second.Find("count(*)", "card1")->value.ToNumber(), 2.0);
  EXPECT_DOUBLE_EQ(second.Find("sum(amount)", "card1")->value.ToNumber(),
                   14.5);

  // Remote mode has no local cluster to mutate, but topology queries
  // answer from the broker's metadata view (one broker-local node).
  EXPECT_TRUE(client.admin().AddNode().status().IsUnavailable());
  EXPECT_EQ(client.admin().num_nodes(), 1);
  EXPECT_TRUE(client.admin().NodeAlive(0));

  client.Stop();
  harness.Stop();
}

TEST(RemoteClientTest, BatchSubmissionOverTheWire) {
  RemoteHarness harness("batch");
  ASSERT_TRUE(harness.Start().ok());

  ClientOptions options;
  options.remote_address = harness.address();
  Client client(options);
  ASSERT_TRUE(client.Start().ok());
  ASSERT_TRUE(client.CreateStream(kPaymentsDdl).ok());
  ASSERT_TRUE(client.Query(kCardMetric).ok());

  std::vector<Row> rows;
  for (int i = 1; i <= 8; ++i) {
    rows.push_back(Row()
                       .At(i * kMicrosPerSecond)
                       .Set("cardId", "cardB")
                       .Set("merchantId", "m" + std::to_string(i % 3))
                       .Set("amount", 2.0));
  }
  std::vector<ResultFuture> futures = client.SubmitBatch("payments", rows);
  ASSERT_EQ(futures.size(), rows.size());
  double max_count = 0;
  for (auto& future : futures) {
    EventResult result = future.Get();
    ASSERT_TRUE(result.ok()) << result.status.ToString();
    const MetricValue* count = result.Find("count(*)", "cardB");
    ASSERT_NE(count, nullptr);
    max_count = std::max(max_count, count->value.ToNumber());
  }
  EXPECT_DOUBLE_EQ(max_count, 8.0);  // Per-key order preserved end to end.

  client.Stop();
  harness.Stop();
}

TEST(RemoteClientTest, ReattachedClientCanSubmitToExistingStream) {
  RemoteHarness harness("reattach");
  ASSERT_TRUE(harness.Start().ok());

  ClientOptions options;
  options.remote_address = harness.address();
  {
    Client first(options);
    ASSERT_TRUE(first.Start().ok());
    ASSERT_TRUE(first.CreateStream(kPaymentsDdl).ok());
    ASSERT_TRUE(first.Query(kCardMetric).ok());
    first.Stop();
  }

  // A new client attaching to the same cluster re-declares the stream:
  // the cluster answers AlreadyExists, but the client must still learn
  // the schema and routing so submission works.
  Client second(options);
  ASSERT_TRUE(second.Start().ok());
  EXPECT_TRUE(second.CreateStream(kPaymentsDdl).IsAlreadyExists());
  EXPECT_TRUE(second.Query(kCardMetric).IsAlreadyExists());
  EventResult result = second.SubmitSync(
      "payments", Row()
                      .At(3 * kMicrosPerMinute)
                      .Set("cardId", "cardR")
                      .Set("merchantId", "m1")
                      .Set("amount", 7.0));
  ASSERT_TRUE(result.ok()) << result.status.ToString();
  ASSERT_NE(result.Find("sum(amount)", "cardR"), nullptr);
  EXPECT_DOUBLE_EQ(result.Find("sum(amount)", "cardR")->value.ToNumber(),
                   7.0);
  second.Stop();
  harness.Stop();
}

TEST(RemoteClientTest, ServerDeathTimesOutPendingRequestsCleanly) {
  auto harness = std::make_unique<RemoteHarness>("kill");
  ASSERT_TRUE(harness->Start().ok());

  ClientOptions options;
  options.remote_address = harness->address();
  options.request_timeout = kMicrosPerSecond;
  Client client(options);
  ASSERT_TRUE(client.Start().ok());
  ASSERT_TRUE(client.CreateStream(kPaymentsDdl).ok());
  ASSERT_TRUE(client.Query(kCardMetric).ok());
  ASSERT_TRUE(client
                  .SubmitSync("payments", Row()
                                              .At(kMicrosPerSecond)
                                              .Set("cardId", "c1")
                                              .Set("merchantId", "m1")
                                              .Set("amount", 1.0))
                  .ok());

  // Kill the whole serving side. In-flight and subsequent requests must
  // complete with Unavailable within the request timeout — no hangs, no
  // crashes.
  harness->Stop();
  harness.reset();

  const Micros start = MonotonicClock::Default()->NowMicros();
  EventResult dead = client.SubmitSync("payments",
                                       Row()
                                           .At(2 * kMicrosPerSecond)
                                           .Set("cardId", "c1")
                                           .Set("merchantId", "m1")
                                           .Set("amount", 1.0));
  const Micros elapsed = MonotonicClock::Default()->NowMicros() - start;
  EXPECT_TRUE(dead.status.IsUnavailable()) << dead.status.ToString();
  EXPECT_LT(elapsed, 10 * kMicrosPerSecond);

  // DDL against a dead server reports the failure, typed.
  EXPECT_FALSE(client.Query("ADD METRIC SELECT avg(amount) FROM payments "
                            "GROUP BY merchantId OVER sliding 5 minutes")
                   .ok());
  client.Stop();
}

TEST(RemoteClientTest, TracedSubmitYieldsOneParentLinkedTrace) {
  trace::Tracer* tracer = trace::Tracer::Global();
  tracer->ResetForTest();
  trace::TracerOptions trace_options;
  trace_options.sample_every = 1;  // Sample everything.
  tracer->Enable(trace_options);

  RemoteHarness harness("trace");
  ASSERT_TRUE(harness.Start().ok());
  ClientOptions options;
  options.remote_address = harness.address();
  Client client(options);
  ASSERT_TRUE(client.Start().ok());
  ASSERT_TRUE(client.CreateStream(kPaymentsDdl).ok());
  ASSERT_TRUE(client.Query(kCardMetric).ok());

  EventResult result = client.SubmitSync(
      "payments", Row()
                      .At(1 * kMicrosPerMinute)
                      .Set("cardId", "cardT")
                      .Set("merchantId", "m1")
                      .Set("amount", 3.0));
  ASSERT_TRUE(result.ok()) << result.status.ToString();

  // The tail spans (frontend.complete, the client.submit root) record
  // moments after the future fires; poll until the capture quiesces.
  std::vector<trace::Span> spans;
  const Micros deadline =
      MonotonicClock::Default()->NowMicros() + 5 * kMicrosPerSecond;
  std::set<trace::Stage> stages;
  while (MonotonicClock::Default()->NowMicros() < deadline) {
    tracer->Drain();
    spans = tracer->CollectedSpans();
    stages.clear();
    for (const auto& span : spans) stages.insert(span.stage);
    if (stages.count(trace::Stage::kClientSubmit) > 0 &&
        stages.count(trace::Stage::kFrontendComplete) > 0 &&
        stages.size() >= 6) {
      break;
    }
    MonotonicClock::Default()->SleepMicros(20 * kMicrosPerMilli);
  }

  // One submission, one trace, covering client, front end, broker, unit
  // and reply layers: at least six stages, every span on the same
  // 128-bit trace id, every non-root span parented at another recorded
  // span, exactly one root.
  ASSERT_GE(stages.size(), 6u);
  EXPECT_EQ(stages.count(trace::Stage::kClientSubmit), 1u);
  EXPECT_EQ(stages.count(trace::Stage::kFrontendEnqueue), 1u);
  EXPECT_EQ(stages.count(trace::Stage::kBrokerAppend), 1u);
  EXPECT_EQ(stages.count(trace::Stage::kUnitProcess), 1u);
  EXPECT_EQ(stages.count(trace::Stage::kReplyPublish), 1u);
  EXPECT_EQ(stages.count(trace::Stage::kFrontendComplete), 1u);
  ASSERT_FALSE(spans.empty());
  std::set<uint64_t> span_ids;
  int roots = 0;
  for (const auto& span : spans) {
    EXPECT_EQ(span.trace_hi, spans[0].trace_hi);
    EXPECT_EQ(span.trace_lo, spans[0].trace_lo);
    span_ids.insert(span.span_id);
    if (span.parent_id == 0) ++roots;
  }
  EXPECT_EQ(roots, 1);
  for (const auto& span : spans) {
    if (span.parent_id == 0) {
      EXPECT_EQ(span.stage, trace::Stage::kClientSubmit);
      continue;
    }
    EXPECT_EQ(span_ids.count(span.parent_id), 1u)
        << "orphaned span " << trace::StageName(span.stage);
  }

  // The capture exports as loadable Chrome-trace JSON.
  const std::string json = tracer->ExportChromeJson();
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0),
            0u);
  EXPECT_NE(json.find("\"name\":\"client.submit\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"unit.window_apply\""), std::string::npos);

  client.Stop();
  harness.Stop();
  tracer->ResetForTest();
}

TEST(RemoteClientTest, PipelineRoutesAndSubscriptionTailsEndToEnd) {
  // The PR's acceptance path: a remote client registers an operator
  // pipeline over the wire, the broker-side units materialize the
  // derived events into the target stream, and a remote SUBSCRIBE
  // receives them live over the new opcodes.
  RemoteHarness harness("ops-e2e");
  ASSERT_TRUE(harness.Start().ok());
  ClientOptions options;
  options.remote_address = harness.address();
  Client client(options);
  ASSERT_TRUE(client.Start().ok());
  ASSERT_TRUE(client.CreateStream(kPaymentsDdl).ok());
  ASSERT_TRUE(client
                  .CreateStream("CREATE STREAM alerts (cardId STRING, "
                                "amount DOUBLE) PARTITION BY cardId "
                                "PARTITIONS 2")
                  .ok());
  const Status added = client.Execute(
      "ADD PIPELINE big ON payments | filter(amount > 100) | by(cardId) "
      "| threshold(amount, 150) | route_to_stream(alerts)");
  ASSERT_TRUE(added.ok()) << added.ToString();
  std::vector<query::PipelineSpec> pipelines = client.ListPipelines();
  ASSERT_EQ(pipelines.size(), 1u);
  EXPECT_EQ(pipelines[0].name, "big");

  auto sub = client.Subscribe("SUBSCRIBE SELECT * FROM alerts");
  ASSERT_TRUE(sub.ok()) << sub.status().ToString();

  // 60 and 120 die in the chain; 200 and 300 route into alerts.
  for (const double amount : {60.0, 120.0, 200.0, 300.0}) {
    ASSERT_TRUE(client
                    .SubmitSync("payments", Row()
                                                .Set("cardId", "cardP")
                                                .Set("merchantId", "m1")
                                                .Set("amount", amount))
                    .ok());
  }
  std::vector<ops::SubRecord> records;
  std::vector<ops::SubRecord> batch;
  for (int i = 0; i < 40 && records.size() < 2; ++i) {
    ASSERT_TRUE(sub.value()->Next(&batch, 250 * kMicrosPerMilli).ok());
    records.insert(records.end(), batch.begin(), batch.end());
  }
  ASSERT_EQ(records.size(), 2u);
  for (const auto& record : records) {
    double amount = 0;
    for (const auto& [name, value] : record.fields) {
      if (name == "amount") amount = value.ToNumber();
    }
    EXPECT_GT(amount, 150.0);
  }
  EXPECT_TRUE(sub.value()->Cancel().ok());

  // Slow-consumer flood: a second tail on payments is never fetched
  // while well over queue_capacity events arrive. The queue must shed
  // the oldest records (typed, counted) instead of growing.
  auto slow = client.Subscribe("SUBSCRIBE SELECT * FROM payments");
  ASSERT_TRUE(slow.ok()) << slow.status().ToString();
  for (int round = 0; round < 5; ++round) {
    std::vector<Row> rows;
    for (int i = 0; i < 300; ++i) {
      rows.push_back(Row()
                         .Set("cardId", "flood")
                         .Set("merchantId", "m")
                         .Set("amount", 1.0));
    }
    for (auto& future : client.SubmitBatch("payments", rows)) {
      ASSERT_TRUE(future.Get().ok());
    }
  }
  ASSERT_TRUE(slow.value()->Next(&batch, 100 * kMicrosPerMilli).ok());
  EXPECT_GT(slow.value()->dropped_total(), 0u);

  // The drops are observable cluster-wide: the hub's counters flow
  // through "__railgun.internals" like any engine metric.
  bool saw_dropped = false;
  const Micros deadline =
      MonotonicClock::Default()->NowMicros() + 10 * kMicrosPerSecond;
  while (!saw_dropped && MonotonicClock::Default()->NowMicros() < deadline) {
    auto samples = client.InternalsSnapshot();
    ASSERT_TRUE(samples.ok()) << samples.status().ToString();
    for (const auto& sample : samples.value()) {
      if (sample.metric == "subscribe.records.dropped" && sample.value > 0) {
        saw_dropped = true;
      }
    }
    if (!saw_dropped) {
      MonotonicClock::Default()->SleepMicros(100 * kMicrosPerMilli);
    }
  }
  EXPECT_TRUE(saw_dropped);

  EXPECT_TRUE(slow.value()->Cancel().ok());
  client.Stop();
  harness.Stop();
}

TEST(RemoteClientTest, ParkedSubscriptionFetchDoesNotStallSubmits) {
  // A Next() long-polling an idle tail parks server-side. Submits from
  // the same client must not queue behind it: the fetch has its own
  // connection, the produce rides the control one.
  RemoteHarness harness("sub-stall");
  ASSERT_TRUE(harness.Start().ok());
  ClientOptions options;
  options.remote_address = harness.address();
  Client client(options);
  ASSERT_TRUE(client.Start().ok());
  ASSERT_TRUE(client.CreateStream(kPaymentsDdl).ok());
  ASSERT_TRUE(client.Query(kCardMetric).ok());
  ASSERT_TRUE(client
                  .CreateStream("CREATE STREAM alerts (cardId STRING) "
                                "PARTITION BY cardId")
                  .ok());
  auto sub = client.Subscribe("SUBSCRIBE SELECT * FROM alerts");
  ASSERT_TRUE(sub.ok()) << sub.status().ToString();

  constexpr Micros kParkedWait = 1500 * kMicrosPerMilli;
  Clock* clock = MonotonicClock::Default();
  std::thread parked([&] {
    std::vector<ops::SubRecord> records;
    EXPECT_TRUE(sub.value()->Next(&records, kParkedWait).ok());
    EXPECT_TRUE(records.empty());
  });
  clock->SleepMicros(200 * kMicrosPerMilli);  // Let the fetch park.
  const Micros start = clock->NowMicros();
  const EventResult result = client.SubmitSync(
      "payments",
      Row().Set("cardId", "c1").Set("merchantId", "m1").Set("amount", 1.0));
  const Micros elapsed = clock->NowMicros() - start;
  parked.join();
  EXPECT_TRUE(result.ok()) << result.status.ToString();
  EXPECT_LT(elapsed, kParkedWait / 3) << "submit waited out the parked fetch";

  EXPECT_TRUE(sub.value()->Cancel().ok());
  client.Stop();
  harness.Stop();
}

TEST(RemoteClientTest, DdlAndSubscribeOnAPlainServerFailFastAndTyped) {
  // A plain BusServer (no broker extension) hosts neither a metadata
  // service nor a subscription hub: DDL and Subscribe get the server's
  // typed NotSupported at once, every time, and leave nothing behind
  // on the hosted bus.
  msg::BusOptions bus_options;
  bus_options.delivery_delay = 0;
  msg::InProcessBus bus(bus_options);
  msg::remote::BusServer server(msg::remote::BusServerOptions(), &bus);
  ASSERT_TRUE(server.Start().ok());

  ClientOptions options;
  options.remote_address = server.address();
  options.request_timeout = 2 * kMicrosPerSecond;
  Client client(options);
  ASSERT_TRUE(client.Start().ok());
  Clock* clock = MonotonicClock::Default();
  for (int attempt = 0; attempt < 2; ++attempt) {
    Micros start = clock->NowMicros();
    const Status created = client.CreateStream(kPaymentsDdl);
    EXPECT_TRUE(created.IsNotSupported()) << created.ToString();
    EXPECT_LT(clock->NowMicros() - start, options.request_timeout / 4);
    start = clock->NowMicros();
    const Status queried = client.Query(kCardMetric);
    EXPECT_TRUE(queried.IsNotSupported()) << queried.ToString();
    EXPECT_LT(clock->NowMicros() - start, options.request_timeout / 4);
    EXPECT_TRUE(client.Subscribe("SUBSCRIBE SELECT * FROM payments")
                    .status()
                    .IsNotSupported())
        << "attempt " << attempt;
  }
  // The topic DDL travelled on before it became an RPC.
  const std::string legacy_ddl_topic = std::string("__railgun") + ".ddl";
  EXPECT_TRUE(bus.PartitionsOf(legacy_ddl_topic).empty());
  client.Stop();
  server.Stop();
}

}  // namespace
}  // namespace railgun::api
