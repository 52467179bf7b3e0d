// RemoteBus: a msg::Bus implementation that forwards every call to a
// BusServer over TCP, so front ends and processor units attach to a
// broker in another process without touching engine/ or api/ code.
//
// Connection model: one control connection for administrative and
// producer traffic, plus one lazily created connection per key: per
// consumer for PollBatch and Commit, and per caller-chosen key for
// other blocking RPCs (CallOpcode) — a blocking call parks server-side
// on its own connection while WakeConsumer/ProduceBatch traffic flows
// on the control connection, mirroring the in-process wake-on-arrival
// contract. Each connection carries one outstanding request at a time
// (correlation ids are still checked defensively). Every dialled connection first sends
// kHello with wire.h's kProtocolVersion; a server speaking another
// version refuses it, and calls on that connection fail with the typed
// ProtocolMismatch error instead of exchanging frames neither side can
// read.
//
// Failure model: any transport error marks the connection broken and
// surfaces Status::Unavailable. Reconnects are lazy with capped
// exponential backoff plus jitter per connection: while a connection is
// backing off, calls fail fast with Unavailable instead of re-dialing,
// so a dead broker is not hammered by the engine's high-frequency poll
// loops. Consumer-group state does not survive a server restart: the
// restarted server answers the engine's polls with NotFound, and the
// engine's consumers rejoin exactly as they would after a fence.
//
// Rebalance callbacks arrive piggybacked on poll responses and are
// invoked synchronously before PollBatch returns, preserving the Bus
// contract. The group's assignment strategy is the server's.
#ifndef RAILGUN_MSG_REMOTE_REMOTE_BUS_H_
#define RAILGUN_MSG_REMOTE_REMOTE_BUS_H_

#include <atomic>
#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "msg/bus.h"
#include "msg/remote/backoff.h"
#include "msg/remote/socket.h"
#include "msg/remote/wire.h"

namespace railgun::msg::remote {

// Reconnect backoff window: the first failed dial backs a connection off
// for kReconnectBackoffMin, doubling per consecutive failure up to
// kReconnectBackoffMax, with up to +25% jitter so a fleet of clients
// doesn't re-dial a recovering broker in lockstep.
constexpr Micros kReconnectBackoffMin = 50 * kMicrosPerMilli;
constexpr Micros kReconnectBackoffMax = 2 * kMicrosPerSecond;

struct RemoteBusOptions {
  std::string address;  // "host:port" of a BusServer.
  // Clock the backoff window is measured on (tests inject a simulated
  // one). Defaults to the monotonic clock.
  Clock* clock = nullptr;
};

class RemoteBus : public Bus {
 public:
  explicit RemoteBus(const RemoteBusOptions& options);
  ~RemoteBus() override;

  RemoteBus(const RemoteBus&) = delete;
  RemoteBus& operator=(const RemoteBus&) = delete;

  // Establishes the control connection (also validates the address and
  // the server's protocol version). Calls made without (or after a
  // failed) Connect lazily retry.
  Status Connect();

  // --- Bus interface -------------------------------------------------
  Status CreateTopic(const std::string& topic, int partitions) override;
  std::vector<TopicPartition> PartitionsOf(
      const std::string& topic) const override;

  Status ProduceBatch(const std::string& topic,
                      std::vector<ProduceRecord> records) override;

  Status Subscribe(const std::string& consumer_id, const std::string& group,
                   const std::vector<std::string>& topics,
                   const std::string& metadata,
                   RebalanceListener listener) override;
  // Accepts the former six-argument form, whose strategy argument is now
  // always nullptr, for callers not yet moved to the form above.
  Status Subscribe(const std::string& consumer_id, const std::string& group,
                   const std::vector<std::string>& topics,
                   const std::string& metadata, std::nullptr_t,
                   RebalanceListener listener) {
    return Subscribe(consumer_id, group, topics, metadata,
                     std::move(listener));
  }
  Status Unsubscribe(const std::string& consumer_id) override;

  // Zero-copy poll: the response body stays in a pooled receive buffer
  // and *out's views point straight into it, without copying a single
  // key/payload byte.
  Status PollBatch(const std::string& consumer_id, size_t max_messages,
                   MessageBatch* out, Micros max_wait = 0) override;
  Status Fetch(const TopicPartition& tp, uint64_t offset,
               size_t max_messages, std::vector<Message>* out) const override;

  Status Seek(const std::string& consumer_id, const TopicPartition& tp,
              uint64_t offset) override;
  // One request on the consumer's own connection.
  Status Commit(const std::string& consumer_id, const TopicPartition& tp,
                uint64_t offset) override;

  StatusOr<uint64_t> EndOffset(const TopicPartition& tp) const override;
  StatusOr<uint64_t> BaseOffset(const TopicPartition& tp) const override;

  Status KillConsumer(const std::string& consumer_id) override;
  Status WakeConsumer(const std::string& consumer_id) override;

  // Total TCP connect attempts across all connections (introspection
  // for tests and operators watching reconnect churn).
  uint64_t dial_attempts() const {
    return dial_attempts_.load(std::memory_order_relaxed);
  }

  // Receive-path statistics (exported as introspect probes by owners —
  // meta::WorkerNode registers them next to bus.dial_attempts).
  uint64_t pool_hits() const { return pool_.hits(); }
  uint64_t pool_misses() const { return pool_.misses(); }
  uint64_t decode_bytes() const { return pool_.bytes(); }

  // Generic RPC for stubs speaking opcodes the bus itself does not
  // (meta::MetaClient's kMeta* RPCs, api::Subscription's kSub*): same
  // correlation, reconnect-backoff and failure model as every built-in
  // call. `key` names the connection: "" is the control connection,
  // anything else a dedicated one (sharing the consumer-id namespace),
  // which a call that may block server-side must use so it never
  // stalls produces.
  Status CallOpcode(const std::string& key, uint8_t opcode,
                    const std::string& payload, std::string* result);
  // Closes the dedicated connection named `key`, if any (a call in
  // flight on it finishes first).
  void DropConnection(const std::string& key);

 private:
  struct Conn {
    Mutex mu{kRankMsgRemoteConn};
    Socket sock GUARDED_BY(mu);
    uint64_t next_correlation GUARDED_BY(mu) = 1;
    bool connected GUARDED_BY(mu) = false;
    ReconnectBackoff backoff GUARDED_BY(mu){kReconnectBackoffMin,
                                            kReconnectBackoffMax};
    // The server's answer to the last kHello when it refused it; calls
    // inside the backoff window report it rather than a bare
    // "unreachable".
    Status refusal GUARDED_BY(mu);
  };

  // Returns the connection for `key` ("" = control, else dedicated),
  // creating and connecting it if needed.
  std::shared_ptr<Conn> ConnFor(const std::string& key) const;
  // Dials conn->sock if disconnected, honoring the backoff window, and
  // runs the kHello version check on the fresh connection.
  Status EnsureConnectedLocked(Conn* conn) const REQUIRES(conn->mu);
  // Sends one request on the connected conn and awaits its response;
  // transport and framing failures close the connection. *result views
  // into *buffer (populated only when the remote status is OK).
  Status RoundTripLocked(Conn* conn, OpCode opcode, const std::string& payload,
                         BufferRef* buffer, Slice* result) const
      REQUIRES(conn->mu);
  // One RPC: send the request on `conn`, await its response, split off
  // the remote status; *result receives the RPC-specific fields (only
  // populated when the remote status is OK).
  Status Call(const std::shared_ptr<Conn>& conn, OpCode opcode,
              const std::string& payload, std::string* result) const;
  // Zero-copy Call: the response lands in a buffer leased from pool_,
  // *result views into it and *buffer keeps it alive (so do any views
  // decoded from *result, via MessageBatch::BorrowBuffer).
  Status CallView(const std::shared_ptr<Conn>& conn, OpCode opcode,
                  const std::string& payload, BufferRef* buffer,
                  Slice* result) const;
  Status CallControl(OpCode opcode, const std::string& payload,
                     std::string* result) const;
  // Fires the consumer's rebalance listener for non-empty lists.
  void DeliverRebalance(const std::string& consumer_id,
                        const std::vector<TopicPartition>& revoked,
                        const std::vector<TopicPartition>& assigned);

  RemoteBusOptions options_;
  Clock* clock_;
  std::string host_;
  int port_ = 0;
  Status address_status_;  // Result of parsing options_.address.
  mutable std::atomic<uint64_t> dial_attempts_{0};
  // Receive buffers shared by all connections (BufferPool is internally
  // synchronized).
  mutable BufferPool pool_;

  mutable Mutex mu_{kRankMsgRemoteBus};
  mutable std::map<std::string, std::shared_ptr<Conn>> conns_ GUARDED_BY(mu_);
  std::map<std::string, RebalanceListener> listeners_ GUARDED_BY(mu_);
};

}  // namespace railgun::msg::remote

#endif  // RAILGUN_MSG_REMOTE_REMOTE_BUS_H_
