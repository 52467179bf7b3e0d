// BusServer hosts any msg::Bus (in practice an InProcessBus, typically
// the one owned by an engine::Cluster) behind a TCP listener speaking
// the wire protocol of msg/remote/wire.h.
//
// Threading: one accept thread plus one thread per connection, each
// handling its connection's requests strictly in order. A blocking poll
// parks *server-side* inside the hosted bus — the paired RemoteBus uses
// a dedicated connection per consumer, so a parked poll never stalls
// control traffic, and a WakeConsumer arriving on another connection
// wakes it through the bus's own wake channel.
//
// Rebalance callbacks are streamed to clients piggybacked on Poll
// responses: the server subscribes with a buffering listener, and the
// hosted bus delivers revoke/assign synchronously inside that consumer's
// own poll, so the buffer is drained into the very response that poll
// produces.
#ifndef RAILGUN_MSG_REMOTE_BUS_SERVER_H_
#define RAILGUN_MSG_REMOTE_BUS_SERVER_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "msg/bus.h"
#include "msg/remote/socket.h"
#include "msg/remote/wire.h"

namespace railgun::msg::remote {

struct BusServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;  // 0 = ephemeral; port() reports the bound one.
};

class BusServer {
 public:
  BusServer(const BusServerOptions& options, Bus* bus);
  ~BusServer();

  BusServer(const BusServer&) = delete;
  BusServer& operator=(const BusServer&) = delete;

  Status Start();
  void Stop();

  int port() const { return port_; }
  // "host:port" suitable for RemoteBusOptions::address.
  std::string address() const {
    return options_.host + ":" + std::to_string(port_);
  }

  // Hook for services co-hosted with the bus (the metadata service):
  // called for any opcode the bus itself does not handle. Returns true
  // when the opcode was recognized, filling *status and (on OK) the
  // RPC-specific *result bytes; false falls through to the typed
  // NotSupported unknown-opcode response. Must be installed before
  // Start() — the server reads it from connection threads unlocked.
  using ExtensionHandler = std::function<bool(
      uint8_t opcode, const Slice& payload, Status* status,
      std::string* result)>;
  void SetExtension(ExtensionHandler extension) {
    extension_ = std::move(extension);
  }

  // Connections currently being served (introspection).
  size_t live_connections() const {
    MutexLock lock(&mu_);
    return live_connections_;
  }

  // Decodes one request and executes it against `bus`, producing the
  // response frame (same correlation id, opcode | kResponseBit).
  // Malformed payloads yield a Corruption response, unhandled opcodes a
  // typed NotSupported one; this never crashes on hostile input.
  // Exposed for wire-level tests.
  Frame HandleRequest(const Frame& request);
  // Zero-copy form the connection threads use: the request payload
  // views into the connection's pooled receive buffer and is only
  // borrowed for the duration of the call.
  Frame HandleRequest(const FrameView& request);

  // Receive-path statistics (exported as introspect probes by owners —
  // meta::Broker registers them next to server.connections).
  uint64_t pool_hits() const { return pool_.hits(); }
  uint64_t pool_misses() const { return pool_.misses(); }
  uint64_t decode_bytes() const { return pool_.bytes(); }

 private:
  // Revoke/assign lists buffered by the server-side listener until the
  // consumer's next Poll response carries them to the client.
  struct RebalanceBuffer {
    Mutex mu{kRankMsgServerRebalance};
    std::vector<TopicPartition> revoked GUARDED_BY(mu);
    std::vector<TopicPartition> assigned GUARDED_BY(mu);
  };

  void AcceptLoop();
  // Runs detached; erases its conns_ entry and drops the live count on
  // exit so long-running servers don't accumulate per-connection state.
  void ServeConnection(uint64_t conn_id, std::shared_ptr<Socket> sock);
  std::shared_ptr<RebalanceBuffer> BufferFor(const std::string& consumer_id);

  BusServerOptions options_;
  Bus* bus_;
  ExtensionHandler extension_;  // Immutable after Start().
  int port_ = 0;
  std::atomic<bool> running_{false};
  // Receive buffers shared by all connection threads (BufferPool is
  // internally synchronized); steady state serves every frame from a
  // warm buffer with zero heap allocation.
  BufferPool pool_;

  ListenSocket listener_;
  std::thread accept_thread_;

  mutable Mutex mu_{kRankMsgServer};
  uint64_t next_conn_id_ GUARDED_BY(mu_) = 1;
  std::map<uint64_t, std::shared_ptr<Socket>> conns_ GUARDED_BY(mu_);
  size_t live_connections_ GUARDED_BY(mu_) = 0;
  CondVar conns_drained_;  // Stop waits for count == 0.
  std::map<std::string, std::shared_ptr<RebalanceBuffer>> rebalances_
      GUARDED_BY(mu_);
};

}  // namespace railgun::msg::remote

#endif  // RAILGUN_MSG_REMOTE_BUS_SERVER_H_
