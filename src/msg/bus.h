// Abstract messaging-layer contract (the role Kafka plays in the paper
// §3.3). Engine layers (FrontEnd, ProcessorUnit, the baseline worker)
// program against this interface so the broker behind it is swappable:
// InProcessBus (src/msg/broker.h) keeps the whole cluster in one
// process, RemoteBus (src/msg/remote/remote_bus.h) speaks the binary
// wire protocol to a BusServer hosting the broker in another process.
//
// Contract highlights every implementation must honor:
//  - Partitioned, offset-addressed, replayable logs. ProduceBatch is the
//    one producing call; per-key order is preserved within a batch.
//  - Consumer groups with exactly-one-active-consumer-per-partition,
//    heartbeat liveness (PollBatch is the heartbeat) and
//    coordinator-driven rebalances delivered synchronously inside
//    PollBatch via the listener.
//  - PollBatch is the one consuming call. With max_wait > 0 it blocks
//    (wake-on-arrival) until a message becomes visible on one of the
//    consumer's partitions, a rebalance is delivered, WakeConsumer
//    fires, or max_wait elapses. A produce need not wake consumers of
//    other partitions (InProcessBus wakes only the partition's readers).
//    WakeConsumer is level-triggered: a wake issued between polls is
//    consumed by the next poll, never lost.
//  - A message is kept only while a reader may still need it. A
//    consumer tracks a partition from its first assignment until it
//    unsubscribes (a fenced consumer still tracks it) and declares with
//    Commit that it will not read below an offset again. A tracked
//    partition drops every message below the lowest commit among its
//    trackers; a tracker that never committed holds that floor at 0. A
//    partition no consumer tracks keeps everything. A topic cap, where
//    the implementation offers one, bounds tracked partitions too.
//  - Seek/Fetch never position a consumer below the retention-trimmed
//    log head: offsets inside truncated data clamp forward.
//  - A delivered message carries topic, partition, offset, key and
//    payload, nothing more. Broker-side state such as delivery-delay
//    visibility or the unread backlog stays behind the contract
//    (InProcessBus exposes the backlog as introspection).
#ifndef RAILGUN_MSG_BUS_H_
#define RAILGUN_MSG_BUS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "msg/assignment.h"
#include "msg/batch.h"
#include "msg/message.h"

namespace railgun::msg {

// Callbacks a consumer registers to learn about rebalances.
struct RebalanceListener {
  std::function<void(const std::vector<TopicPartition>& revoked)> on_revoked;
  std::function<void(const std::vector<TopicPartition>& assigned)> on_assigned;
};

// One keyed record of a producer batch.
struct ProduceRecord {
  std::string key;
  std::string payload;
};

class Bus {
 public:
  virtual ~Bus() = default;

  // ----- Topic administration -----
  virtual Status CreateTopic(const std::string& topic, int partitions) = 0;
  // Empty when the topic does not exist.
  virtual std::vector<TopicPartition> PartitionsOf(
      const std::string& topic) const = 0;

  // ----- Producing -----
  // Publishes a whole batch, each record to partition
  // Hash(key) % partitions; records with the same key keep their
  // relative order (same key -> same partition, appended in input
  // order).
  virtual Status ProduceBatch(const std::string& topic,
                              std::vector<ProduceRecord> records) = 0;

  // ----- Group management -----
  // Registers a consumer in a group. The group's assignment strategy is
  // the broker's business (InProcessBus::SetGroupStrategy), never the
  // subscriber's: a strategy cannot cross the wire.
  virtual Status Subscribe(const std::string& consumer_id,
                           const std::string& group,
                           const std::vector<std::string>& topics,
                           const std::string& metadata,
                           RebalanceListener listener) = 0;
  virtual Status Unsubscribe(const std::string& consumer_id) = 0;

  // ----- Consuming -----
  // Pulls up to max_messages across the consumer's assigned partitions
  // into *out (replacing its contents); acts as the heartbeat; delivers
  // rebalance callbacks synchronously before returning. With
  // max_wait > 0 an empty poll blocks (wake-on-arrival) until data, a
  // rebalance, a wake, or the deadline. Views in *out stay valid until
  // the batch is cleared or refilled; MessageView::ToMessage copies out.
  // NotFound when the consumer is unknown or was fenced: subscribe again.
  virtual Status PollBatch(const std::string& consumer_id,
                           size_t max_messages, MessageBatch* out,
                           Micros max_wait = 0) = 0;

  // Direct partition read outside any group (replay, replica shadowing).
  // Offsets below the retention-trimmed head clamp forward.
  virtual Status Fetch(const TopicPartition& tp, uint64_t offset,
                       size_t max_messages,
                       std::vector<Message>* out) const = 0;

  // Rewinds the consumer's position (recovery replay). Clamps to the
  // earliest retained offset. Moves only the read position: what the
  // log keeps follows Commit.
  virtual Status Seek(const std::string& consumer_id,
                      const TopicPartition& tp, uint64_t offset) = 0;

  // The consumer will not read tp below `offset` again, so the log may
  // drop what lies below it once every other tracker is past it too.
  // Commits only rise: a lower one than before is a no-op. NotFound when
  // the consumer is unknown or does not track tp.
  virtual Status Commit(const std::string& consumer_id,
                        const TopicPartition& tp, uint64_t offset) = 0;

  virtual StatusOr<uint64_t> EndOffset(const TopicPartition& tp) const = 0;
  // First offset still retained (> 0 once retention truncated the log).
  virtual StatusOr<uint64_t> BaseOffset(const TopicPartition& tp) const = 0;

  // Declares a consumer dead immediately (fault injection).
  virtual Status KillConsumer(const std::string& consumer_id) = 0;

  // Interrupts a consumer's blocking Poll (level-triggered).
  virtual Status WakeConsumer(const std::string& consumer_id) = 0;
};

}  // namespace railgun::msg

#endif  // RAILGUN_MSG_BUS_H_
