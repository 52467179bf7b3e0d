// In-process implementation of the msg::Bus contract (see msg/bus.h):
// partitioned topics, keyed publishing, pull-based consumption by
// offset, replay, consumer groups with
// exactly-one-active-consumer-per-partition, heartbeat failure
// detection, and coordinator-driven rebalances with a pluggable
// assignment strategy. A configurable delivery delay models broker and
// network latency so end-to-end measurements include the messaging hop.
// BusServer (src/msg/remote/bus_server.h) hosts an InProcessBus behind a
// TCP listener to make it a real network broker.
//
// Concurrency model: broker state is sharded. Each partition log has a
// private mutex, so producers to different partitions never contend;
// group coordination (membership, assignments, positions, heartbeats)
// lives behind a separate lock. A consumer parks inside PollBatch on
// its own wake slot. A scan that reaches a partition's end registers
// the slot on that partition, and a produce signals only the slots
// registered on the partitions it appended to. Rebalances, fences,
// Subscribe/Unsubscribe and CreateTopic signal the members of the
// groups they change; WakeConsumer signals the one consumer. So the
// engine's hot loops block on arrival instead of sleep-polling, and an
// arrival wakes only the readers of its partition. Lock order:
// group_mu_ -> topics_mu_ -> PartitionLog mutexes -> wake slots
// (innermost); never the reverse.
#ifndef RAILGUN_MSG_BROKER_H_
#define RAILGUN_MSG_BROKER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/status.h"
#include "msg/bus.h"
#include "msg/message.h"

namespace railgun::msg {

struct BusOptions {
  // One-way delivery delay applied to every message (producer -> broker
  // visibility). Models the network + broker hop of a real deployment.
  Micros delivery_delay = 500;
  // A consumer missing heartbeats (polls) for longer than this is
  // declared dead and its group rebalances.
  Micros session_timeout = 3 * kMicrosPerSecond;
  Clock* clock = nullptr;  // Defaults to MonotonicClock.
};

class InProcessBus : public Bus {
 public:
  explicit InProcessBus(const BusOptions& options = BusOptions());
  InProcessBus(const InProcessBus&) = delete;
  InProcessBus& operator=(const InProcessBus&) = delete;

  // ----- Topic administration -----
  Status CreateTopic(const std::string& topic, int partitions) override;
  std::vector<TopicPartition> PartitionsOf(
      const std::string& topic) const override;

  // ----- Producing -----
  // Publishes a whole batch with one partition-lock acquisition per
  // touched partition, then signals the consumers parked on those
  // partitions.
  Status ProduceBatch(const std::string& topic,
                      std::vector<ProduceRecord> records) override;

  // ----- Group management -----
  Status Subscribe(const std::string& consumer_id, const std::string& group,
                   const std::vector<std::string>& topics,
                   const std::string& metadata,
                   RebalanceListener listener) override;
  Status Unsubscribe(const std::string& consumer_id) override;

  // Installs (or replaces) the assignment strategy of a group, before
  // or after members join; it outlives the group emptying out. A group
  // without one runs round-robin. A broker process pre-installs the
  // engine's sticky coordinator here, so every joining worker — local
  // or remote — gets the same placement policy.
  void SetGroupStrategy(const std::string& group,
                        AssignmentStrategy* strategy);

  // ----- Consuming -----
  // Pulls up to max_messages across the consumer's assigned partitions,
  // starting at its committed/next offsets. Acts as the heartbeat.
  // Delivers rebalance callbacks (revoke/assign) synchronously before
  // returning when the group generation advanced. A consumer that was
  // fenced (session expiry or KillConsumer) gets NotFound, exactly like
  // one the bus never knew: the caller re-subscribes, gets every
  // partition back through on_assigned and resumes at its kept
  // positions.
  //
  // With max_wait > 0 an empty poll parks on the consumer's wake slot
  // (wake-on-arrival) until a message arrives on one of its partitions,
  // a rebalance is delivered, WakeConsumer is called, or max_wait
  // elapses.
  // max_wait, like every other duration here, is interpreted in the
  // bus clock's domain: virtual time under a simulated clock, real time
  // under the monotonic clock. The consumer keeps heartbeating and
  // re-running liveness checks while parked.
  Status PollBatch(const std::string& consumer_id, size_t max_messages,
                   MessageBatch* out, Micros max_wait = 0) override;

  // Direct partition read (used for replay during recovery and by the
  // injectors, outside any group). Offsets below the retention-trimmed
  // log head are clamped to the earliest retained message.
  Status Fetch(const TopicPartition& tp, uint64_t offset,
               size_t max_messages, std::vector<Message>* out) const override;

  // Sets the consumer's read position for a partition (recovery replay
  // rewinds it). Offsets below the retention-trimmed log head clamp
  // forward to the earliest retained message — the same rule as Fetch —
  // so a replaying consumer can never be positioned inside truncated
  // data. Retention does not follow the position; it follows Commit.
  Status Seek(const std::string& consumer_id, const TopicPartition& tp,
              uint64_t offset) override;

  // Raises the consumer's commit for a partition it tracks (capped at
  // the partition's end) and drops what every tracker has committed
  // past, under the partition's lock and outside group_mu_.
  Status Commit(const std::string& consumer_id, const TopicPartition& tp,
                uint64_t offset) override;

  StatusOr<uint64_t> EndOffset(const TopicPartition& tp) const override;
  // First offset still retained (> 0 once retention truncated the log).
  StatusOr<uint64_t> BaseOffset(const TopicPartition& tp) const override;

  // Declares a consumer dead immediately (fault injection), as if its
  // heartbeats timed out: its partitions go to the rest of the group and
  // its next poll answers NotFound. A consumer that is still running
  // rejoins by subscribing again.
  Status KillConsumer(const std::string& consumer_id) override;

  // Interrupts a consumer's blocking Poll: its next (or current) Poll
  // returns (possibly empty) instead of waiting out max_wait. The
  // interrupt is level-triggered — a wake issued while the consumer is
  // between polls is consumed by its next Poll, never lost. Arrival
  // signals from producers are internal and reach only the readers of
  // the partition, whereas this is the engine's lever for loops that
  // multiplex bus polling with local work (e.g. a processor unit with a
  // stream registration to apply, or a front end being stopped).
  Status WakeConsumer(const std::string& consumer_id) override;

  // Caps each partition of the topic at its newest `retention_messages`
  // messages, tracked or not: the oldest go even when a tracker has not
  // committed them (introspect bounds the internals stream this way; its
  // readers tolerate gaps). A lagging poll, Seek or Fetch clamps forward
  // to the earliest retained message. 0 removes the cap. Applies
  // immediately to existing backlog.
  Status SetTopicRetention(const std::string& topic,
                           uint64_t retention_messages);

  // Introspection, outside the Bus contract. AssignmentOf is the
  // consumer's current assignment (empty when unknown).
  std::vector<TopicPartition> AssignmentOf(const std::string& consumer_id);
  uint64_t rebalance_count() const { return rebalance_count_; }
  // Sum of (end offset - live read position) over every partition some
  // alive consumer tracks: the broker-side queue depth (Cluster exports
  // it as the bus.backlog series). Uses the live poll positions, not the
  // commits, which trail them and would overstate backlog.
  uint64_t BacklogHint() const;
  // What every partition log holds right now: messages, and their key
  // plus payload bytes (Cluster exports them as bus.retained_messages
  // and bus.retained_bytes).
  struct Retained {
    uint64_t messages = 0;
    uint64_t bytes = 0;
  };
  Retained RetainedTotals() const;
  // Blocking-poll park/wake-up counts (wake-on-arrival health: parks
  // without wakes means idle, wakes without parks means busy-spinning).
  // A wake is one consumer signalled.
  uint64_t poll_park_count() const {
    return poll_parks_.load(std::memory_order_relaxed);
  }
  uint64_t poll_wake_count() const {
    return poll_wakes_.load(std::memory_order_relaxed);
  }
  // The consumer's read position for a partition. NotFound when the
  // consumer has none there.
  StatusOr<uint64_t> PositionOf(const std::string& consumer_id,
                                const TopicPartition& tp) const;

 private:
  // A message as the log keeps it: only what differs between messages.
  // The log supplies topic, partition and offset. Consumers see it once
  // the delivery delay has elapsed (visible_time never leaves the
  // broker).
  struct LogEntry {
    std::string key;
    std::string payload;
    Micros visible_time = 0;
  };
  // One consumer's park. Level-triggered: PollBatch clears `signalled`
  // before each scan and parks only while it is still clear, so a
  // signal sent between the scan and the park is never lost.
  struct WakeSlot {
    Mutex mu{kRankMsgWake};
    CondVar cv;
    bool signalled GUARDED_BY(mu) = false;
  };
  // One partition's log. It keeps [floor, end): every message some
  // tracker may still read (everything when no consumer tracks it), cut
  // to the newest `retention_cap` messages when its topic has a cap.
  struct PartitionLog {
    mutable Mutex mu{kRankMsgPartition};
    // entries.front() is at base_offset.
    std::deque<LogEntry> entries GUARDED_BY(mu);
    uint64_t base_offset GUARDED_BY(mu) = 0;
    // Key plus payload bytes of `entries`, kept with every append and
    // drop.
    uint64_t retained_bytes GUARDED_BY(mu) = 0;
    std::atomic<uint64_t> end_offset{0};  // Next offset to assign.
    // Lowest commit among the consumers tracking this partition (0 while
    // one of them never committed, or when none tracks it); the log
    // drops everything below it. Written under group_mu_.
    std::atomic<uint64_t> committed_floor{0};
    // SetTopicRetention's cap; 0 = none.
    uint64_t retention_cap GUARDED_BY(mu) = 0;
    // Slots of consumers whose scan reached this partition's end; the
    // next produce here signals and clears them. Shared ownership keeps
    // a slot valid after its consumer unsubscribed.
    std::vector<std::shared_ptr<WakeSlot>> waiters GUARDED_BY(mu);
  };
  struct Topic {
    // unique_ptr elements keep per-partition mutexes address-stable.
    std::vector<std::unique_ptr<PartitionLog>> partitions;
  };
  struct ConsumerState {
    std::string group;
    std::vector<std::string> topics;
    std::string metadata;
    RebalanceListener listener;
    std::vector<TopicPartition> assignment;
    // Read positions.
    std::map<TopicPartition, uint64_t> positions;
    // The partitions this consumer tracks (every one it was ever
    // assigned, kept through a fence until Unsubscribe), each with its
    // commit (0 until the first Commit).
    std::map<TopicPartition, uint64_t> committed;
    Micros last_heartbeat = 0;
    uint64_t seen_generation = 0;
    // Where this consumer's polls park.
    std::shared_ptr<WakeSlot> slot = std::make_shared<WakeSlot>();
    // Level-triggered WakeConsumer flag; consumed by the next Poll.
    bool interrupted = false;
    bool alive = true;
  };
  struct Group {
    // Borrowed; set by SetGroupStrategy, else the group runs round-robin.
    // A group with one is kept when it empties out, so the strategy
    // applies to the next joiner.
    AssignmentStrategy* strategy = nullptr;
    std::set<std::string> members;
    uint64_t generation = 0;
    Assignment current;  // member -> partitions.
  };

  // Topics are never deleted, so the pointer stays valid for the bus's
  // lifetime. nullptr when the topic does not exist.
  Topic* FindTopic(const std::string& topic) const;
  // tp's log; nullptr when the topic or partition does not exist.
  PartitionLog* FindLog(const TopicPartition& tp) const;
  void AppendLocked(PartitionLog* log, std::string key, std::string payload,
                    Micros now) REQUIRES(log->mu);
  // Drops what the log no longer keeps: below its floor, and past its
  // topic's cap.
  void TruncateLocked(PartitionLog* log) REQUIRES(log->mu);
  // Recomputes the group's assignment and signals its members.
  void RebalanceGroupLocked(const std::string& group_name)
      REQUIRES(group_mu_);
  void CheckLivenessLocked() REQUIRES(group_mu_);
  // Declares the consumer dead, drops it from its group (the caller
  // rebalances the group) and signals it, so a parked poll answers
  // NotFound at once. It keeps tracking its partitions.
  void FenceLocked(const std::string& consumer_id, ConsumerState* consumer)
      REQUIRES(group_mu_);
  // Sets tp's floor to the lowest commit among its trackers.
  void RecomputeCommittedFloorLocked(const TopicPartition& tp)
      REQUIRES(group_mu_);
  std::vector<TopicPartition> GroupPartitionsLocked(const Group& group) const
      REQUIRES(group_mu_);
  // Sets the slot's flag and wakes its parked poll.
  void Signal(WakeSlot* slot);

  BusOptions options_;
  Clock* clock_;
  RoundRobinStrategy default_strategy_;

  // Guards the topics_ map structure only; per-partition data is behind
  // each PartitionLog's own mutex.
  mutable Mutex topics_mu_{kRankMsgTopics};
  std::map<std::string, std::unique_ptr<Topic>> topics_ GUARDED_BY(topics_mu_);

  // Group-coordination lock: consumers, groups, assignments, positions.
  mutable Mutex group_mu_{kRankMsgGroup};
  std::map<std::string, ConsumerState> consumers_ GUARDED_BY(group_mu_);
  std::map<std::string, Group> groups_ GUARDED_BY(group_mu_);

  std::atomic<uint64_t> rebalance_count_{0};
  std::atomic<uint64_t> poll_parks_{0};
  std::atomic<uint64_t> poll_wakes_{0};
};

}  // namespace railgun::msg

#endif  // RAILGUN_MSG_BROKER_H_
