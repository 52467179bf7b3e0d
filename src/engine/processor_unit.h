// ProcessorUnit (paper §3.2, Algorithm 1): a single-threaded worker that
// handles operational requests, polls its active tasks through the
// consumer group, fetches its replica tasks directly, routes messages to
// their task processors, and replies for active tasks only.
//
// The unit joins the active group in Start, with no topics until the
// first stream arrives, so its loop parks in one place: the blocking
// PollBatch. A produce to one of its partitions, a rebalance or the
// park slice ends that park; EnqueueRegisterStream, Stop and Kill cut
// it short with WakeConsumer. Replica tasks are read with Fetch, so a
// replica catches up whenever the unit wakes or at the park slice.
#ifndef RAILGUN_ENGINE_PROCESSOR_UNIT_H_
#define RAILGUN_ENGINE_PROCESSOR_UNIT_H_

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "engine/coordinator.h"
#include "engine/stream_def.h"
#include "engine/task_processor.h"
#include "introspect/registry.h"
#include "msg/bus.h"

namespace railgun::engine {

struct UnitOptions {
  TaskProcessorOptions task;
  // Optional metrics sink (borrowed; must outlive the unit): records
  // the per-poll active batch size distribution.
  introspect::Registry* registry = nullptr;
};

struct UnitStats {
  uint64_t active_messages = 0;
  uint64_t replica_messages = 0;
  uint64_t replies_sent = 0;
  uint64_t recoveries = 0;       // Task processors built from a donor.
  uint64_t fresh_tasks = 0;      // Task processors built from nothing.
  uint64_t bytes_recovered = 0;  // Approximate donor copy volume.
  uint64_t poll_errors = 0;      // Failed bus polls / replica fetches.
  uint64_t publish_errors = 0;   // Failed reply publishes.
  uint64_t process_failures = 0;  // Messages a task processor rejected.
  uint64_t routed_events = 0;    // Pipeline-derived events published.
  uint64_t routed_drops = 0;     // Routed events with no usable target.
};

class ProcessorUnit {
 public:
  ProcessorUnit(const UnitOptions& options, std::string unit_id,
                std::string node_id, std::string dir, msg::Bus* bus,
                Coordinator* coordinator, Clock* clock);
  ~ProcessorUnit();

  ProcessorUnit(const ProcessorUnit&) = delete;
  ProcessorUnit& operator=(const ProcessorUnit&) = delete;

  // Joins the active group (no topics yet) and starts the processing
  // thread.
  Status Start();
  // Graceful shutdown (leaves the consumer group).
  void Stop();
  // Abrupt shutdown (fault injection): the thread dies without leaving
  // the group, so failure is detected through missed heartbeats.
  void Kill();

  // Operational requests (paper Algorithm 1 line 2) are queued and
  // handled at the top of the loop.
  void EnqueueRegisterStream(const StreamDef& stream);
  // True while an enqueued registration has not yet been applied by the
  // unit loop (used to make DDL synchronous at the API layer).
  bool has_pending_streams() const {
    MutexLock lock(&mu_);
    return !pending_streams_.empty();
  }

  const std::string& unit_id() const { return unit_id_; }
  UnitStats stats() const;
  std::vector<msg::TopicPartition> active_tasks() const;
  std::vector<msg::TopicPartition> replica_tasks() const;

  // Test hook: direct access to a task processor (nullptr if absent).
  TaskProcessor* FindProcessor(const msg::TopicPartition& tp);

 private:
  void Run();
  // Groups are message *views*; their backing storage (the active poll
  // batch or the replica fetch keepalive) must stay alive for the call.
  void ProcessGrouped(
      const std::map<msg::TopicPartition, std::vector<msg::MessageView>>&
          groups,
      bool active);
  void DrainOperationalRequests();
  // Joins the active group with the union of the registered streams'
  // topics (first registration, new streams, and rejoin after a fence).
  Status Subscribe();
  void SyncReplicaTasks();
  // Publishes pipeline-routed events (fire-and-forget, deterministic
  // derived ids) into their target streams' partitioner topics.
  void PublishRouted(std::vector<ops::RoutedEvent> routed);
  StatusOr<TaskProcessor*> GetOrCreateProcessor(
      const msg::TopicPartition& tp, uint64_t* replay_offset);
  const StreamDef* StreamForTopic(const std::string& topic) const;
  void HandleAssigned(const std::vector<msg::TopicPartition>& assigned);

  UnitOptions options_;
  std::string unit_id_;
  std::string node_id_;
  std::string dir_;
  msg::Bus* bus_;
  Coordinator* coordinator_;
  Clock* clock_;

  std::thread thread_;
  std::atomic<bool> running_{false};

  mutable Mutex mu_{kRankEngineUnit};
  // Cuts the poll-error backoff short on Stop/Kill: a bus that fails
  // polls may not carry a WakeConsumer either.
  CondVar backoff_cv_;
  std::deque<StreamDef> pending_streams_ GUARDED_BY(mu_);
  std::map<std::string, StreamDef> streams_ GUARDED_BY(mu_);  // By name.
  std::map<std::string, std::unique_ptr<TaskProcessor>> processors_
      GUARDED_BY(mu_);
  std::vector<msg::TopicPartition> active_tasks_ GUARDED_BY(mu_);
  std::map<msg::TopicPartition, uint64_t> replica_positions_ GUARDED_BY(mu_);
  uint64_t seen_generation_ = 0;  // Unit-thread only.
  UnitStats stats_ GUARDED_BY(mu_);
  introspect::Histogram* batch_size_ = nullptr;  // Null without registry.
  introspect::Counter* routed_published_ = nullptr;  // ops.routed.published.
  introspect::Counter* routed_dropped_ = nullptr;    // ops.routed.dropped.
  // Poll scratch reused across loop iterations. Only touched by the unit
  // thread; the active batch typically borrows the remote bus's pooled
  // wire buffer (zero-copy poll).
  msg::MessageBatch active_batch_;
};

}  // namespace railgun::engine

#endif  // RAILGUN_ENGINE_PROCESSOR_UNIT_H_
