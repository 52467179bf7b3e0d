// TaskProcessor (paper §4.1): computes every metric of one
// (topic, partition). Owns a share-nothing event reservoir, an embedded
// LSM state store and a task plan. Supports synchronized checkpointing
// of both stores (plus the plan: its queries and window positions) and
// recovery by rolling the state store back to its last checkpoint,
// rebuilding the plan from it and replaying the message log from the
// checkpointed offset.
#ifndef RAILGUN_ENGINE_TASK_PROCESSOR_H_
#define RAILGUN_ENGINE_TASK_PROCESSOR_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/stream_def.h"
#include "introspect/registry.h"
#include "msg/batch.h"
#include "msg/broker.h"
#include "ops/pipeline.h"
#include "plan/task_plan.h"
#include "reservoir/reservoir.h"
#include "storage/db.h"

namespace railgun::engine {

struct TaskProcessorOptions {
  reservoir::ReservoirOptions reservoir;
  storage::DBOptions db;
  // Take a synchronized checkpoint every this many processed messages.
  uint64_t checkpoint_interval_events = 50000;
  // Operator-pipeline counters register here when set (may be null).
  introspect::Registry* registry = nullptr;
};

class TaskProcessor {
 public:
  // dir: private directory for this task's data. The stream supplies the
  // schema; only queries routed to this task's topic are planned.
  TaskProcessor(const TaskProcessorOptions& options, std::string dir,
                const StreamDef& stream, std::string topic);

  TaskProcessor(const TaskProcessor&) = delete;
  TaskProcessor& operator=(const TaskProcessor&) = delete;

  // Opens (or recovers) the processor. replay_offset() is the next
  // message-log offset to consume: set here, then advanced past every
  // batch ProcessBatch consumes.
  Status Open();

  // Processes messages from the task's partition in arrival order and
  // fills *replies 1:1 with the inputs: the metrics for each arriving
  // event (valid for active tasks to send back; entries with
  // request_id 0 need no reply). Per-message failures are counted in
  // *failed and skipped instead of aborting the batch. Idempotent across
  // replays: offsets at or below the recovered positions skip the
  // reservoir append / plan processing respectively.
  // Message views typically point into the poll's pooled wire buffer.
  // One pass decodes every envelope with DecodeEventEnvelope into
  // per-row scratch reused across batches (string capacity included), so
  // a warm batch decodes without per-event allocation; each event takes
  // its offset from the message's log position.
  Status ProcessBatch(const std::vector<msg::MessageView>& messages,
                      std::vector<ReplyEnvelope>* replies, size_t* failed);

  // Synchronized checkpoint of reservoir + state store (paper §4.1.3).
  Status Checkpoint();

  // Installs any queries from the updated stream definition that are
  // routed to this task's topic and not yet planned, backfilling their
  // aggregation state from the reservoir (runtime metric addition,
  // paper §3.1 operational requests + §6 backfill). Also installs any
  // new operator pipelines (no backfill: pipelines are forward-only).
  Status SyncQueries(const StreamDef& updated);

  // Drains the events routed by pipelines (route_to_stream) since the
  // last call. The owning unit publishes them to their target streams.
  std::vector<ops::RoutedEvent> TakeRouted();

  // Installed operator chains (for counter listing / tests).
  const std::vector<std::unique_ptr<ops::Pipeline>>& pipelines() const {
    return pipelines_;
  }

  uint64_t replay_offset() const { return replay_offset_; }
  uint64_t processed_count() const { return processed_count_; }
  const std::string& topic() const { return topic_; }

  reservoir::Reservoir* reservoir() { return reservoir_.get(); }
  storage::DB* db() { return db_.get(); }
  plan::TaskPlan* task_plan() { return plan_.get(); }

  // Copies this task's durable state (reservoir segments + last state
  // store checkpoint) into target_dir, for replica recovery. Safe to
  // call on a *directory* of a processor that is not running.
  static Status CloneData(Env* env, const std::string& source_dir,
                          const std::string& target_dir);

 private:
  Status RollBackToCheckpoint();
  // Compiles + installs stream pipelines routed to this task's topic
  // (the first partitioner's, so exactly one task per partition runs
  // each pipeline) that are not yet installed.
  Status InstallPipelines(const StreamDef& def);
  // Per-row half of ProcessBatch: reservoir append + plan update +
  // reply fill + checkpoint cadence for one already-decoded event.
  // trace_ctx is the context recovered from the envelope trailer
  // (invalid when untraced); the advanced context lands in reply->trace
  // so the reply path keeps the chain.
  Status ApplyEvent(const reservoir::Event& event, uint64_t request_id,
                    const Slice& reply_topic,
                    const trace::TraceContext& trace_ctx,
                    ReplyEnvelope* reply);

  TaskProcessorOptions options_;
  std::string dir_;
  StreamDef stream_;
  std::string topic_;
  Env* env_;
  std::set<std::string> installed_pipelines_;  // By raw statement text.

  std::unique_ptr<reservoir::Reservoir> reservoir_;
  std::unique_ptr<storage::DB> db_;
  std::unique_ptr<plan::TaskPlan> plan_;
  std::vector<std::unique_ptr<ops::Pipeline>> pipelines_;
  // Events routed by pipelines since the last TakeRouted() drain.
  std::vector<ops::RoutedEvent> pending_routed_;

  uint64_t replay_offset_ = 0;
  // Offsets at or below these thresholds are skipped on replay.
  int64_t plan_skip_threshold_ = -1;
  int64_t reservoir_skip_threshold_ = -1;
  int64_t last_processed_offset_ = -1;
  uint64_t processed_count_ = 0;
  uint64_t events_since_checkpoint_ = 0;

  // Batch scratch, reused across ProcessBatch calls.
  struct DecodedRow {
    EventEnvelope envelope;
    Slice trailer;  // Unconsumed bytes after the event (trace trailer).
    bool ok = false;
  };
  std::vector<DecodedRow> rows_;
  std::vector<plan::MetricResult> scratch_results_;
};

}  // namespace railgun::engine

#endif  // RAILGUN_ENGINE_TASK_PROCESSOR_H_
