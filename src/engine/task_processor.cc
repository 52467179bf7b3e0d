#include "engine/task_processor.h"

#include <algorithm>

#include "common/coding.h"
#include "trace/tracer.h"

namespace railgun::engine {

namespace {
constexpr char kCkptOffsetKey[] = "__ckpt_offset";
constexpr char kCkptPlanKey[] = "__ckpt_plan";

std::string ReservoirDir(const std::string& dir) { return dir + "/reservoir"; }
std::string DbDir(const std::string& dir) { return dir + "/db"; }
std::string CkptDir(const std::string& dir) { return dir + "/ckpt"; }
std::string CkptTmpDir(const std::string& dir) { return dir + "/ckpt.tmp"; }
}  // namespace

TaskProcessor::TaskProcessor(const TaskProcessorOptions& options,
                             std::string dir, const StreamDef& stream,
                             std::string topic)
    : options_(options),
      dir_(std::move(dir)),
      stream_(stream),
      topic_(std::move(topic)),
      env_(options.db.env != nullptr ? options.db.env : Env::Default()) {}

Status TaskProcessor::Open() {
  RAILGUN_RETURN_IF_ERROR(env_->CreateDir(dir_));

  // Recovery rule: the live state store is only trustworthy as of its
  // last checkpoint (paper §4.1.3 recovers from the RocksDB checkpoint).
  RAILGUN_RETURN_IF_ERROR(RollBackToCheckpoint());

  reservoir::ReservoirOptions ropts = options_.reservoir;
  ropts.schema_fields = stream_.fields;
  reservoir_.reset(new reservoir::Reservoir(ropts, ReservoirDir(dir_)));
  RAILGUN_RETURN_IF_ERROR(reservoir_->Open());

  RAILGUN_RETURN_IF_ERROR(
      storage::DB::Open(options_.db, DbDir(dir_), &db_));

  plan_.reset(new plan::TaskPlan(reservoir_.get(), db_.get()));
  std::string value;
  Status s = db_->Get(storage::kDefaultColumnFamily, kCkptOffsetKey, &value);
  if (s.IsNotFound()) {
    // No checkpoint: the state store was wiped, and replay from offset 0
    // rebuilds every query's state in island 0.
    replay_offset_ = 0;
    for (const auto& q : stream_.queries) {
      RAILGUN_ASSIGN_OR_RETURN(std::string partitioner,
                               stream_.PartitionerForQuery(q));
      if (stream_.TopicFor(partitioner) == topic_) {
        RAILGUN_RETURN_IF_ERROR(plan_->AddQuery(q));
      }
    }
  } else {
    RAILGUN_RETURN_IF_ERROR(s);
    Slice in(value);
    int64_t ckpt_offset;
    if (!GetVarsint64(&in, &ckpt_offset)) {
      return Status::Corruption("bad checkpoint offset");
    }
    plan_skip_threshold_ = ckpt_offset;
    last_processed_offset_ = ckpt_offset;
    // Replay must rebuild the open chunk the crash destroyed: events in
    // (reservoir_persisted, ckpt_offset] were processed through the plan
    // (state is in the checkpoint) but never persisted to segments, so
    // replay starts at the *older* of the two boundaries. Appends and
    // plan updates are skipped independently below.
    const uint64_t persisted_plus_one =
        reservoir_->NumPersistedChunks() > 0
            ? reservoir_->LastPersistedOffset() + 1
            : 0;
    replay_offset_ = std::min(static_cast<uint64_t>(ckpt_offset + 1),
                              persisted_plus_one);

    // The checkpoint names the queries its state belongs to: rebuild
    // them as they ran.
    std::string blob;
    s = db_->Get(storage::kDefaultColumnFamily, kCkptPlanKey, &blob);
    if (s.IsNotFound()) {
      return Status::Corruption(
          "checkpoint holds no plan: written by an older layout, wipe the "
          "task's state directory");
    }
    RAILGUN_RETURN_IF_ERROR(s);
    RAILGUN_RETURN_IF_ERROR(plan_->Restore(blob));
  }
  // Queries the plan lacks (added after the checkpoint) are installed
  // like any runtime metric addition; pipelines are installed here too.
  RAILGUN_RETURN_IF_ERROR(SyncQueries(stream_));

  // Events already persisted in the reservoir must not be re-appended.
  if (reservoir_->NumPersistedChunks() > 0) {
    reservoir_skip_threshold_ =
        static_cast<int64_t>(reservoir_->LastPersistedOffset());
  }
  return Status::OK();
}

Status TaskProcessor::InstallPipelines(const StreamDef& def) {
  // Pipelines run on the first partitioner's topic only: every event is
  // produced to every partitioner topic, so executing on exactly one of
  // them runs each pipeline once per event.
  if (def.partitioners.empty()) return Status::OK();
  if (def.TopicFor(def.partitioners[0]) != topic_) return Status::OK();
  const reservoir::Schema source(0, def.fields);
  for (const auto& p : def.pipelines) {
    if (installed_pipelines_.count(p.raw) > 0) continue;
    RAILGUN_ASSIGN_OR_RETURN(
        std::unique_ptr<ops::Pipeline> compiled,
        ops::Pipeline::Compile(p.raw, source, options_.registry));
    pipelines_.push_back(std::move(compiled));
    installed_pipelines_.insert(p.raw);
  }
  return Status::OK();
}

std::vector<ops::RoutedEvent> TaskProcessor::TakeRouted() {
  std::vector<ops::RoutedEvent> routed;
  routed.swap(pending_routed_);
  return routed;
}

Status TaskProcessor::RollBackToCheckpoint() {
  if (env_->FileExists(CkptDir(dir_) + "/CURRENT")) {
    RAILGUN_RETURN_IF_ERROR(env_->RemoveDirRecursive(DbDir(dir_)));
    RAILGUN_RETURN_IF_ERROR(env_->CreateDir(DbDir(dir_)));
    std::vector<std::string> children;
    RAILGUN_RETURN_IF_ERROR(env_->ListDir(CkptDir(dir_), &children));
    for (const auto& child : children) {
      RAILGUN_RETURN_IF_ERROR(env_->CopyFile(
          JoinPath(CkptDir(dir_), child), JoinPath(DbDir(dir_), child)));
    }
  } else if (env_->FileExists(DbDir(dir_) + "/CURRENT")) {
    // A state store without any checkpoint: its window positions are
    // unknown, so wipe it and rebuild from offset 0 (the reservoir's
    // events are replay-skipped; only the plan re-runs).
    RAILGUN_RETURN_IF_ERROR(env_->RemoveDirRecursive(DbDir(dir_)));
  }
  return Status::OK();
}

Status TaskProcessor::ApplyEvent(const reservoir::Event& event,
                                 uint64_t request_id,
                                 const Slice& reply_topic,
                                 const trace::TraceContext& trace_ctx,
                                 ReplyEnvelope* reply) {
  reply->request_id = request_id;
  reply->reply_topic.assign(reply_topic.data(), reply_topic.size());
  reply->trace = trace_ctx;

  const int64_t offset = static_cast<int64_t>(event.offset);
  if (offset > reservoir_skip_threshold_) {
    RAILGUN_RETURN_IF_ERROR(reservoir_->Append(event));
  }
  if (offset > plan_skip_threshold_) {
    trace::Tracer* tracer = trace::Tracer::Global();
    const Micros apply_start =
        tracer->enabled() ? tracer->NowMicros() : 0;
    if (reply_topic.empty()) {
      // Fire-and-forget ingestion: update state, skip result reporting.
      RAILGUN_RETURN_IF_ERROR(plan_->ProcessEvent(event, nullptr));
    } else {
      scratch_results_.clear();
      RAILGUN_RETURN_IF_ERROR(plan_->ProcessEvent(event, &scratch_results_));
      reply->results.reserve(scratch_results_.size());
      for (auto& r : scratch_results_) {
        reply->results.push_back(
            MetricReply{std::move(r.metric_name), std::move(r.group_key),
                        std::move(r.value)});
      }
    }
    if (apply_start != 0) {
      // The reply chain parents under the window-apply span.
      reply->trace = tracer->Record(trace::Stage::kUnitWindowApply,
                                    trace_ctx, apply_start,
                                    tracer->NowMicros());
    }
    if (!pipelines_.empty()) {
      const Micros pipe_start = apply_start != 0 ? tracer->NowMicros() : 0;
      for (auto& pipeline : pipelines_) {
        pipeline->Process(event, &pending_routed_);
      }
      if (pipe_start != 0) {
        tracer->Record(trace::Stage::kUnitPipeline, trace_ctx, pipe_start,
                       tracer->NowMicros());
      }
    }
  }
  last_processed_offset_ = offset;
  ++processed_count_;

  if (++events_since_checkpoint_ >= options_.checkpoint_interval_events) {
    events_since_checkpoint_ = 0;
    RAILGUN_RETURN_IF_ERROR(Checkpoint());
  }
  return Status::OK();
}

Status TaskProcessor::ProcessBatch(
    const std::vector<msg::MessageView>& messages,
    std::vector<ReplyEnvelope>* replies, size_t* failed) {
  replies->clear();
  replies->resize(messages.size());
  *failed = 0;
  // One pass decodes every envelope in the batch into reused scratch
  // rows. A message that fails to decode or process is skipped — its
  // reply slot keeps request_id 0, so no reply is routed for it —
  // without aborting the rest.
  trace::Tracer* tracer = trace::Tracer::Global();
  const Micros batch_start = tracer->enabled() ? tracer->NowMicros() : 0;
  if (rows_.size() < messages.size()) rows_.resize(messages.size());
  const reservoir::Schema& schema = *reservoir_->schema();
  for (size_t i = 0; i < messages.size(); ++i) {
    DecodedRow& row = rows_[i];
    row.ok = DecodeEventEnvelope(messages[i].payload, schema, &row.envelope,
                                 &row.trailer)
                 .ok();
    // The log position wins over the offset encoded in the envelope
    // (producers do not know it yet when they encode).
    row.envelope.event.offset = messages[i].offset;
  }
  // Batch-level spans (decode, whole-batch process) attach to the first
  // traced row's context; per-row spans use each row's own trailer.
  trace::TraceContext batch_ctx;
  if (batch_start != 0) {
    for (size_t i = 0; i < messages.size() && !batch_ctx.valid(); ++i) {
      if (rows_[i].ok) batch_ctx = trace::ParseTraceTrailer(rows_[i].trailer);
    }
    tracer->Record(trace::Stage::kUnitDecode, batch_ctx, batch_start,
                   tracer->NowMicros());
  }
  for (size_t i = 0; i < messages.size(); ++i) {
    const DecodedRow& row = rows_[i];
    if (!row.ok) {
      ++*failed;
      continue;
    }
    const trace::TraceContext row_ctx =
        batch_start != 0 ? trace::ParseTraceTrailer(row.trailer)
                         : trace::TraceContext();
    if (!ApplyEvent(row.envelope.event, row.envelope.request_id,
                    row.envelope.reply_topic, row_ctx, &(*replies)[i])
             .ok()) {
      (*replies)[i] = ReplyEnvelope();
      ++*failed;
    }
  }
  if (!messages.empty()) {
    // A unit that gets this task back (rejoin after a fence, replica
    // promotion) resumes here instead of re-applying what it holds.
    replay_offset_ = std::max(replay_offset_, messages.back().offset + 1);
  }
  if (batch_start != 0) {
    tracer->Record(trace::Stage::kUnitProcess, batch_ctx, batch_start,
                   tracer->NowMicros());
  }
  return Status::OK();
}

Status TaskProcessor::SyncQueries(const StreamDef& updated) {
  for (const auto& q : updated.queries) {
    auto partitioner_or = updated.PartitionerForQuery(q);
    if (!partitioner_or.ok()) continue;
    if (updated.TopicFor(partitioner_or.value()) != topic_) continue;
    if (plan_->HasQuery(q.raw)) continue;
    RAILGUN_RETURN_IF_ERROR(
        plan_->AddQueryBackfilled(q, last_processed_offset_));
  }
  RAILGUN_RETURN_IF_ERROR(InstallPipelines(updated));
  stream_ = updated;
  return Status::OK();
}

Status TaskProcessor::Checkpoint() {
  // 1. Make the reservoir durable up to the processed offset boundary
  //    (open-chunk events stay bus-replayable).
  RAILGUN_RETURN_IF_ERROR(reservoir_->Sync());

  // 2. Stamp the state store with the consistent replay point + the
  //    plan (its queries and window positions), then snapshot it.
  std::string offset_value;
  PutVarsint64(&offset_value, last_processed_offset_);
  RAILGUN_RETURN_IF_ERROR(db_->Put(storage::kDefaultColumnFamily,
                                   kCkptOffsetKey, offset_value));
  std::string plan;
  plan_->Save(&plan);
  RAILGUN_RETURN_IF_ERROR(
      db_->Put(storage::kDefaultColumnFamily, kCkptPlanKey, plan));

  RAILGUN_RETURN_IF_ERROR(env_->RemoveDirRecursive(CkptTmpDir(dir_)));
  RAILGUN_RETURN_IF_ERROR(db_->Checkpoint(CkptTmpDir(dir_)));
  RAILGUN_RETURN_IF_ERROR(env_->RemoveDirRecursive(CkptDir(dir_)));
  return env_->RenameFile(CkptTmpDir(dir_), CkptDir(dir_));
}

Status TaskProcessor::CloneData(Env* env, const std::string& source_dir,
                                const std::string& target_dir) {
  RAILGUN_RETURN_IF_ERROR(env->CreateDir(target_dir));

  // Reservoir segments + schema registry (torn tail records in the
  // newest segment are tolerated by the scan on open).
  const std::string src_res = ReservoirDir(source_dir);
  if (env->FileExists(src_res)) {
    RAILGUN_RETURN_IF_ERROR(env->CreateDir(ReservoirDir(target_dir)));
    std::vector<std::string> children;
    RAILGUN_RETURN_IF_ERROR(env->ListDir(src_res, &children));
    for (const auto& child : children) {
      // Delta copy: sealed segments already present with matching size
      // are skipped (paper §4.2: stale processors copy only the delta).
      const std::string from = JoinPath(src_res, child);
      const std::string to = JoinPath(ReservoirDir(target_dir), child);
      uint64_t from_size = 0, to_size = 0;
      if (env->FileExists(to) &&
          env->GetFileSize(from, &from_size).ok() &&
          env->GetFileSize(to, &to_size).ok() && from_size == to_size) {
        continue;
      }
      RAILGUN_RETURN_IF_ERROR(env->CopyFile(from, to));
    }
  }

  // Last state-store checkpoint (atomic directory).
  const std::string src_ckpt = CkptDir(source_dir);
  if (env->FileExists(src_ckpt + "/CURRENT")) {
    RAILGUN_RETURN_IF_ERROR(env->RemoveDirRecursive(CkptDir(target_dir)));
    RAILGUN_RETURN_IF_ERROR(env->CreateDir(CkptDir(target_dir)));
    std::vector<std::string> children;
    RAILGUN_RETURN_IF_ERROR(env->ListDir(src_ckpt, &children));
    for (const auto& child : children) {
      RAILGUN_RETURN_IF_ERROR(env->CopyFile(
          JoinPath(src_ckpt, child), JoinPath(CkptDir(target_dir), child)));
    }
  }
  return Status::OK();
}

}  // namespace railgun::engine
