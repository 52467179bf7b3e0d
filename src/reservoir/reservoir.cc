#include "reservoir/reservoir.h"

#include <algorithm>
#include <map>

#include "common/coding.h"
#include "common/logging.h"

namespace railgun::reservoir {

Reservoir::Reservoir(const ReservoirOptions& options, std::string dir)
    : options_(options),
      dir_(std::move(dir)),
      env_(options.env != nullptr ? options.env : Env::Default()),
      cache_(options.cache_capacity) {}

Reservoir::~Reservoir() {
  {
    MutexLock lock(&mu_);
    shutdown_ = true;
  }
  writer_cv_.NotifyAll();
  prefetch_cv_.NotifyAll();
  if (writer_thread_.joinable()) writer_thread_.join();
  if (prefetch_thread_.joinable()) prefetch_thread_.join();
  // Drain anything the writer thread left behind. The queue is guarded
  // state, but WriteChunk() re-acquires mu_ to publish the location, so
  // pop under a short-lived lock and write with it released — the same
  // shape as WriterLoop.
  while (true) {
    std::shared_ptr<Chunk> chunk;
    {
      MutexLock lock(&mu_);
      if (write_queue_.empty()) break;
      chunk = write_queue_.front();
      write_queue_.pop_front();
    }
    (void)WriteChunk(chunk);  // Destructor: best effort.
  }
  if (writer_ != nullptr) (void)writer_->Sync();
}

Status Reservoir::Open() {
  RAILGUN_RETURN_IF_ERROR(env_->CreateDir(dir_));
  registry_.reset(new SchemaRegistry(env_, dir_));
  RAILGUN_RETURN_IF_ERROR(registry_->Open());
  if (registry_->Current() == nullptr) {
    if (options_.schema_fields.empty()) {
      return Status::InvalidArgument("reservoir needs a schema");
    }
    RAILGUN_RETURN_IF_ERROR(
        registry_->Register(options_.schema_fields).status());
  } else if (!options_.schema_fields.empty()) {
    // Schema evolution: register a new version if fields changed.
    const Schema* current = registry_->Current();
    bool same = current->num_fields() == options_.schema_fields.size();
    for (size_t i = 0; same && i < options_.schema_fields.size(); ++i) {
      same = current->fields()[i].name == options_.schema_fields[i].name &&
             current->fields()[i].type == options_.schema_fields[i].type;
    }
    if (!same) {
      RAILGUN_RETURN_IF_ERROR(
          registry_->Register(options_.schema_fields).status());
    }
  }

  reader_.reset(new SegmentReader(env_, dir_));
  uint64_t last_file_number = 0, last_file_size = 0;
  RAILGUN_RETURN_IF_ERROR(
      reader_->ScanAll(&index_, &last_file_number, &last_file_size));

  writer_.reset(new SegmentWriter(env_, dir_, options_.segment_max_bytes));
  RAILGUN_RETURN_IF_ERROR(writer_->Open(last_file_number, last_file_size));

  if (!index_.empty()) {
    next_chunk_seq_ = index_.back().seq + 1;
    last_closed_max_ts_ = index_.back().max_ts;
    for (const auto& loc : index_) {
      last_persisted_offset_ =
          std::max(last_persisted_offset_, loc.max_offset);
    }
  }
  open_.chunk =
      std::make_shared<Chunk>(next_chunk_seq_++, registry_->Current());

  if (options_.async_io) {
    writer_thread_ = std::thread([this] { WriterLoop(); });
    prefetch_thread_ = std::thread([this] { PrefetchLoop(); });
  }
  return Status::OK();
}

Status Reservoir::Append(const Event& event, bool* accepted) {
  bool local_accepted = false;
  Status s;
  {
    MutexLock lock(&mu_);
    s = AppendLocked(event, &local_accepted);
  }
  if (accepted != nullptr) *accepted = local_accepted;
  RAILGUN_RETURN_IF_ERROR(s);

  // Synchronous-I/O mode (tests): drain the write queue inline.
  if (!options_.async_io) {
    while (true) {
      std::shared_ptr<Chunk> chunk;
      {
        MutexLock lock(&mu_);
        if (write_queue_.empty()) break;
        chunk = write_queue_.front();
        write_queue_.pop_front();
      }
      RAILGUN_RETURN_IF_ERROR(WriteChunk(chunk));
    }
  }
  return Status::OK();
}

Status Reservoir::AppendLocked(const Event& event, bool* accepted) {
  ++stats_.appends;
  *accepted = false;

  // Deduplicate against in-memory chunks (paper §4.1.1: "events are also
  // deduplicated based on an id, against the chunks still in-memory").
  if (open_.ids.count(event.id) > 0) {
    ++stats_.dedup_drops;
    return Status::OK();
  }
  for (const auto& t : transition_) {
    if (t.ids.count(event.id) > 0) {
      ++stats_.dedup_drops;
      return Status::OK();
    }
  }

  // The open chunk's lower time boundary: events older than this are
  // out of order with respect to chunks that already closed.
  Micros open_boundary = last_closed_max_ts_;
  if (!open_.chunk->empty()) {
    open_boundary = open_.chunk->min_timestamp();
  } else if (!transition_.empty()) {
    open_boundary = transition_.back().chunk->max_timestamp();
  }

  const Event* to_add = &event;
  Event rewritten;  // Only the late-event rewrite path copies the event.
  if (open_boundary >= 0 && event.timestamp < open_boundary) {
    // Grace handling: transition chunks still accept late events that
    // fall inside (or just before) their time range, newest first.
    for (auto it = transition_.rbegin(); it != transition_.rend(); ++it) {
      if (event.timestamp >= it->chunk->min_timestamp()) {
        it->chunk->Add(event);
        it->ids.insert(event.id);
        ++stats_.late_transition_adds;
        *accepted = true;
        return Status::OK();
      }
    }
    if (!transition_.empty() && event.timestamp > last_closed_max_ts_) {
      // Older than every transition chunk's range but newer than the
      // durable chunks: absorb into the oldest transition chunk.
      transition_.front().chunk->Add(event);
      transition_.front().ids.insert(event.id);
      ++stats_.late_transition_adds;
      *accepted = true;
      return Status::OK();
    }
    if (event.timestamp < last_closed_max_ts_) {
      // Truly late: older than data already persisted.
      switch (options_.late_policy) {
        case LateEventPolicy::kDiscard:
          ++stats_.late_drops;
          return Status::OK();
        case LateEventPolicy::kRewriteTimestamp:
          rewritten = event;
          rewritten.timestamp = open_boundary;
          to_add = &rewritten;
          ++stats_.late_rewrites;
          break;
      }
    }
    // Otherwise: within the open chunk's tolerance (sorted at close).
  }

  open_.chunk->Add(*to_add);
  open_.ids.insert(event.id);
  *accepted = true;

  MaybeCloseTransitionsLocked(to_add->timestamp);
  if (open_.chunk->EstimatedBytes() >= options_.chunk_target_bytes) {
    CloseOpenChunkLocked();
  }
  return Status::OK();
}

void Reservoir::CloseOpenChunkLocked() {
  if (open_.chunk->empty()) return;
  InMemoryChunk closing = std::move(open_);
  open_.chunk =
      std::make_shared<Chunk>(next_chunk_seq_++, registry_->Current());
  open_.ids.clear();

  if (options_.ooo_grace > 0) {
    closing.chunk->MarkTransition(closing.chunk->max_timestamp() +
                                  options_.ooo_grace);
    transition_.push_back(std::move(closing));
  } else {
    FinalizeChunkLocked(std::move(closing));
  }
}

void Reservoir::MaybeCloseTransitionsLocked(Micros newest_ts) {
  while (!transition_.empty() &&
         transition_.front().chunk->transition_deadline() <= newest_ts) {
    InMemoryChunk in_mem = std::move(transition_.front());
    transition_.pop_front();
    FinalizeChunkLocked(std::move(in_mem));
  }
}

void Reservoir::FinalizeChunkLocked(InMemoryChunk in_mem) {
  in_mem.chunk->Close();
  last_closed_max_ts_ =
      std::max(last_closed_max_ts_, in_mem.chunk->max_timestamp());
  ++stats_.chunks_closed;
  cache_.Insert(in_mem.chunk);
  in_flight_[in_mem.chunk->seq()] = in_mem.chunk;
  write_queue_.push_back(in_mem.chunk);
  if (options_.async_io) writer_cv_.NotifyOne();
  // In synchronous mode Append drains the queue after releasing mu_.
}

Status Reservoir::WriteChunk(const std::shared_ptr<Chunk>& chunk) {
  std::string payload;
  chunk->SerializeTo(&payload);

  ChunkLocation location;
  RAILGUN_RETURN_IF_ERROR(writer_->Append(*chunk, payload, &location));

  MutexLock lock(&mu_);
  index_.push_back(location);
  in_flight_.erase(chunk->seq());
  last_persisted_offset_ =
      std::max(last_persisted_offset_, location.max_offset);
  ++stats_.chunks_written;
  return Status::OK();
}

void Reservoir::WriterLoop() {
  while (true) {
    std::shared_ptr<Chunk> chunk;
    {
      MutexLock lock(&mu_);
      writer_cv_.Wait(&mu_,
                      [this] { return shutdown_ || !write_queue_.empty(); });
      if (write_queue_.empty()) {
        if (shutdown_) return;
        continue;
      }
      chunk = write_queue_.front();
      write_queue_.pop_front();
    }
    RAILGUN_CHECK_OK(WriteChunk(chunk));
    writer_done_cv_.NotifyAll();
  }
}

void Reservoir::PrefetchLoop() {
  while (true) {
    ChunkSeq seq;
    {
      MutexLock lock(&mu_);
      prefetch_cv_.Wait(
          &mu_, [this] { return shutdown_ || !prefetch_queue_.empty(); });
      if (shutdown_) return;
      seq = prefetch_queue_.front();
      prefetch_queue_.pop_front();
    }
    if (cache_.Contains(seq)) continue;
    auto chunk_or = LoadChunkFromDisk(seq);
    if (chunk_or.ok()) cache_.Insert(chunk_or.value());
  }
}

void Reservoir::SchedulePrefetch(ChunkSeq seq) {
  if (!options_.enable_prefetch) return;
  if (cache_.Contains(seq)) return;
  {
    MutexLock lock(&mu_);
    if (seq >= next_chunk_seq_) return;
    ++stats_.prefetches_issued;
    if (!options_.async_io) return;  // Counted but not loaded.
    prefetch_queue_.push_back(seq);
  }
  prefetch_cv_.NotifyOne();
}

StatusOr<std::shared_ptr<Chunk>> Reservoir::GetChunk(ChunkSeq seq,
                                                     bool prefetch_next) {
  {
    MutexLock lock(&mu_);
    if (open_.chunk != nullptr && open_.chunk->seq() == seq) {
      return open_.chunk;
    }
    for (const auto& t : transition_) {
      if (t.chunk->seq() == seq) return t.chunk;
    }
    auto it = in_flight_.find(seq);
    if (it != in_flight_.end()) return it->second;
  }

  if (auto cached = cache_.Get(seq); cached != nullptr) {
    if (prefetch_next) SchedulePrefetch(seq + 1);
    return cached;
  }

  // Cache miss: synchronous load (the paper's tail-latency hazard).
  auto chunk_or = LoadChunkFromDisk(seq);
  if (chunk_or.ok()) {
    {
      MutexLock lock(&mu_);
      ++stats_.sync_chunk_loads;
    }
    cache_.Insert(chunk_or.value());
    if (prefetch_next) SchedulePrefetch(seq + 1);
  }
  return chunk_or;
}

StatusOr<std::shared_ptr<Chunk>> Reservoir::LoadChunkFromDisk(ChunkSeq seq) {
  ChunkLocation location;
  {
    MutexLock lock(&mu_);
    auto it = std::lower_bound(index_.begin(), index_.end(), seq,
                               [](const ChunkLocation& loc, ChunkSeq s) {
                                 return loc.seq < s;
                               });
    if (it == index_.end() || it->seq != seq) {
      return Status::NotFound("chunk not on disk");
    }
    location = *it;
  }
  std::string payload;
  RAILGUN_RETURN_IF_ERROR(reader_->ReadChunkPayload(location, &payload));

  // Peek the schema id, then decode with the right schema version.
  Slice peek(payload);
  uint32_t schema_id;
  if (!GetVarint32(&peek, &schema_id)) {
    return Status::Corruption("bad chunk payload");
  }
  const Schema* schema = registry_->Get(schema_id);
  if (schema == nullptr) return Status::Corruption("unknown schema id");

  std::unique_ptr<Chunk> chunk;
  RAILGUN_RETURN_IF_ERROR(
      Chunk::Deserialize(seq, schema, Slice(payload), &chunk));
  return std::shared_ptr<Chunk>(std::move(chunk));
}

ChunkSeq Reservoir::OldestSeqLocked() const {
  if (!index_.empty()) return index_.front().seq;
  if (!in_flight_.empty()) {
    ChunkSeq oldest = UINT64_MAX;
    for (const auto& [seq, chunk] : in_flight_) oldest = std::min(oldest, seq);
    return oldest;
  }
  if (!transition_.empty()) return transition_.front().chunk->seq();
  return open_.chunk->seq();
}

std::unique_ptr<ReservoirIterator> Reservoir::NewIterator() {
  auto iter =
      std::unique_ptr<ReservoirIterator>(new ReservoirIterator(this));
  ChunkSeq oldest;
  {
    MutexLock lock(&mu_);
    oldest = OldestSeqLocked();
    ++live_iterators_;
  }
  iter->PositionAt(oldest, 0);
  return iter;
}

std::unique_ptr<ReservoirIterator> Reservoir::NewIteratorAt(Micros ts) {
  auto iter =
      std::unique_ptr<ReservoirIterator>(new ReservoirIterator(this));
  ChunkSeq target;
  {
    MutexLock lock(&mu_);
    ++live_iterators_;
    // First persisted chunk with max_ts >= ts.
    auto it = std::lower_bound(index_.begin(), index_.end(), ts,
                               [](const ChunkLocation& loc, Micros t) {
                                 return loc.max_ts < t;
                               });
    if (it != index_.end()) {
      target = it->seq;
    } else {
      // Fall through to the in-memory chunks.
      target = OldestSeqLocked();
      if (!index_.empty()) target = index_.back().seq + 1;
    }
  }
  iter->PositionAt(target, 0);
  // Advance within the chunk to the first event with timestamp >= ts.
  while (!iter->AtEnd() && iter->timestamp() < ts) {
    iter->Advance();
  }
  return iter;
}

std::unique_ptr<ReservoirIterator> Reservoir::NewIteratorAtPosition(
    ChunkSeq seq, size_t index) {
  auto iter =
      std::unique_ptr<ReservoirIterator>(new ReservoirIterator(this));
  {
    MutexLock lock(&mu_);
    ++live_iterators_;
  }
  iter->PositionAt(seq, index);
  return iter;
}

uint64_t Reservoir::LastPersistedOffset() const {
  MutexLock lock(&mu_);
  return last_persisted_offset_;
}

size_t Reservoir::NumPersistedChunks() const {
  MutexLock lock(&mu_);
  return index_.size();
}

Status Reservoir::Sync() {
  {
    MutexLock lock(&mu_);
    writer_done_cv_.Wait(&mu_, [this] {
      return write_queue_.empty() && in_flight_.empty();
    });
  }
  return writer_->Sync();
}

Status Reservoir::CopyMissingTo(const std::string& target_dir) {
  RAILGUN_RETURN_IF_ERROR(env_->CreateDir(target_dir));
  std::vector<std::string> ours, theirs;
  RAILGUN_RETURN_IF_ERROR(env_->ListDir(dir_, &ours));
  RAILGUN_RETURN_IF_ERROR(env_->ListDir(target_dir, &theirs));

  for (const auto& name : ours) {
    const bool is_segment = name.rfind("segment-", 0) == 0;
    const bool is_schemas = name == "SCHEMAS";
    if (!is_segment && !is_schemas) continue;

    bool skip = false;
    if (is_segment) {
      // Sealed segments are immutable: same name + same size = same data.
      uint64_t our_size = 0, their_size = 0;
      if (std::find(theirs.begin(), theirs.end(), name) != theirs.end() &&
          env_->GetFileSize(JoinPath(dir_, name), &our_size).ok() &&
          env_->GetFileSize(JoinPath(target_dir, name), &their_size).ok() &&
          our_size == their_size) {
        skip = true;
      }
    }
    if (!skip) {
      RAILGUN_RETURN_IF_ERROR(
          env_->CopyFile(JoinPath(dir_, name), JoinPath(target_dir, name)));
    }
  }
  return Status::OK();
}

Status Reservoir::TruncateBefore(Micros ts) {
  MutexLock lock(&mu_);
  // Group persisted chunks by file; a file is droppable when every chunk
  // in it is older than ts and it is not the file still being written.
  std::map<uint64_t, Micros> file_max_ts;
  for (const auto& loc : index_) {
    auto [it, inserted] = file_max_ts.try_emplace(loc.file_number, loc.max_ts);
    if (!inserted) it->second = std::max(it->second, loc.max_ts);
  }
  if (file_max_ts.empty()) return Status::OK();
  const uint64_t newest_file = file_max_ts.rbegin()->first;

  std::vector<uint64_t> droppable;
  for (const auto& [number, max_ts] : file_max_ts) {
    if (number != newest_file && max_ts < ts) droppable.push_back(number);
  }
  for (uint64_t number : droppable) {
    RAILGUN_RETURN_IF_ERROR(env_->RemoveFile(SegmentFileName(dir_, number)));
  }
  index_.erase(std::remove_if(index_.begin(), index_.end(),
                              [&](const ChunkLocation& loc) {
                                return std::find(droppable.begin(),
                                                 droppable.end(),
                                                 loc.file_number) !=
                                       droppable.end();
                              }),
               index_.end());
  return Status::OK();
}

ReservoirStats Reservoir::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

size_t Reservoir::num_live_iterators() const {
  MutexLock lock(&mu_);
  return live_iterators_;
}

Micros Reservoir::MaxTimestamp() const {
  MutexLock lock(&mu_);
  Micros result = last_closed_max_ts_;
  if (!open_.chunk->empty()) {
    result = std::max(result, open_.chunk->max_timestamp());
  }
  return result;
}

uint64_t Reservoir::NumBufferedEvents() const {
  MutexLock lock(&mu_);
  uint64_t n = open_.chunk->num_events();
  for (const auto& t : transition_) n += t.chunk->num_events();
  for (const auto& [seq, chunk] : in_flight_) n += chunk->num_events();
  return n;
}

// ---------------------------------------------------------------------
// ReservoirIterator

ReservoirIterator::ReservoirIterator(Reservoir* reservoir)
    : reservoir_(reservoir) {}

ReservoirIterator::~ReservoirIterator() {
  MutexLock lock(&reservoir_->mu_);
  --reservoir_->live_iterators_;
}

void ReservoirIterator::PositionAt(ChunkSeq seq, size_t index) {
  chunk_seq_ = seq;
  index_ = index;
  chunk_.reset();
  LoadCurrent();
}

void ReservoirIterator::LoadCurrent() {
  valid_ = false;
  status_ = Status::OK();
  while (true) {
    if (chunk_ == nullptr || chunk_->seq() != chunk_seq_) {
      auto chunk_or = reservoir_->GetChunk(chunk_seq_, /*prefetch_next=*/true);
      if (!chunk_or.ok()) {
        chunk_.reset();
        // Only a missing chunk (past the newest, or truncated) is the
        // end; a chunk that exists but cannot be read is an error.
        if (!chunk_or.status().IsNotFound()) status_ = chunk_or.status();
        return;
      }
      chunk_ = chunk_or.value();
    }
    if (index_ < chunk_->num_events()) {
      valid_ = true;
      return;
    }
    // Exhausted this chunk. Only the open chunk blocks traversal (more
    // events may still arrive); transition chunks are passable — a late
    // event added to a transition chunk behind an iterator is simply
    // not revisited by it.
    if (chunk_->state() == ChunkState::kOpen) return;
    ++chunk_seq_;
    index_ = 0;
    chunk_.reset();
  }
}

void ReservoirIterator::Advance() {
  RAILGUN_CHECK(valid_);
  ++index_;
  LoadCurrent();
}

void ReservoirIterator::Refresh() {
  if (!valid_) LoadCurrent();
}

}  // namespace railgun::reservoir
