#include "msg/broker.h"

#include <algorithm>

#include "common/hash.h"
#include "trace/tracer.h"

namespace railgun::msg {

InProcessBus::InProcessBus(const BusOptions& options)
    : options_(options),
      clock_(options.clock != nullptr ? options.clock
                                      : MonotonicClock::Default()) {}

InProcessBus::Topic* InProcessBus::FindTopic(const std::string& topic) const {
  MutexLock lock(&topics_mu_);
  auto it = topics_.find(topic);
  return it == topics_.end() ? nullptr : it->second.get();
}

InProcessBus::PartitionLog* InProcessBus::FindLog(
    const TopicPartition& tp) const {
  auto t = FindTopic(tp.topic);
  if (t == nullptr || tp.partition < 0 ||
      static_cast<size_t>(tp.partition) >= t->partitions.size()) {
    return nullptr;
  }
  return t->partitions[static_cast<size_t>(tp.partition)].get();
}

void InProcessBus::Signal(WakeSlot* slot) {
  {
    MutexLock lock(&slot->mu);
    slot->signalled = true;
  }
  poll_wakes_.fetch_add(1, std::memory_order_relaxed);
  slot->cv.NotifyAll();
}

Status InProcessBus::SetTopicRetention(const std::string& topic,
                                       uint64_t retention_messages) {
  auto t = FindTopic(topic);
  if (t == nullptr) return Status::NotFound("no topic: " + topic);
  for (auto& log : t->partitions) {
    MutexLock lock(&log->mu);
    log->retention_cap = retention_messages;
    TruncateLocked(log.get());
  }
  return Status::OK();
}

uint64_t InProcessBus::BacklogHint() const {
  // Collapse the live read positions to a per-partition minimum first
  // (several group members or groups may track one partition), then
  // read end offsets outside group_mu_ — the totals are a sampled hint,
  // not a transactional snapshot.
  std::map<TopicPartition, uint64_t> min_pos;
  {
    MutexLock lock(&group_mu_);
    for (const auto& [id, consumer] : consumers_) {
      if (!consumer.alive) continue;
      for (const auto& [tp, pos] : consumer.positions) {
        auto it = min_pos.find(tp);
        if (it == min_pos.end()) {
          min_pos.emplace(tp, pos);
        } else if (pos < it->second) {
          it->second = pos;
        }
      }
    }
  }
  uint64_t backlog = 0;
  for (const auto& [tp, pos] : min_pos) {
    PartitionLog* log = FindLog(tp);
    if (log == nullptr) continue;
    const uint64_t end = log->end_offset.load(std::memory_order_acquire);
    if (end > pos) backlog += end - pos;
  }
  return backlog;
}

InProcessBus::Retained InProcessBus::RetainedTotals() const {
  // Collect the logs first (topics are never deleted), then lock each on
  // its own: the scan never holds topics_mu_, which every produce, poll
  // and commit needs to find its topic.
  std::vector<const PartitionLog*> logs;
  {
    MutexLock lock(&topics_mu_);
    for (const auto& [name, topic] : topics_) {
      for (const auto& log : topic->partitions) logs.push_back(log.get());
    }
  }
  Retained total;
  for (const PartitionLog* log : logs) {
    MutexLock lock(&log->mu);
    total.messages += log->entries.size();
    total.bytes += log->retained_bytes;
  }
  return total;
}

Status InProcessBus::WakeConsumer(const std::string& consumer_id) {
  MutexLock lock(&group_mu_);
  auto it = consumers_.find(consumer_id);
  if (it == consumers_.end()) return Status::NotFound("no consumer");
  it->second.interrupted = true;
  Signal(it->second.slot.get());
  return Status::OK();
}

Status InProcessBus::CreateTopic(const std::string& topic, int partitions) {
  if (partitions <= 0) {
    return Status::InvalidArgument("partitions must be positive");
  }
  {
    MutexLock lock(&topics_mu_);
    if (topics_.count(topic) > 0) {
      return Status::AlreadyExists("topic exists: " + topic);
    }
    auto t = std::make_unique<Topic>();
    for (int p = 0; p < partitions; ++p) {
      t->partitions.push_back(std::make_unique<PartitionLog>());
    }
    topics_[topic] = std::move(t);
  }

  // New partitions affect every group subscribed to this topic.
  MutexLock lock(&group_mu_);
  for (auto& [name, group] : groups_) {
    for (const auto& member : group.members) {
      const auto& consumer = consumers_[member];
      if (std::find(consumer.topics.begin(), consumer.topics.end(),
                    topic) != consumer.topics.end()) {
        RebalanceGroupLocked(name);
        break;
      }
    }
  }
  return Status::OK();
}

std::vector<TopicPartition> InProcessBus::PartitionsOf(
    const std::string& topic) const {
  std::vector<TopicPartition> result;
  auto t = FindTopic(topic);
  if (t == nullptr) return result;
  for (size_t p = 0; p < t->partitions.size(); ++p) {
    result.push_back({topic, static_cast<int>(p)});
  }
  return result;
}

void InProcessBus::AppendLocked(PartitionLog* log, std::string key,
                                std::string payload, Micros now) {
  log->retained_bytes += key.size() + payload.size();
  log->entries.push_back(
      {std::move(key), std::move(payload), now + options_.delivery_delay});
  log->end_offset.store(log->end_offset.load(std::memory_order_relaxed) + 1,
                        std::memory_order_release);
}

void InProcessBus::TruncateLocked(PartitionLog* log) {
  uint64_t new_base = log->committed_floor.load(std::memory_order_acquire);
  const uint64_t end = log->end_offset.load(std::memory_order_relaxed);
  if (log->retention_cap != 0 && end > log->retention_cap) {
    new_base = std::max(new_base, end - log->retention_cap);
  }
  while (log->base_offset < new_base && !log->entries.empty()) {
    const LogEntry& entry = log->entries.front();
    log->retained_bytes -= entry.key.size() + entry.payload.size();
    log->entries.pop_front();
    ++log->base_offset;
  }
}

Status InProcessBus::ProduceBatch(const std::string& topic,
                                  std::vector<ProduceRecord> records) {
  if (records.empty()) return Status::OK();
  auto t = FindTopic(topic);
  if (t == nullptr) return Status::NotFound("no topic: " + topic);

  // Bucket records by partition in input order: same key -> same
  // partition, so per-key order is preserved within each bucket.
  std::vector<std::vector<size_t>> buckets(t->partitions.size());
  for (size_t i = 0; i < records.size(); ++i) {
    buckets[Hash64(records[i].key) % t->partitions.size()].push_back(i);
  }

  // The producer (front end / unit) leaves its trace context ambient so
  // the append hop records under the same trace.
  trace::Tracer* tracer = trace::Tracer::Global();
  const Micros append_start = tracer->enabled() ? tracer->NowMicros() : 0;
  const Micros now = clock_->NowMicros();
  // The readers parked on the touched partitions, signalled once each
  // after the partition locks are released.
  std::vector<std::shared_ptr<WakeSlot>> woken;
  for (size_t p = 0; p < buckets.size(); ++p) {
    if (buckets[p].empty()) continue;
    PartitionLog* log = t->partitions[p].get();
    MutexLock lock(&log->mu);
    for (size_t i : buckets[p]) {
      AppendLocked(log, std::move(records[i].key),
                   std::move(records[i].payload), now);
    }
    TruncateLocked(log);
    for (auto& slot : log->waiters) {
      if (std::find(woken.begin(), woken.end(), slot) == woken.end()) {
        woken.push_back(std::move(slot));
      }
    }
    log->waiters.clear();
  }
  if (append_start != 0) {
    tracer->Record(trace::Stage::kBrokerAppend,
                   trace::CurrentTraceContext(), append_start,
                   tracer->NowMicros());
  }
  for (const auto& slot : woken) Signal(slot.get());
  return Status::OK();
}

Status InProcessBus::Subscribe(const std::string& consumer_id,
                               const std::string& group,
                               const std::vector<std::string>& topics,
                               const std::string& metadata,
                               RebalanceListener listener) {
  MutexLock lock(&group_mu_);
  ConsumerState& consumer = consumers_[consumer_id];
  consumer.group = group;
  consumer.topics = topics;
  consumer.metadata = metadata;
  consumer.listener = std::move(listener);
  consumer.last_heartbeat = clock_->NowMicros();
  consumer.alive = true;
  // The join's rebalance must reach the consumer even when the
  // generation a fenced consumer last saw equals the new one (its group
  // emptied, was erased and started counting again).
  consumer.seen_generation = 0;

  groups_[group].members.insert(consumer_id);
  RebalanceGroupLocked(group);
  return Status::OK();
}

void InProcessBus::SetGroupStrategy(const std::string& group,
                                    AssignmentStrategy* strategy) {
  MutexLock lock(&group_mu_);
  groups_[group].strategy = strategy;
}

Status InProcessBus::Unsubscribe(const std::string& consumer_id) {
  std::vector<TopicPartition> tracked;
  {
    MutexLock lock(&group_mu_);
    auto it = consumers_.find(consumer_id);
    if (it == consumers_.end()) return Status::NotFound("no consumer");
    // A poll parked for the leaving consumer answers NotFound at once.
    Signal(it->second.slot.get());
    const std::string group = it->second.group;
    for (const auto& [tp, offset] : it->second.committed) {
      tracked.push_back(tp);
    }
    consumers_.erase(it);
    for (const auto& tp : tracked) RecomputeCommittedFloorLocked(tp);
    auto git = groups_.find(group);
    if (git != groups_.end()) {
      Group& g = git->second;
      g.members.erase(consumer_id);
      if (!g.members.empty()) {
        RebalanceGroupLocked(group);
      } else if (g.strategy == nullptr) {
        groups_.erase(git);
      } else {
        g.current.clear();  // The strategy stays for the next joiner.
      }
    }
  }
  // The leaver no longer holds its partitions' floors down.
  for (const auto& tp : tracked) {
    PartitionLog* log = FindLog(tp);
    if (log == nullptr) continue;
    MutexLock lock(&log->mu);
    TruncateLocked(log);
  }
  return Status::OK();
}

std::vector<TopicPartition> InProcessBus::GroupPartitionsLocked(
    const Group& group) const {
  std::set<std::string> topic_names;
  for (const auto& member : group.members) {
    auto it = consumers_.find(member);
    if (it == consumers_.end()) continue;
    for (const auto& t : it->second.topics) topic_names.insert(t);
  }
  std::vector<TopicPartition> partitions;
  for (const auto& name : topic_names) {
    auto t = FindTopic(name);
    if (t == nullptr) continue;
    for (size_t p = 0; p < t->partitions.size(); ++p) {
      partitions.push_back({name, static_cast<int>(p)});
    }
  }
  return partitions;
}

void InProcessBus::RebalanceGroupLocked(const std::string& group_name) {
  Group& group = groups_[group_name];
  std::vector<MemberInfo> members;
  for (const auto& member_id : group.members) {
    auto it = consumers_.find(member_id);
    if (it == consumers_.end() || !it->second.alive) continue;
    MemberInfo info;
    info.member_id = member_id;
    info.metadata = it->second.metadata;
    info.topics = it->second.topics;
    auto prev = group.current.find(member_id);
    if (prev != group.current.end()) {
      info.previous_assignment = prev->second;
    }
    members.push_back(std::move(info));
    // Every member must wake to deliver the new generation's callbacks.
    Signal(it->second.slot.get());
  }
  AssignmentStrategy* strategy =
      group.strategy != nullptr ? group.strategy : &default_strategy_;
  group.current = strategy->Assign(members, GroupPartitionsLocked(group));
  ++group.generation;
  ++rebalance_count_;
}

void InProcessBus::CheckLivenessLocked() {
  const Micros now = clock_->NowMicros();
  std::set<std::string> groups_to_rebalance;
  for (auto& [id, consumer] : consumers_) {
    if (consumer.alive &&
        now - consumer.last_heartbeat > options_.session_timeout) {
      FenceLocked(id, &consumer);
      groups_to_rebalance.insert(consumer.group);
    }
  }
  for (const auto& g : groups_to_rebalance) {
    if (groups_.count(g) != 0) RebalanceGroupLocked(g);
  }
}

void InProcessBus::FenceLocked(const std::string& consumer_id,
                               ConsumerState* consumer) {
  consumer->alive = false;
  // Dropping the assignment (but not the positions or commits) lets a
  // consumer that was fenced while still alive rejoin with a plain
  // Subscribe: every partition comes back through on_assigned, each
  // resumes where the consumer stopped, and the log kept what it had
  // not committed.
  consumer->assignment.clear();
  auto git = groups_.find(consumer->group);
  if (git != groups_.end()) git->second.members.erase(consumer_id);
  Signal(consumer->slot.get());
}

void InProcessBus::RecomputeCommittedFloorLocked(const TopicPartition& tp) {
  uint64_t floor = UINT64_MAX;
  for (const auto& [id, consumer] : consumers_) {
    auto it = consumer.committed.find(tp);
    if (it != consumer.committed.end()) floor = std::min(floor, it->second);
  }
  if (floor == UINT64_MAX) floor = 0;  // Untracked: keep everything.
  PartitionLog* log = FindLog(tp);
  if (log != nullptr) {
    log->committed_floor.store(floor, std::memory_order_release);
  }
}

Status InProcessBus::PollBatch(const std::string& consumer_id,
                               size_t max_messages, MessageBatch* out,
                               Micros max_wait) {
  out->Clear();
  // The park deadline lives entirely in the bus clock's domain, the same
  // domain as message visibility: under a simulated clock both elapse in
  // virtual time, so a parked consumer never sleeps real-time slices
  // waiting on virtual-time visibility (or vice versa).
  const Micros deadline =
      clock_->NowMicros() + std::max<Micros>(max_wait, 0);
  trace::Tracer* tracer = trace::Tracer::Global();
  const Micros trace_poll_start =
      tracer->enabled() ? tracer->NowMicros() : 0;
  for (;;) {
    std::vector<Message> messages;
    std::vector<TopicPartition> revoked, assigned;
    RebalanceListener listener;
    bool delivered_callbacks = false;
    bool interrupted = false;
    // Soonest visible_time among the consumer's pending messages (0 when
    // it has none buffered).
    Micros earliest_visible = 0;
    // Shared ownership: the park outlives an Unsubscribe of the consumer.
    std::shared_ptr<WakeSlot> slot;
    {
      MutexLock lock(&group_mu_);
      auto it = consumers_.find(consumer_id);
      if (it == consumers_.end()) return Status::NotFound("no consumer");
      ConsumerState& consumer = it->second;
      // Fenced: the same answer as for a consumer the bus never knew, so
      // the caller re-subscribes rather than treating it as a transport
      // failure.
      if (!consumer.alive) return Status::NotFound("consumer fenced");
      consumer.last_heartbeat = clock_->NowMicros();
      // Whatever signalled the slot before this scan is seen by it.
      slot = consumer.slot;
      {
        MutexLock wake_lock(&slot->mu);
        slot->signalled = false;
      }
      interrupted = consumer.interrupted;
      consumer.interrupted = false;
      CheckLivenessLocked();

      Group& group = groups_[consumer.group];
      if (consumer.seen_generation != group.generation) {
        // Deliver the rebalance: revoke old, assign new.
        const auto new_it = group.current.find(consumer_id);
        const std::vector<TopicPartition> new_assignment =
            new_it == group.current.end() ? std::vector<TopicPartition>{}
                                          : new_it->second;
        for (const auto& tp : consumer.assignment) {
          if (std::find(new_assignment.begin(), new_assignment.end(), tp) ==
              new_assignment.end()) {
            revoked.push_back(tp);
          }
        }
        for (const auto& tp : new_assignment) {
          if (std::find(consumer.assignment.begin(),
                        consumer.assignment.end(),
                        tp) == consumer.assignment.end()) {
            assigned.push_back(tp);
            consumer.positions.emplace(tp, 0);
            // The first assignment starts tracking: the floor drops to
            // 0 until this consumer commits.
            if (consumer.committed.emplace(tp, 0).second) {
              RecomputeCommittedFloorLocked(tp);
            }
          }
        }
        consumer.assignment = new_assignment;
        consumer.seen_generation = group.generation;
        listener = consumer.listener;
        delivered_callbacks = true;
      }

      // A poll that observed a rebalance delivers only the callbacks: the
      // consumer may reposition (seek) newly assigned partitions before
      // its next fetch. A scan that reaches a partition's end registers
      // the slot there, so the next produce to it ends the park.
      const Micros now = clock_->NowMicros();
      for (const auto& tp : consumer.assignment) {
        if (delivered_callbacks || messages.size() >= max_messages) break;
        auto t = FindTopic(tp.topic);
        if (t == nullptr ||
            static_cast<size_t>(tp.partition) >= t->partitions.size()) {
          continue;
        }
        PartitionLog* log =
            t->partitions[static_cast<size_t>(tp.partition)].get();
        uint64_t& pos = consumer.positions[tp];
        MutexLock log_lock(&log->mu);
        if (pos < log->base_offset) pos = log->base_offset;  // Truncated.
        const uint64_t end = log->end_offset.load(std::memory_order_relaxed);
        while (pos < end && messages.size() < max_messages) {
          const LogEntry& entry = log->entries[pos - log->base_offset];
          if (entry.visible_time > now) {
            if (earliest_visible == 0 ||
                entry.visible_time < earliest_visible) {
              earliest_visible = entry.visible_time;
            }
            break;
          }
          messages.push_back(
              Message{tp.topic, tp.partition, pos, entry.key, entry.payload});
          ++pos;
        }
        if (pos == end && std::find(log->waiters.begin(), log->waiters.end(),
                                    slot) == log->waiters.end()) {
          log->waiters.push_back(slot);
        }
      }
    }

    if (!revoked.empty() && listener.on_revoked) listener.on_revoked(revoked);
    if (!assigned.empty() && listener.on_assigned) {
      listener.on_assigned(assigned);
    }
    if (!messages.empty() || delivered_callbacks || interrupted ||
        max_wait <= 0) {
      if (trace_poll_start != 0 && !messages.empty()) {
        // Park-to-delivery latency; no context travels into a park, so
        // this hop is histogram-only.
        tracer->Record(trace::Stage::kBrokerPoll, trace::TraceContext(),
                       trace_poll_start, tracer->NowMicros());
      }
      out->Adopt(std::move(messages));
      return Status::OK();
    }
    const Micros now = clock_->NowMicros();
    if (now >= deadline) return Status::OK();
    // Park until the slot is signalled, but never longer than a bounded
    // real-time slice: the consumer keeps heartbeating (every scan
    // refreshes it), re-checks delivery-delay visibility and the
    // deadline — which is how a simulated clock advanced by another
    // thread is noticed without any wake-up.
    Micros horizon = deadline;
    if (earliest_visible > 0 && earliest_visible < horizon) {
      horizon = earliest_visible;
    }
    const Micros delta = horizon - now;
    if (delta <= 0) continue;  // Became visible while scanning.
    Micros slice = 10 * kMicrosPerMilli;
    // Only a real-time clock's deltas are meaningful as condition-
    // variable wait bounds; a simulated clock re-checks each slice.
    if (clock_->IsRealTime() && delta < slice) slice = delta;
    MutexLock lock(&slot->mu);
    if (!slot->signalled) {
      poll_parks_.fetch_add(1, std::memory_order_relaxed);
      slot->cv.WaitFor(&slot->mu, slice);
    }
  }
}

Status InProcessBus::Fetch(const TopicPartition& tp, uint64_t offset,
                           size_t max_messages,
                           std::vector<Message>* out) const {
  out->clear();
  auto t = FindTopic(tp.topic);
  if (t == nullptr) return Status::NotFound("no topic: " + tp.topic);
  if (tp.partition < 0 ||
      static_cast<size_t>(tp.partition) >= t->partitions.size()) {
    return Status::InvalidArgument("bad partition");
  }
  PartitionLog* log = t->partitions[static_cast<size_t>(tp.partition)].get();
  const Micros now = clock_->NowMicros();
  MutexLock lock(&log->mu);
  uint64_t pos = std::max(offset, log->base_offset);
  const uint64_t end = log->end_offset.load(std::memory_order_relaxed);
  while (pos < end && out->size() < max_messages) {
    const LogEntry& entry = log->entries[pos - log->base_offset];
    if (entry.visible_time > now) break;
    out->push_back(
        Message{tp.topic, tp.partition, pos, entry.key, entry.payload});
    ++pos;
  }
  return Status::OK();
}

Status InProcessBus::Seek(const std::string& consumer_id,
                          const TopicPartition& tp, uint64_t offset) {
  // Clamp forward to the retention-trimmed head, exactly like Fetch: a
  // position inside truncated data is unreadable.
  PartitionLog* log = FindLog(tp);
  if (log != nullptr) {
    MutexLock lock(&log->mu);
    offset = std::max(offset, log->base_offset);
  }
  MutexLock lock(&group_mu_);
  auto it = consumers_.find(consumer_id);
  if (it == consumers_.end()) return Status::NotFound("no consumer");
  it->second.positions[tp] = offset;
  return Status::OK();
}

Status InProcessBus::Commit(const std::string& consumer_id,
                            const TopicPartition& tp, uint64_t offset) {
  PartitionLog* log = FindLog(tp);
  if (log == nullptr) return Status::NotFound("no partition " + tp.ToString());
  // A commit past the end would drop messages not produced yet.
  offset = std::min(offset, log->end_offset.load(std::memory_order_acquire));
  {
    MutexLock lock(&group_mu_);
    auto it = consumers_.find(consumer_id);
    if (it == consumers_.end()) return Status::NotFound("no consumer");
    auto committed = it->second.committed.find(tp);
    if (committed == it->second.committed.end()) {
      return Status::NotFound("consumer does not track " + tp.ToString());
    }
    if (offset <= committed->second) return Status::OK();
    committed->second = offset;
    RecomputeCommittedFloorLocked(tp);
  }
  MutexLock lock(&log->mu);
  TruncateLocked(log);
  return Status::OK();
}

StatusOr<uint64_t> InProcessBus::EndOffset(const TopicPartition& tp) const {
  auto t = FindTopic(tp.topic);
  if (t == nullptr) return Status::NotFound("no topic");
  if (tp.partition < 0 ||
      static_cast<size_t>(tp.partition) >= t->partitions.size()) {
    return Status::InvalidArgument("bad partition");
  }
  return t->partitions[static_cast<size_t>(tp.partition)]
      ->end_offset.load(std::memory_order_acquire);
}

StatusOr<uint64_t> InProcessBus::BaseOffset(const TopicPartition& tp) const {
  auto t = FindTopic(tp.topic);
  if (t == nullptr) return Status::NotFound("no topic");
  if (tp.partition < 0 ||
      static_cast<size_t>(tp.partition) >= t->partitions.size()) {
    return Status::InvalidArgument("bad partition");
  }
  PartitionLog* log = t->partitions[static_cast<size_t>(tp.partition)].get();
  MutexLock lock(&log->mu);
  return log->base_offset;
}

Status InProcessBus::KillConsumer(const std::string& consumer_id) {
  MutexLock lock(&group_mu_);
  auto it = consumers_.find(consumer_id);
  if (it == consumers_.end()) return Status::NotFound("no consumer");
  FenceLocked(consumer_id, &it->second);
  if (groups_.count(it->second.group) != 0) {
    RebalanceGroupLocked(it->second.group);
  }
  return Status::OK();
}

StatusOr<uint64_t> InProcessBus::PositionOf(const std::string& consumer_id,
                                            const TopicPartition& tp) const {
  MutexLock lock(&group_mu_);
  auto it = consumers_.find(consumer_id);
  if (it == consumers_.end()) return Status::NotFound("no consumer");
  auto pos = it->second.positions.find(tp);
  if (pos == it->second.positions.end()) {
    return Status::NotFound("consumer does not track " + tp.ToString());
  }
  return pos->second;
}

std::vector<TopicPartition> InProcessBus::AssignmentOf(
    const std::string& consumer_id) {
  MutexLock lock(&group_mu_);
  auto it = consumers_.find(consumer_id);
  if (it == consumers_.end()) return {};
  const Group& group = groups_[it->second.group];
  auto ait = group.current.find(consumer_id);
  return ait == group.current.end() ? std::vector<TopicPartition>{}
                                    : ait->second;
}

}  // namespace railgun::msg
