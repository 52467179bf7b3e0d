#include "engine/coordinator.h"

namespace railgun::engine {

namespace {
// Extracts "node=<id>" from member metadata.
std::string NodeOf(const std::string& metadata) {
  const size_t pos = metadata.find("node=");
  if (pos == std::string::npos) return metadata;
  const size_t start = pos + 5;
  const size_t end = metadata.find(';', start);
  return metadata.substr(start, end == std::string::npos ? std::string::npos
                                                         : end - start);
}
}  // namespace

msg::Assignment Coordinator::Assign(
    const std::vector<msg::MemberInfo>& members,
    const std::vector<msg::TopicPartition>& partitions) {
  MutexLock lock(&mu_);

  TaskAssignmentInput input;
  input.tasks = partitions;
  input.replication_factor = replication_factor_;
  for (const auto& m : members) {
    // A unit joins before its first stream arrives; until then it holds
    // no task, active or replica, and does not count toward the budget.
    if (m.topics.empty()) continue;
    input.units.push_back(
        {m.member_id, NodeOf(m.metadata),
         std::set<std::string>(m.topics.begin(), m.topics.end())});
  }
  input.prev_active = prev_active_;
  input.prev_replicas = prev_replicas_;
  input.stale = stale_;

  TaskAssignmentResult result = ComputeStickyAssignment(input);

  // Units that lost a copy keep data leftovers: record them as stale.
  for (const auto& [task, unit] : prev_active_) {
    const auto now_active = result.active.find(task);
    const bool still_holds =
        (now_active != result.active.end() && now_active->second == unit);
    bool is_replica = false;
    auto reps = result.replicas.find(task);
    if (reps != result.replicas.end()) {
      for (const auto& r : reps->second) {
        if (r == unit) is_replica = true;
      }
    }
    if (!still_holds && !is_replica) stale_[task].insert(unit);
  }
  for (const auto& [task, units] : prev_replicas_) {
    for (const auto& unit : units) {
      const auto now_active = result.active.find(task);
      const bool is_active =
          (now_active != result.active.end() && now_active->second == unit);
      bool is_replica = false;
      auto reps = result.replicas.find(task);
      if (reps != result.replicas.end()) {
        for (const auto& r : reps->second) {
          if (r == unit) is_replica = true;
        }
      }
      if (!is_active && !is_replica) stale_[task].insert(unit);
    }
  }
  // Current holders are no longer stale.
  for (const auto& [task, unit] : result.active) stale_[task].erase(unit);
  for (const auto& [task, units] : result.replicas) {
    for (const auto& unit : units) stale_[task].erase(unit);
  }

  prev_active_ = result.active;
  prev_replicas_.clear();
  for (const auto& [task, units] : result.replicas) {
    prev_replicas_[task] = std::set<std::string>(units.begin(), units.end());
  }
  replicas_by_unit_ = result.replicas_by_unit;
  total_moved_active_ += result.moved_active;
  total_moved_replicas_ += result.moved_replicas;
  ++generation_;

  msg::Assignment out;
  for (const auto& m : members) {
    out[m.member_id] = {};  // Every member appears, even if empty.
  }
  for (const auto& [unit, tasks] : result.active_by_unit) {
    out[unit] = tasks;
  }
  return out;
}

void Coordinator::RegisterUnitDir(const std::string& unit_id,
                                  const std::string& dir) {
  MutexLock lock(&mu_);
  unit_dirs_[unit_id] = dir;
}

std::vector<msg::TopicPartition> Coordinator::ReplicaTasksFor(
    const std::string& unit_id) {
  MutexLock lock(&mu_);
  auto it = replicas_by_unit_.find(unit_id);
  return it == replicas_by_unit_.end() ? std::vector<msg::TopicPartition>{}
                                       : it->second;
}

std::string Coordinator::FindDonorDir(const msg::TopicPartition& task,
                                      const std::string& requesting_unit) {
  MutexLock lock(&mu_);
  auto dir_of = [&](const std::string& unit) -> std::string {
    auto it = unit_dirs_.find(unit);
    if (it == unit_dirs_.end()) return "";
    return it->second + "/" + TaskSubdir(task);
  };

  auto active = prev_active_.find(task);
  if (active != prev_active_.end() && active->second != requesting_unit) {
    const std::string dir = dir_of(active->second);
    if (!dir.empty()) return dir;
  }
  auto reps = prev_replicas_.find(task);
  if (reps != prev_replicas_.end()) {
    for (const auto& unit : reps->second) {
      if (unit == requesting_unit) continue;
      const std::string dir = dir_of(unit);
      if (!dir.empty()) return dir;
    }
  }
  auto stale = stale_.find(task);
  if (stale != stale_.end()) {
    for (const auto& unit : stale->second) {
      if (unit == requesting_unit) continue;
      const std::string dir = dir_of(unit);
      if (!dir.empty()) return dir;
    }
  }
  return "";
}

}  // namespace railgun::engine
