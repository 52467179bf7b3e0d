#include "engine/sticky_assignment.h"

#include <algorithm>
#include <cmath>

namespace railgun::engine {

namespace {

using msg::TopicPartition;

class Assigner {
 public:
  explicit Assigner(const TaskAssignmentInput& in) : in_(in) {
    double total_weight = 0;
    for (const auto& t : in.tasks) total_weight += WeightOf(t);
    const double copies =
        total_weight * std::max(1, in.replication_factor);
    budget_ = in.units.empty()
                  ? 0
                  : std::ceil(copies / static_cast<double>(in.units.size()));
    for (const auto& u : in.units) {
      remaining_[u.unit_id] = budget_;
      node_of_[u.unit_id] = u.node_id;
      load_[u.unit_id] = 0;
      topics_of_[u.unit_id] = u.topics;
    }
  }

  TaskAssignmentResult Run() {
    TaskAssignmentResult result;

    // ----- Active pass (Fig. 7, left) -----
    for (const auto& task : in_.tasks) {
      std::string unit;
      // 1. Previous active processor.
      auto prev = in_.prev_active.find(task);
      if (prev != in_.prev_active.end() &&
          CanAssign(task, prev->second)) {
        unit = prev->second;
      }
      // 2. Previous replica processor (least loaded).
      if (unit.empty()) {
        unit = PickLeastLoaded(task, in_.prev_replicas);
      }
      // 3. Stale processor.
      if (unit.empty()) {
        unit = PickLeastLoaded(task, in_.stale);
      }
      // 4. Least loaded overall.
      if (unit.empty()) {
        unit = PickLeastLoadedAny(task);
      }
      if (unit.empty()) continue;  // No capacity anywhere (no units).
      Install(task, unit);
      result.active[task] = unit;
      result.active_by_unit[unit].push_back(task);
      if (prev == in_.prev_active.end() || prev->second != unit) {
        ++result.moved_active;
      }
    }

    // ----- Replica pass (Fig. 7, right) -----
    const int num_replicas = std::max(0, in_.replication_factor - 1);
    for (int r = 0; r < num_replicas; ++r) {
      for (const auto& task : in_.tasks) {
        std::string unit = PickLeastLoaded(task, in_.prev_replicas);
        if (unit.empty()) unit = PickLeastLoaded(task, in_.stale);
        if (unit.empty()) unit = PickLeastLoadedAny(task);
        if (unit.empty()) continue;
        Install(task, unit);
        result.replicas[task].push_back(unit);
        result.replicas_by_unit[unit].push_back(task);
        const auto prev = in_.prev_replicas.find(task);
        if (prev == in_.prev_replicas.end() ||
            prev->second.count(unit) == 0) {
          ++result.moved_replicas;
        }
      }
    }
    return result;
  }

 private:
  double WeightOf(const TopicPartition& task) const {
    auto it = in_.weights.find(task);
    return it == in_.weights.end() ? 1.0 : it->second;
  }

  // A unit that didn't subscribe to the task's topic would consume and
  // drop its messages: never a candidate, not even as a fallback.
  bool Subscribed(const TopicPartition& task, const std::string& unit) const {
    return topics_of_.at(unit).count(task.topic) > 0;
  }

  bool CanAssign(const TopicPartition& task, const std::string& unit) const {
    auto rem = remaining_.find(unit);
    if (rem == remaining_.end()) return false;  // Unit no longer exists.
    if (!Subscribed(task, unit)) return false;
    if (rem->second < WeightOf(task)) return false;
    // Invariant 1: one copy per physical node.
    const std::string& node = node_of_.at(unit);
    auto nodes = task_nodes_.find(task);
    return nodes == task_nodes_.end() || nodes->second.count(node) == 0;
  }

  // Least-loaded member of the task's candidate set that can accept it.
  std::string PickLeastLoaded(
      const TopicPartition& task,
      const std::map<TopicPartition, std::set<std::string>>& candidates)
      const {
    auto it = candidates.find(task);
    if (it == candidates.end()) return "";
    std::string best;
    for (const auto& unit : it->second) {
      if (!CanAssign(task, unit)) continue;
      if (best.empty() || load_.at(unit) < load_.at(best)) best = unit;
    }
    return best;
  }

  std::string PickLeastLoadedAny(const TopicPartition& task) const {
    std::string best;
    for (const auto& u : in_.units) {
      if (!CanAssign(task, u.unit_id)) continue;
      if (best.empty() || load_.at(u.unit_id) < load_.at(best)) {
        best = u.unit_id;
      }
    }
    // Budget exhausted everywhere (rounding): fall back to the least
    // loaded unit on a node without a copy, ignoring budget.
    if (best.empty()) {
      for (const auto& u : in_.units) {
        if (!Subscribed(task, u.unit_id)) continue;
        const auto nodes = task_nodes_.find(task);
        if (nodes != task_nodes_.end() &&
            nodes->second.count(u.node_id) > 0) {
          continue;
        }
        if (best.empty() || load_.at(u.unit_id) < load_.at(best)) {
          best = u.unit_id;
        }
      }
    }
    return best;
  }

  void Install(const TopicPartition& task, const std::string& unit) {
    remaining_[unit] -= WeightOf(task);
    load_[unit] += WeightOf(task);
    task_nodes_[task].insert(node_of_.at(unit));
  }

  const TaskAssignmentInput& in_;
  double budget_ = 0;
  std::map<std::string, double> remaining_;
  std::map<std::string, double> load_;
  std::map<std::string, std::string> node_of_;
  std::map<std::string, std::set<std::string>> topics_of_;
  std::map<TopicPartition, std::set<std::string>> task_nodes_;
};

}  // namespace

TaskAssignmentResult ComputeStickyAssignment(const TaskAssignmentInput& in) {
  Assigner assigner(in);
  return assigner.Run();
}

}  // namespace railgun::engine
