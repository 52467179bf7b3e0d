// Railgun's sticky, locality-aware task assignment (paper Fig. 7, §4.2).
//
// A task is a (topic, partition). Each rebalance assigns every task to
// exactly one *active* processor unit and replication_factor - 1
// *replica* units, protecting two invariants:
//   1. a physical node holds at most one copy of a task;
//   2. no unit exceeds its budget = ceil(total copies / units).
// Preference order for actives: previous active -> previous replica
// (least loaded) -> stale holder -> least loaded. For replicas:
// previous replica -> stale holder -> least loaded.
#ifndef RAILGUN_ENGINE_STICKY_ASSIGNMENT_H_
#define RAILGUN_ENGINE_STICKY_ASSIGNMENT_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "msg/message.h"

namespace railgun::engine {

struct UnitDesc {
  std::string unit_id;
  std::string node_id;
  // Topics this unit subscribed to; a task is only assignable to units
  // subscribed to its topic, so a unit with no topics gets nothing.
  std::set<std::string> topics;
};

struct TaskAssignmentInput {
  std::vector<msg::TopicPartition> tasks;
  std::vector<UnitDesc> units;
  int replication_factor = 1;
  // State from the previous generation.
  std::map<msg::TopicPartition, std::string> prev_active;
  std::map<msg::TopicPartition, std::set<std::string>> prev_replicas;
  // Units that held the task in the past and still have data leftovers.
  std::map<msg::TopicPartition, std::set<std::string>> stale;
  // Optional per-task weights (default 1.0) — the paper's future-work
  // refinement for heterogeneous task costs.
  std::map<msg::TopicPartition, double> weights;
};

struct TaskAssignmentResult {
  std::map<msg::TopicPartition, std::string> active;  // task -> unit.
  std::map<msg::TopicPartition, std::vector<std::string>> replicas;
  // Convenience inversions.
  std::map<std::string, std::vector<msg::TopicPartition>> active_by_unit;
  std::map<std::string, std::vector<msg::TopicPartition>> replicas_by_unit;
  // Tasks whose active unit changed (data-shuffle indicator measured by
  // the rebalance ablation).
  int moved_active = 0;
  int moved_replicas = 0;
};

TaskAssignmentResult ComputeStickyAssignment(const TaskAssignmentInput& in);

}  // namespace railgun::engine

#endif  // RAILGUN_ENGINE_STICKY_ASSIGNMENT_H_
