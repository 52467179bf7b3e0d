// Tests for the Fig. 7 sticky assignment strategy: the two invariants
// (one copy per physical node, budget respected), the preference order
// (previous active -> previous replica -> stale -> least loaded), and
// stickiness under churn.
#include <gtest/gtest.h>

#include "engine/sticky_assignment.h"

namespace railgun::engine {
namespace {

using msg::TopicPartition;

std::vector<TopicPartition> MakeTasks(int n) {
  std::vector<TopicPartition> tasks;
  for (int i = 0; i < n; ++i) tasks.push_back({"t", i});
  return tasks;
}

// Units: `units_per_node` per node across `nodes` nodes, each subscribed
// to `topics`.
std::vector<UnitDesc> MakeUnits(int nodes, int units_per_node,
                                const std::set<std::string>& topics) {
  std::vector<UnitDesc> units;
  for (int n = 0; n < nodes; ++n) {
    for (int u = 0; u < units_per_node; ++u) {
      units.push_back({"n" + std::to_string(n) + "/u" + std::to_string(u),
                       "n" + std::to_string(n), topics});
    }
  }
  return units;
}

TEST(StickyAssignmentTest, AssignsEveryTaskExactlyOnce) {
  TaskAssignmentInput in;
  in.tasks = MakeTasks(8);
  in.units = MakeUnits(2, 2, {"t"});
  in.replication_factor = 1;
  const auto result = ComputeStickyAssignment(in);
  EXPECT_EQ(result.active.size(), 8u);
  EXPECT_TRUE(result.replicas.empty());
}

TEST(StickyAssignmentTest, BudgetBalancesLoad) {
  TaskAssignmentInput in;
  in.tasks = MakeTasks(8);
  in.units = MakeUnits(2, 2, {"t"});  // 4 units, budget = 2.
  const auto result = ComputeStickyAssignment(in);
  for (const auto& [unit, tasks] : result.active_by_unit) {
    EXPECT_LE(tasks.size(), 2u) << unit;
  }
}

TEST(StickyAssignmentTest, ReplicasNeverColocateWithActiveOnSameNode) {
  TaskAssignmentInput in;
  in.tasks = MakeTasks(6);
  in.units = MakeUnits(3, 2, {"t"});
  in.replication_factor = 2;
  const auto result = ComputeStickyAssignment(in);
  ASSERT_EQ(result.active.size(), 6u);
  for (const auto& [task, active_unit] : result.active) {
    const std::string active_node =
        active_unit.substr(0, active_unit.find('/'));
    const auto reps = result.replicas.find(task);
    ASSERT_NE(reps, result.replicas.end());
    EXPECT_EQ(reps->second.size(), 1u);
    for (const auto& replica_unit : reps->second) {
      const std::string replica_node =
          replica_unit.substr(0, replica_unit.find('/'));
      EXPECT_NE(replica_node, active_node) << task.ToString();
    }
  }
}

TEST(StickyAssignmentTest, StickinessKeepsPreviousActives) {
  TaskAssignmentInput in;
  in.tasks = MakeTasks(8);
  in.units = MakeUnits(4, 1, {"t"});
  const auto first = ComputeStickyAssignment(in);

  // Re-run with the previous assignment: nothing should move.
  in.prev_active = first.active;
  const auto second = ComputeStickyAssignment(in);
  EXPECT_EQ(second.moved_active, 0);
  EXPECT_EQ(second.active, first.active);
}

TEST(StickyAssignmentTest, FailedNodesTasksGoToTheirReplicas) {
  TaskAssignmentInput in;
  in.tasks = MakeTasks(4);
  in.units = MakeUnits(3, 1, {"t"});
  in.replication_factor = 2;
  const auto first = ComputeStickyAssignment(in);

  // Remove node n0's unit; its active tasks must land on a unit that was
  // previously a replica for them (Fig. 7 second preference).
  TaskAssignmentInput in2 = in;
  in2.units.clear();
  for (const auto& u : in.units) {
    if (u.node_id != "n0") in2.units.push_back(u);
  }
  in2.prev_active = first.active;
  for (const auto& [task, units] : first.replicas) {
    in2.prev_replicas[task] =
        std::set<std::string>(units.begin(), units.end());
  }
  const auto second = ComputeStickyAssignment(in2);
  for (const auto& [task, unit] : first.active) {
    if (unit.rfind("n0/", 0) != 0) continue;  // Survivor, stays.
    const auto& new_unit = second.active.at(task);
    EXPECT_TRUE(in2.prev_replicas[task].count(new_unit) > 0)
        << task.ToString() << " went to " << new_unit
        << " which was not a previous replica";
  }
  // Survivors keep their tasks.
  for (const auto& [task, unit] : first.active) {
    if (unit.rfind("n0/", 0) == 0) continue;
    EXPECT_EQ(second.active.at(task), unit);
  }
}

TEST(StickyAssignmentTest, StalePreferredOverCold) {
  // One task, two candidate units; u_stale previously held the task.
  TaskAssignmentInput in;
  in.tasks = MakeTasks(1);
  in.units = {{"u_stale", "nA", {"t"}}, {"u_cold", "nB", {"t"}}};
  in.stale[{"t", 0}] = {"u_stale"};
  const auto result = ComputeStickyAssignment(in);
  EXPECT_EQ(result.active.at({"t", 0}), "u_stale");
}

TEST(StickyAssignmentTest, WeightedTasksReduceColocation) {
  TaskAssignmentInput in;
  in.tasks = MakeTasks(4);
  in.units = MakeUnits(2, 1, {"t"});
  in.weights[{"t", 0}] = 3.0;  // One heavy task.
  const auto result = ComputeStickyAssignment(in);
  // The heavy task's unit should carry fewer additional tasks than the
  // other unit: total weight 6, budget 3 per unit.
  const std::string heavy_unit = result.active.at({"t", 0});
  EXPECT_LE(result.active_by_unit.at(heavy_unit).size(), 2u);
}

TEST(StickyAssignmentTest, MoreUnitsThanTasksLeavesSomeIdle) {
  TaskAssignmentInput in;
  in.tasks = MakeTasks(2);
  in.units = MakeUnits(4, 2, {"t"});
  const auto result = ComputeStickyAssignment(in);
  EXPECT_EQ(result.active.size(), 2u);
  size_t assigned_units = result.active_by_unit.size();
  EXPECT_LE(assigned_units, 2u);
}

TEST(StickyAssignmentTest, ReplicationCappedByNodeCount) {
  // 2 nodes, replication 3: at most 2 copies can respect the
  // one-copy-per-node invariant; the assigner falls back gracefully.
  TaskAssignmentInput in;
  in.tasks = MakeTasks(2);
  in.units = MakeUnits(2, 2, {"t"});
  in.replication_factor = 3;
  const auto result = ComputeStickyAssignment(in);
  for (const auto& [task, units] : result.replicas) {
    std::set<std::string> nodes;
    nodes.insert(result.active.at(task).substr(0, 2));
    for (const auto& u : units) {
      nodes.insert(u.substr(0, 2));
    }
    // No node carries two copies.
    EXPECT_EQ(nodes.size(), 1u + units.size());
  }
}

TEST(StickyAssignmentTest, EmptyClusterProducesEmptyAssignment) {
  TaskAssignmentInput in;
  in.tasks = MakeTasks(4);
  const auto result = ComputeStickyAssignment(in);
  EXPECT_TRUE(result.active.empty());
}

TEST(StickyAssignmentTest, TasksOnlyLandOnSubscribedUnits) {
  // Mid-transition group: a new stream "fresh" exists but only half the
  // units registered it yet. A unit that didn't subscribe would consume
  // and drop the topic's messages, so it must never receive the task —
  // not even through the budget-exhausted fallback.
  TaskAssignmentInput in;
  for (int i = 0; i < 4; ++i) in.tasks.push_back({"old", i});
  for (int i = 0; i < 4; ++i) in.tasks.push_back({"fresh", i});
  in.units = MakeUnits(2, 2, {"old"});
  in.units[0].topics = {"old"};
  in.units[1].topics = {"old"};
  in.units[2].topics = {"old", "fresh"};
  in.units[3].topics = {"old", "fresh"};
  const auto result = ComputeStickyAssignment(in);
  ASSERT_EQ(result.active.size(), in.tasks.size());
  for (const auto& [task, unit] : result.active) {
    if (task.topic == "fresh") {
      EXPECT_TRUE(unit == in.units[2].unit_id || unit == in.units[3].unit_id)
          << task.topic << "/" << task.partition << " -> " << unit;
    }
  }

  // Stickiness must also yield when an owner unsubscribes from a topic:
  // the previous active is no longer eligible.
  TaskAssignmentInput next = in;
  next.prev_active = result.active;
  next.units[2].topics = {"old"};
  next.units[3].topics = {"old"};
  next.units[0].topics = {"old", "fresh"};
  next.units[1].topics = {"old", "fresh"};
  const auto moved = ComputeStickyAssignment(next);
  for (const auto& [task, unit] : moved.active) {
    if (task.topic == "fresh") {
      EXPECT_TRUE(unit == in.units[0].unit_id || unit == in.units[1].unit_id)
          << task.topic << "/" << task.partition << " -> " << unit;
    }
  }
}

TEST(StickyAssignmentTest, NoSubscriberLeavesTaskUnassigned) {
  TaskAssignmentInput in;
  in.tasks = MakeTasks(2);
  in.tasks.push_back({"orphan", 0});
  in.units = MakeUnits(1, 2, {"t"});
  const auto result = ComputeStickyAssignment(in);
  // "t" tasks assigned; the orphan topic waits for a subscriber instead
  // of being consumed-and-dropped.
  EXPECT_EQ(result.active.size(), 2u);
  EXPECT_EQ(result.active.count({"orphan", 0}), 0u);
}

TEST(StickyAssignmentTest, UnitWithoutTopicsGetsNothing) {
  TaskAssignmentInput in;
  in.tasks = MakeTasks(4);
  in.units = MakeUnits(2, 1, {"t"});
  in.units[1].topics.clear();
  in.replication_factor = 2;
  const auto result = ComputeStickyAssignment(in);
  EXPECT_EQ(result.active.size(), 4u);
  EXPECT_EQ(result.active_by_unit.count(in.units[1].unit_id), 0u);
  EXPECT_EQ(result.replicas_by_unit.count(in.units[1].unit_id), 0u);
}

}  // namespace
}  // namespace railgun::engine
