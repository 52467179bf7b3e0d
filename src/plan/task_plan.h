// Task plan (paper §4.1.2): a DAG of Window -> Filter -> GroupBy ->
// Aggregator operators computing every metric of a task, with shared
// prefixes. Metrics that share a window, filter and group-by reuse the
// same DAG path, so each arriving event advances each distinct window
// once and touches one state-store key per DAG leaf (§4.1.3), plus one
// per-value count per event for a countDistinct leaf.
#ifndef RAILGUN_PLAN_TASK_PLAN_H_
#define RAILGUN_PLAN_TASK_PLAN_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "agg/aggregator.h"
#include "common/status.h"
#include "query/query.h"
#include "reservoir/reservoir.h"
#include "storage/db.h"
#include "window/window_operator.h"

namespace railgun::plan {

// One computed aggregation for the arriving event's entity.
struct MetricResult {
  uint64_t metric_id;
  std::string metric_name;
  std::string group_key;
  reservoir::FieldValue value;
};

class TaskPlan {
 public:
  // All pointers are borrowed and must outlive the plan. Every record
  // the plan keeps lives in the DB's one keyspace: each leaf's state
  // under StateKey ("m..."), and countDistinct's per-value counts under
  // keys the aggregator derives from that state key (aggregator.cc).
  TaskPlan(reservoir::Reservoir* reservoir, storage::DB* db);

  TaskPlan(const TaskPlan&) = delete;
  TaskPlan& operator=(const TaskPlan&) = delete;

  // Registers a query's metrics into the DAG (prefix-shared).
  Status AddQuery(const query::QueryDef& query);

  // Registers a query and backfills its aggregation state from the
  // events already in the reservoir (paper §6 future work), stopping at
  // the first event past `last_offset`: a recovering task has persisted
  // events it will replay through the whole plan. The new metrics run in
  // their own DAG island so historical replay cannot disturb the
  // positions of existing window iterators.
  Status AddQueryBackfilled(const query::QueryDef& query,
                            int64_t last_offset = INT64_MAX);

  // True when a query with this raw statement text is planned.
  bool HasQuery(const std::string& raw) const;

  // Advances every window for the arriving event (already appended to
  // the reservoir) and updates all aggregation states. Appends one
  // MetricResult per metric whose filter accepts the event, keyed by the
  // event's group-by values. Pass results == nullptr to skip result
  // reporting (fire-and-forget ingestion; state is still updated).
  Status ProcessEvent(const reservoir::Event& event,
                      std::vector<MetricResult>* results);

  // Checkpoint support. Save writes a self-describing blob: for each
  // island, the raw text of its queries in the order they were added,
  // then its window positions, all under a checksum. Restore runs on a
  // plan that holds no queries: it rebuilds every island from the blob
  // (same metric ids, no replay: the state is already in the DB) and
  // positions its windows. A blob that does not decode, or whose
  // positions do not match the rebuilt windows, is Corruption and leaves
  // the plan unusable.
  void Save(std::string* blob) const;
  Status Restore(const std::string& blob);

  // DAG introspection (tests + DESIGN ablations).
  size_t num_window_nodes() const;
  size_t num_filter_nodes() const;
  size_t num_group_nodes() const;
  size_t num_metrics() const { return num_metrics_; }
  size_t num_edge_iterators() const;

 private:
  struct MetricLeaf {
    uint64_t metric_id;
    std::string name;
    int field_index;  // -1 => count(*) style (value 1).
    std::unique_ptr<agg::Aggregator> aggregator;
  };

  struct GroupNode {
    std::vector<std::string> fields;
    std::vector<int> field_indices;
    std::string key;  // Canonical field list.
    std::vector<MetricLeaf> metrics;
  };

  struct FilterNode {
    std::shared_ptr<query::Expr> expr;  // Null = pass-through.
    std::string key;                    // Canonical expression text.
    std::vector<GroupNode> groups;
  };

  struct WindowNode {
    window::WindowSpec spec;
    window::WindowOperator* op = nullptr;
    std::vector<FilterNode> filters;
  };

  // An island is an independently advanced sub-DAG; island 0 holds all
  // normally added queries, and each backfilled query gets its own.
  struct Island {
    explicit Island(reservoir::Reservoir* reservoir) : windows_mgr(reservoir) {}
    // Raw text of the island's queries, in the order they were added.
    std::vector<std::string> queries;
    window::WindowManager windows_mgr;
    std::vector<WindowNode> windows;
    // Per-event scratch, reused so warm edges decode without allocating.
    window::EdgeDeltas edges;
    window::WindowDelta delta;
  };

  Status AddQueryToIsland(const query::QueryDef& query, Island* island);
  Status ProcessEventInIsland(const reservoir::Event& event, Island* island,
                              std::vector<MetricResult>* results);
  Status ApplyDelta(const window::WindowDelta& delta, WindowNode* node);
  // Applies a filter-accepted event list to one group node: each run of
  // consecutive events with the same group key becomes one Enter/Expire
  // call per leaf (one state Get/Put per run per leaf).
  Status ApplyEventRun(const std::vector<const reservoir::Event*>& events,
                       bool entering, Micros epoch, GroupNode* gnode);

  // State-store key for a (metric, epoch, entity): "m<metric>[@<epoch>]|"
  // then the group key. Digits end at the first '|', so two different
  // triples never share a key.
  static std::string StateKey(uint64_t metric_id, Micros epoch,
                              const std::string& group_key);
  static std::string GroupKeyOf(const reservoir::Event& event,
                                const GroupNode& group);

  reservoir::Reservoir* reservoir_;
  storage::DB* db_;
  std::vector<std::unique_ptr<Island>> islands_;
  uint64_t next_metric_id_ = 1;
  size_t num_metrics_ = 0;

  // Delta-application scratch, reused across events/batches.
  std::vector<const reservoir::Event*> scratch_filtered_;
};

}  // namespace railgun::plan

#endif  // RAILGUN_PLAN_TASK_PLAN_H_
