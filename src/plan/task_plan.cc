#include "plan/task_plan.h"

#include <algorithm>

#include "common/coding.h"
#include "common/crc32c.h"

namespace railgun::plan {

using reservoir::Event;
using reservoir::FieldValue;
using window::WindowDelta;
using window::WindowKind;

TaskPlan::TaskPlan(reservoir::Reservoir* reservoir, storage::DB* db)
    : reservoir_(reservoir), db_(db) {
  islands_.push_back(std::make_unique<Island>(reservoir_));
}

Status TaskPlan::AddQuery(const query::QueryDef& query) {
  return AddQueryToIsland(query, islands_[0].get());
}

Status TaskPlan::AddQueryToIsland(const query::QueryDef& query,
                                  Island* island) {
  const reservoir::Schema* schema = reservoir_->schema();

  // Window node (prefix level 1).
  WindowNode* wnode = nullptr;
  for (auto& w : island->windows) {
    if (w.spec == query.window) {
      wnode = &w;
      break;
    }
  }
  if (wnode == nullptr) {
    island->windows.emplace_back();
    wnode = &island->windows.back();
    wnode->spec = query.window;
    wnode->op = island->windows_mgr.GetOrCreate(query.window);
  }

  // Filter node (prefix level 2).
  const std::string filter_key =
      query.filter == nullptr ? "" : query.filter->ToString();
  FilterNode* fnode = nullptr;
  for (auto& f : wnode->filters) {
    if (f.key == filter_key) {
      fnode = &f;
      break;
    }
  }
  if (fnode == nullptr) {
    wnode->filters.emplace_back();
    fnode = &wnode->filters.back();
    fnode->key = filter_key;
    fnode->expr = query.filter;
    if (fnode->expr != nullptr) {
      RAILGUN_RETURN_IF_ERROR(fnode->expr->Bind(*schema));
    }
  }

  // Group node (prefix level 3).
  std::string group_key_id;
  for (const auto& f : query.group_by) group_key_id += f + ",";
  GroupNode* gnode = nullptr;
  for (auto& g : fnode->groups) {
    if (g.key == group_key_id) {
      gnode = &g;
      break;
    }
  }
  if (gnode == nullptr) {
    fnode->groups.emplace_back();
    gnode = &fnode->groups.back();
    gnode->key = group_key_id;
    gnode->fields = query.group_by;
    for (const auto& field : query.group_by) {
      const int idx = schema->FieldIndex(field);
      if (idx < 0) {
        return Status::InvalidArgument("unknown group-by field: " + field);
      }
      gnode->field_indices.push_back(idx);
    }
  }

  // Aggregator leaves.
  for (const auto& agg_spec : query.aggs) {
    MetricLeaf leaf;
    leaf.metric_id = next_metric_id_++;
    leaf.field_index = -1;
    if (!agg_spec.field.empty()) {
      leaf.field_index = schema->FieldIndex(agg_spec.field);
      if (leaf.field_index < 0) {
        return Status::InvalidArgument("unknown aggregation field: " +
                                       agg_spec.field);
      }
    }
    leaf.name = agg_spec.name + " over " + query.window.ToString();
    if (!query.group_by.empty()) {
      leaf.name += " by " + group_key_id.substr(0, group_key_id.size() - 1);
    }
    leaf.aggregator = agg::Aggregator::Create(agg_spec.kind);
    gnode->metrics.push_back(std::move(leaf));
    ++num_metrics_;
  }
  island->queries.push_back(query.raw);
  return Status::OK();
}

bool TaskPlan::HasQuery(const std::string& raw) const {
  return std::any_of(islands_.begin(), islands_.end(), [&](const auto& i) {
    return std::count(i->queries.begin(), i->queries.end(), raw) > 0;
  });
}

Status TaskPlan::AddQueryBackfilled(const query::QueryDef& query,
                                    int64_t last_offset) {
  auto island = std::make_unique<Island>(reservoir_);
  RAILGUN_RETURN_IF_ERROR(AddQueryToIsland(query, island.get()));

  // Replay history through the new island only. The island's iterators
  // start at the oldest event, so the window mechanics replay exactly.
  auto replay_iter = reservoir_->NewIterator();
  while (!replay_iter->AtEnd()) {
    const Event& event = replay_iter->event();
    if (static_cast<int64_t>(event.offset) > last_offset) break;
    RAILGUN_RETURN_IF_ERROR(
        ProcessEventInIsland(event, island.get(), /*results=*/nullptr));
    replay_iter->Advance();
  }
  RAILGUN_RETURN_IF_ERROR(replay_iter->status());
  islands_.push_back(std::move(island));
  return Status::OK();
}

Status TaskPlan::ProcessEvent(const Event& event,
                              std::vector<MetricResult>* results) {
  for (auto& island : islands_) {
    RAILGUN_RETURN_IF_ERROR(
        ProcessEventInIsland(event, island.get(), results));
  }
  return Status::OK();
}

Status TaskPlan::ProcessEventInIsland(const Event& event, Island* island,
                                      std::vector<MetricResult>* results) {
  // An edge that could not read a chunk still hands over what it drained
  // before the error. Every drained event is applied, so none enters or
  // expires twice or never; then the event fails with the read error.
  Status edge_status =
      island->windows_mgr.Advance(event.timestamp, &island->edges);

  WindowDelta& delta = island->delta;
  for (auto& wnode : island->windows) {
    const Status collected =
        wnode.op->Collect(event.timestamp, island->edges, &delta);
    if (edge_status.ok()) edge_status = collected;
    RAILGUN_RETURN_IF_ERROR(ApplyDelta(delta, &wnode));

    // Report the (updated) aggregations for the arriving event's entity.
    if (results == nullptr || !edge_status.ok()) continue;
    const Micros epoch =
        wnode.spec.kind == WindowKind::kTumbling ? delta.epoch : 0;
    for (auto& fnode : wnode.filters) {
      if (fnode.expr != nullptr && !fnode.expr->EvalBool(event)) continue;
      for (auto& gnode : fnode.groups) {
        const std::string group_key = GroupKeyOf(event, gnode);
        for (auto& leaf : gnode.metrics) {
          const std::string key =
              StateKey(leaf.metric_id, epoch, group_key);
          std::string state;
          Status s = db_->Get(storage::kDefaultColumnFamily, key, &state);
          if (!s.ok() && !s.IsNotFound()) return s;
          RAILGUN_ASSIGN_OR_RETURN(FieldValue value,
                                   leaf.aggregator->Result(state));
          results->push_back(
              MetricResult{leaf.metric_id, leaf.name, group_key, value});
        }
      }
    }
  }
  return edge_status;
}

Status TaskPlan::ApplyDelta(const WindowDelta& delta, WindowNode* node) {
  const Micros epoch =
      node->spec.kind == WindowKind::kTumbling ? delta.epoch : 0;
  for (auto& fnode : node->filters) {
    // Evaluate the filter once per event, then hand each group node the
    // accepted events so same-group stretches collapse into one
    // aggregator call per leaf.
    scratch_filtered_.clear();
    for (const Event* e : delta.entered) {
      if (fnode.expr != nullptr && !fnode.expr->EvalBool(*e)) continue;
      scratch_filtered_.push_back(e);
    }
    for (auto& gnode : fnode.groups) {
      RAILGUN_RETURN_IF_ERROR(
          ApplyEventRun(scratch_filtered_, /*entering=*/true, epoch, &gnode));
    }

    scratch_filtered_.clear();
    for (const Event* e : delta.expired) {
      if (fnode.expr != nullptr && !fnode.expr->EvalBool(*e)) continue;
      scratch_filtered_.push_back(e);
    }
    for (auto& gnode : fnode.groups) {
      RAILGUN_RETURN_IF_ERROR(ApplyEventRun(scratch_filtered_,
                                            /*entering=*/false, epoch,
                                            &gnode));
    }
  }
  return Status::OK();
}

Status TaskPlan::ApplyEventRun(const std::vector<const Event*>& events,
                               bool entering, Micros epoch,
                               GroupNode* gnode) {
  size_t i = 0;
  while (i < events.size()) {
    const std::string group_key = GroupKeyOf(*events[i], *gnode);
    size_t j = i + 1;
    while (j < events.size() && GroupKeyOf(*events[j], *gnode) == group_key) {
      ++j;
    }
    for (auto& leaf : gnode->metrics) {
      const std::string key = StateKey(leaf.metric_id, epoch, group_key);
      std::string state;
      Status s = db_->Get(storage::kDefaultColumnFamily, key, &state);
      if (!s.ok() && !s.IsNotFound()) return s;
      agg::AggContext ctx{db_, key};
      RAILGUN_RETURN_IF_ERROR(
          entering ? leaf.aggregator->Enter(&events[i], j - i,
                                            leaf.field_index, &state, &ctx)
                   : leaf.aggregator->Expire(&events[i], j - i,
                                             leaf.field_index, &state, &ctx));
      RAILGUN_RETURN_IF_ERROR(
          db_->Put(storage::kDefaultColumnFamily, key, state));
    }
    i = j;
  }
  return Status::OK();
}

std::string TaskPlan::StateKey(uint64_t metric_id, Micros epoch,
                               const std::string& group_key) {
  std::string key = "m";
  key += std::to_string(metric_id);
  if (epoch != 0) {
    key += "@";
    key += std::to_string(epoch);
  }
  key += "|";
  key += group_key;
  return key;
}

std::string TaskPlan::GroupKeyOf(const Event& event, const GroupNode& group) {
  std::string key;
  for (size_t i = 0; i < group.field_indices.size(); ++i) {
    if (i > 0) key.push_back('\x1f');
    key += event.values[group.field_indices[i]].ToString();
  }
  return key;
}

void TaskPlan::Save(std::string* blob) const {
  // Layout: [island count, (query count, raw query*, window positions)*]
  // with every string length-prefixed, then a masked CRC32C of it all.
  const size_t start = blob->size();
  PutVarint32(blob, static_cast<uint32_t>(islands_.size()));
  std::string positions;
  for (const auto& island : islands_) {
    PutVarint32(blob, static_cast<uint32_t>(island->queries.size()));
    for (const auto& raw : island->queries) PutLengthPrefixedSlice(blob, raw);
    positions.clear();
    island->windows_mgr.SavePositions(&positions);
    PutLengthPrefixedSlice(blob, positions);
  }
  PutFixed32(blob, crc32c::Mask(crc32c::Value(blob->data() + start,
                                              blob->size() - start)));
}

Status TaskPlan::Restore(const std::string& blob) {
  if (islands_.size() != 1 || !islands_[0]->queries.empty()) {
    return Status::InvalidArgument("restore needs a plan without queries");
  }
  const Status corrupt = Status::Corruption("plan checkpoint does not decode");
  if (blob.size() < 4) return corrupt;
  const size_t body = blob.size() - 4;
  if (crc32c::Unmask(DecodeFixed32(blob.data() + body)) !=
      crc32c::Value(blob.data(), body)) {
    return Status::Corruption("plan checkpoint checksum mismatch");
  }
  Slice in(blob.data(), body), raw, positions;
  uint32_t num_islands, num_queries;
  if (!GetVarint32(&in, &num_islands) || num_islands == 0) return corrupt;
  for (uint32_t i = 0; i < num_islands; ++i) {
    if (i > 0) islands_.push_back(std::make_unique<Island>(reservoir_));
    Island* island = islands_.back().get();
    if (!GetVarint32(&in, &num_queries)) return corrupt;
    for (uint32_t q = 0; q < num_queries; ++q) {
      if (!GetLengthPrefixedSlice(&in, &raw)) return corrupt;
      RAILGUN_ASSIGN_OR_RETURN(query::QueryDef query,
                               query::ParseQuery(raw.ToString()));
      RAILGUN_RETURN_IF_ERROR(AddQueryToIsland(query, island));
    }
    if (!GetLengthPrefixedSlice(&in, &positions)) return corrupt;
    RAILGUN_RETURN_IF_ERROR(island->windows_mgr.RestorePositions(positions));
  }
  return in.empty() ? Status::OK() : corrupt;
}

size_t TaskPlan::num_window_nodes() const {
  size_t n = 0;
  for (const auto& island : islands_) n += island->windows.size();
  return n;
}

size_t TaskPlan::num_filter_nodes() const {
  size_t n = 0;
  for (const auto& island : islands_) {
    for (const auto& w : island->windows) n += w.filters.size();
  }
  return n;
}

size_t TaskPlan::num_group_nodes() const {
  size_t n = 0;
  for (const auto& island : islands_) {
    for (const auto& w : island->windows) {
      for (const auto& f : w.filters) n += f.groups.size();
    }
  }
  return n;
}

size_t TaskPlan::num_edge_iterators() const {
  size_t n = 0;
  for (const auto& island : islands_) {
    n += island->windows_mgr.num_edge_iterators();
  }
  return n;
}

}  // namespace railgun::plan
