// Pluggable partition-assignment strategy invoked by the group
// coordinator on every rebalance (paper §4.2). Railgun installs its
// sticky, locality-aware strategy from src/engine; a round-robin
// fallback lives here for baselines and ablations.
#ifndef RAILGUN_MSG_ASSIGNMENT_H_
#define RAILGUN_MSG_ASSIGNMENT_H_

#include <map>
#include <string>
#include <vector>

#include "msg/message.h"

namespace railgun::msg {

struct MemberInfo {
  std::string member_id;
  // Opaque locality metadata supplied at subscription (Railgun packs the
  // physical node id here so the strategy can enforce its invariants).
  std::string metadata;
  // Partitions this member held in the previous generation.
  std::vector<TopicPartition> previous_assignment;
  // Topics this member subscribed to. Members of one group may be
  // mid-transition on different topic sets (a stream created while
  // some units haven't registered it yet); a strategy must never hand
  // a partition to a member that didn't subscribe to its topic — the
  // member would consume and drop the messages. A member with no topics
  // gets nothing.
  std::vector<std::string> topics;
};

using Assignment = std::map<std::string, std::vector<TopicPartition>>;

class AssignmentStrategy {
 public:
  virtual ~AssignmentStrategy() = default;
  virtual Assignment Assign(const std::vector<MemberInfo>& members,
                            const std::vector<TopicPartition>& partitions) = 0;
  virtual std::string name() const = 0;
};

// Deterministic round-robin (the non-sticky baseline in the rebalance
// ablation).
class RoundRobinStrategy : public AssignmentStrategy {
 public:
  Assignment Assign(const std::vector<MemberInfo>& members,
                    const std::vector<TopicPartition>& partitions) override;
  std::string name() const override { return "round-robin"; }
};

}  // namespace railgun::msg

#endif  // RAILGUN_MSG_ASSIGNMENT_H_
