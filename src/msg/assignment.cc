#include "msg/assignment.h"

#include <algorithm>

namespace railgun::msg {

Assignment RoundRobinStrategy::Assign(
    const std::vector<MemberInfo>& members,
    const std::vector<TopicPartition>& partitions) {
  Assignment result;
  if (members.empty()) return result;

  std::vector<const MemberInfo*> sorted_members;
  for (const auto& m : members) sorted_members.push_back(&m);
  std::sort(sorted_members.begin(), sorted_members.end(),
            [](const MemberInfo* a, const MemberInfo* b) {
              return a->member_id < b->member_id;
            });

  std::vector<TopicPartition> sorted = partitions;
  std::sort(sorted.begin(), sorted.end());

  size_t i = 0;
  for (const auto& tp : sorted) {
    // Round-robin over the members eligible for this partition's topic.
    const MemberInfo* picked = nullptr;
    for (size_t probe = 0; probe < sorted_members.size(); ++probe) {
      const MemberInfo* m = sorted_members[(i + probe) % sorted_members.size()];
      if (std::find(m->topics.begin(), m->topics.end(), tp.topic) !=
          m->topics.end()) {
        picked = m;
        break;
      }
    }
    ++i;
    if (picked == nullptr) continue;  // Nobody subscribed: leave unowned.
    result[picked->member_id].push_back(tp);
  }
  return result;
}

}  // namespace railgun::msg
