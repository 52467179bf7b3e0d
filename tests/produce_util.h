// Test helpers over msg::Bus::ProduceBatch, the bus's one produce call.
#ifndef RAILGUN_TESTS_PRODUCE_UTIL_H_
#define RAILGUN_TESTS_PRODUCE_UTIL_H_

#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "msg/bus.h"

namespace railgun::msg {

// Publishes one keyed record as a one-record batch.
inline Status ProduceOne(Bus* bus, const std::string& topic, std::string key,
                         std::string payload) {
  std::vector<ProduceRecord> records;
  records.push_back({std::move(key), std::move(payload)});
  return bus->ProduceBatch(topic, std::move(records));
}

// A key ProduceBatch routes to `partition` of a topic with `partitions`
// partitions (partition = Hash64(key) % partitions).
inline std::string KeyForPartition(int partition, int partitions) {
  for (int i = 0;; ++i) {
    std::string key = "k" + std::to_string(i);
    if (Hash64(key) % static_cast<uint64_t>(partitions) ==
        static_cast<uint64_t>(partition)) {
      return key;
    }
  }
}

}  // namespace railgun::msg

#endif  // RAILGUN_TESTS_PRODUCE_UTIL_H_
