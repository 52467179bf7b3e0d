// Message model of the messaging layer (the role Kafka plays in the
// paper §3.3): partitioned, offset-addressed, replayable logs.
#ifndef RAILGUN_MSG_MESSAGE_H_
#define RAILGUN_MSG_MESSAGE_H_

#include <cstdint>
#include <string>

namespace railgun::msg {

struct TopicPartition {
  std::string topic;
  int partition = 0;

  bool operator==(const TopicPartition& other) const {
    return partition == other.partition && topic == other.topic;
  }
  bool operator<(const TopicPartition& other) const {
    if (topic != other.topic) return topic < other.topic;
    return partition < other.partition;
  }
  std::string ToString() const {
    return topic + "-" + std::to_string(partition);
  }
};

struct Message {
  std::string topic;
  int partition = 0;
  uint64_t offset = 0;
  std::string key;
  std::string payload;
};

}  // namespace railgun::msg

#endif  // RAILGUN_MSG_MESSAGE_H_
