// Contract checks of Bus::Commit and retention, shared by the in-process
// bus (msg_test) and the loopback transport (remote_test) so both run
// exactly the same sequence. Each check takes a bus without delivery
// delay on which it creates its own topics.
#ifndef RAILGUN_TESTS_COMMIT_CONTRACT_H_
#define RAILGUN_TESTS_COMMIT_CONTRACT_H_

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "msg/bus.h"
#include "produce_util.h"

namespace railgun::msg {

// One poll; the first one after a join delivers the assignment, from
// which the consumer tracks its partitions.
inline size_t PollCount(Bus* bus, const std::string& consumer,
                        std::vector<Message>* out = nullptr) {
  MessageBatch batch;
  EXPECT_TRUE(bus->PollBatch(consumer, 100, &batch).ok());
  if (out != nullptr) {
    out->clear();
    for (const MessageView& view : batch.views()) {
      out->push_back(view.ToMessage());
    }
  }
  return batch.size();
}

inline void ProduceN(Bus* bus, const std::string& topic, int n) {
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(ProduceOne(bus, topic, "k", "m" + std::to_string(i)).ok());
  }
}

inline uint64_t Base(Bus* bus, const TopicPartition& tp) {
  return bus->BaseOffset(tp).value();
}

// Consumers a and b, each in its own group, both track t-0.
inline void TwoTrackers(Bus* bus) {
  ASSERT_TRUE(bus->CreateTopic("t", 1).ok());
  for (const std::string consumer : {"a", "b"}) {
    ASSERT_TRUE(bus->Subscribe(consumer, "g-" + consumer, {"t"}, "", {}).ok());
    PollCount(bus, consumer);
  }
}

inline void CheckCommitBelowAnotherTrackersFloorDropsNothing(Bus* bus) {
  const TopicPartition tp{"t", 0};
  TwoTrackers(bus);
  ProduceN(bus, "t", 10);
  ASSERT_TRUE(bus->Commit("a", tp, 8).ok());
  // b never committed, so it holds the floor at 0.
  EXPECT_EQ(Base(bus, tp), 0u);
  std::vector<Message> out;
  ASSERT_TRUE(bus->Fetch(tp, 0, 100, &out).ok());
  EXPECT_EQ(out.size(), 10u);
  EXPECT_EQ(PollCount(bus, "b"), 10u);

  ASSERT_TRUE(bus->Commit("b", tp, 3).ok());
  EXPECT_EQ(Base(bus, tp), 3u);  // The lower of the two commits.
  ASSERT_TRUE(bus->Commit("b", tp, 10).ok());
  EXPECT_EQ(Base(bus, tp), 8u);
}

inline void CheckFencedTrackerHoldsTheFloorUntilItUnsubscribes(Bus* bus) {
  const TopicPartition tp{"t", 0};
  TwoTrackers(bus);
  ProduceN(bus, "t", 10);
  ASSERT_TRUE(bus->Commit("a", tp, 10).ok());
  ASSERT_TRUE(bus->Commit("b", tp, 4).ok());
  EXPECT_EQ(Base(bus, tp), 4u);

  // Fenced, b still tracks t-0: it may rejoin and resume at 4.
  ASSERT_TRUE(bus->KillConsumer("b").ok());
  ProduceN(bus, "t", 5);
  ASSERT_TRUE(bus->Commit("a", tp, 15).ok());
  EXPECT_EQ(Base(bus, tp), 4u);

  ASSERT_TRUE(bus->Unsubscribe("b").ok());
  EXPECT_EQ(Base(bus, tp), 15u);
}

inline void CheckUntrackedPartitionKeepsEverything(Bus* bus) {
  ASSERT_TRUE(bus->CreateTopic("t", 1).ok());
  ASSERT_TRUE(bus->CreateTopic("other", 1).ok());
  ASSERT_TRUE(bus->Subscribe("a", "g", {"other"}, "", {}).ok());
  PollCount(bus, "a");
  ProduceN(bus, "t", 20);
  ProduceN(bus, "other", 20);
  ASSERT_TRUE(bus->Commit("a", {"other", 0}, 20).ok());
  // Only a partition the consumer tracks takes its commit.
  EXPECT_TRUE(bus->Commit("a", {"t", 0}, 20).IsNotFound());
  EXPECT_TRUE(bus->Commit("nobody", {"other", 0}, 20).IsNotFound());
  EXPECT_EQ(Base(bus, {"other", 0}), 20u);
  EXPECT_EQ(Base(bus, {"t", 0}), 0u);
  std::vector<Message> out;
  ASSERT_TRUE(bus->Fetch({"t", 0}, 0, 100, &out).ok());
  EXPECT_EQ(out.size(), 20u);
}

inline void CheckCommitNeverLowersTheFloor(Bus* bus) {
  const TopicPartition tp{"t", 0};
  ASSERT_TRUE(bus->CreateTopic("t", 1).ok());
  ASSERT_TRUE(bus->Subscribe("a", "g", {"t"}, "", {}).ok());
  PollCount(bus, "a");
  ProduceN(bus, "t", 10);
  ASSERT_TRUE(bus->Commit("a", tp, 6).ok());
  EXPECT_EQ(Base(bus, tp), 6u);
  ASSERT_TRUE(bus->Commit("a", tp, 2).ok());  // A no-op.
  ProduceN(bus, "t", 1);
  EXPECT_EQ(Base(bus, tp), 6u);
  // A commit past the end stops at the end: what is produced later is
  // kept for the consumer to read.
  ASSERT_TRUE(bus->Commit("a", tp, 1000).ok());
  EXPECT_EQ(Base(bus, tp), 11u);
  ASSERT_TRUE(ProduceOne(bus, "t", "k", "later").ok());
  EXPECT_EQ(Base(bus, tp), 11u);
  std::vector<Message> out;
  ASSERT_EQ(PollCount(bus, "a", &out), 1u);
  EXPECT_EQ(out[0].payload, "later");
}

inline void CheckSeekAndFetchClampToTheRetainedHead(Bus* bus) {
  const TopicPartition tp{"t", 0};
  ASSERT_TRUE(bus->CreateTopic("t", 1).ok());
  ASSERT_TRUE(bus->Subscribe("a", "g", {"t"}, "", {}).ok());
  PollCount(bus, "a");
  ProduceN(bus, "t", 10);
  ASSERT_TRUE(bus->Commit("a", tp, 5).ok());
  ASSERT_TRUE(bus->Seek("a", tp, 0).ok());
  std::vector<Message> out;
  ASSERT_EQ(PollCount(bus, "a", &out), 5u);
  EXPECT_EQ(out[0].offset, 5u);
  ASSERT_TRUE(bus->Fetch(tp, 0, 100, &out).ok());
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out[0].offset, 5u);
  // Seek moves only the read position: the floor stays.
  ASSERT_TRUE(bus->Seek("a", tp, 7).ok());
  EXPECT_EQ(PollCount(bus, "a"), 3u);
  EXPECT_EQ(Base(bus, tp), 5u);
}

// c1 is fenced, and the group it belonged to empties out and is
// re-created by c1's rejoin: c1 must be handed its partitions again.
inline void CheckFencedConsumerRejoinsAnEmptiedGroup(Bus* bus) {
  ASSERT_TRUE(bus->CreateTopic("t", 2).ok());
  size_t assigned = 0;
  RebalanceListener listener;
  listener.on_assigned = [&assigned](const std::vector<TopicPartition>& a) {
    assigned += a.size();
  };
  ASSERT_TRUE(bus->Subscribe("c1", "g", {"t"}, "", listener).ok());
  PollCount(bus, "c1");
  ASSERT_TRUE(bus->Subscribe("c2", "g", {"t"}, "", {}).ok());
  PollCount(bus, "c2");
  ASSERT_TRUE(bus->KillConsumer("c1").ok());
  ASSERT_TRUE(bus->Unsubscribe("c2").ok());

  assigned = 0;
  ASSERT_TRUE(bus->Subscribe("c1", "g", {"t"}, "", listener).ok());
  PollCount(bus, "c1");
  EXPECT_EQ(assigned, 2u);
  ASSERT_TRUE(ProduceOne(bus, "t", KeyForPartition(0, 2), "p0").ok());
  ASSERT_TRUE(ProduceOne(bus, "t", KeyForPartition(1, 2), "p1").ok());
  EXPECT_EQ(PollCount(bus, "c1"), 2u);
}

}  // namespace railgun::msg

#endif  // RAILGUN_TESTS_COMMIT_CONTRACT_H_
