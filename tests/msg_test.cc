// Tests for the messaging layer: topics, keyed partitioning, offsets and
// replay, visibility delay, consumer groups, heartbeat failure detection
// and rebalancing — plus the batched, wake-on-arrival path: blocking
// PollBatch, ProduceBatch ordering, rebalance delivery to parked consumers,
// and retention truncation.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>

#include "commit_contract.h"
#include "msg/broker.h"
#include "produce_util.h"

namespace railgun::msg {
namespace {

// PollBatch, copied out into owned messages so assertions can hold on
// to them across polls.
Status PollMessages(Bus* bus, const std::string& consumer_id,
                    size_t max_messages, std::vector<Message>* out,
                    Micros max_wait = 0) {
  MessageBatch batch;
  const Status status =
      bus->PollBatch(consumer_id, max_messages, &batch, max_wait);
  out->clear();
  for (const MessageView& view : batch.views()) {
    out->push_back(view.ToMessage());
  }
  return status;
}

BusOptions FastBus(Clock* clock = nullptr) {
  BusOptions options;
  options.delivery_delay = 0;
  options.clock = clock;
  return options;
}

TEST(BusTest, TopicAdministration) {
  InProcessBus bus(FastBus());
  ASSERT_TRUE(bus.CreateTopic("t", 4).ok());
  EXPECT_TRUE(bus.CreateTopic("t", 4).IsAlreadyExists());
  EXPECT_FALSE(bus.CreateTopic("bad", 0).ok());
  EXPECT_EQ(bus.PartitionsOf("t").size(), 4u);
  EXPECT_TRUE(bus.PartitionsOf("nope").empty());
}

TEST(BusTest, PinnedGroupStrategySurvivesAnEmptiedGroup) {
  // A broker process pre-installs the engine's coordinator with
  // SetGroupStrategy; subscribers never name a strategy. The pin must
  // outlive the group emptying out (e.g. the last worker process
  // leaving), or the next joiner would silently get the default
  // round-robin policy.
  struct CountingStrategy : AssignmentStrategy {
    int calls = 0;
    Assignment Assign(const std::vector<MemberInfo>& members,
                      const std::vector<TopicPartition>& partitions)
        override {
      ++calls;
      Assignment result;
      for (const auto& member : members) {
        result[member.member_id] = partitions;
      }
      return result;
    }
    std::string name() const override { return "counting"; }
  };
  InProcessBus bus(FastBus());
  ASSERT_TRUE(bus.CreateTopic("t", 2).ok());
  CountingStrategy strategy;
  bus.SetGroupStrategy("g", &strategy);

  ASSERT_TRUE(bus.Subscribe("a", "g", {"t"}, "", {}).ok());
  EXPECT_EQ(strategy.calls, 1);
  ASSERT_TRUE(bus.Unsubscribe("a").ok());

  // The group emptied out; a fresh member must still be placed by the
  // pinned strategy, not the default.
  ASSERT_TRUE(bus.Subscribe("b", "g", {"t"}, "", {}).ok());
  EXPECT_EQ(strategy.calls, 2);
  EXPECT_EQ(bus.AssignmentOf("b").size(), 2u);
  ASSERT_TRUE(bus.Unsubscribe("b").ok());
}

TEST(BusTest, KeyedPartitioningIsStable) {
  InProcessBus bus(FastBus());
  ASSERT_TRUE(bus.CreateTopic("t", 8).ok());
  // Same key always lands in the same partition.
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(
        ProduceOne(&bus, "t", "card42", "m" + std::to_string(round)).ok());
  }
  int with_data = 0;
  for (const auto& tp : bus.PartitionsOf("t")) {
    const uint64_t end = bus.EndOffset(tp).value();
    if (end > 0) {
      ++with_data;
      EXPECT_EQ(end, 3u);
    }
  }
  EXPECT_EQ(with_data, 1);
}

TEST(BusTest, FetchByOffsetSupportsReplay) {
  InProcessBus bus(FastBus());
  ASSERT_TRUE(bus.CreateTopic("t", 1).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(ProduceOne(&bus, "t", "k", "m" + std::to_string(i)).ok());
    EXPECT_EQ(bus.EndOffset({"t", 0}).value(), static_cast<uint64_t>(i + 1));
  }
  std::vector<Message> out;
  ASSERT_TRUE(bus.Fetch({"t", 0}, 5, 100, &out).ok());
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out[0].payload, "m5");
  EXPECT_EQ(out[0].offset, 5u);
  // Replay from zero re-reads everything.
  ASSERT_TRUE(bus.Fetch({"t", 0}, 0, 100, &out).ok());
  EXPECT_EQ(out.size(), 10u);
}

TEST(BusTest, DeliveryDelayHidesFreshMessages) {
  SimulatedClock clock(1000);
  BusOptions options;
  options.delivery_delay = 500;
  options.clock = &clock;
  InProcessBus bus(options);
  ASSERT_TRUE(bus.CreateTopic("t", 1).ok());
  ASSERT_TRUE(ProduceOne(&bus, "t", "k", "m").ok());

  std::vector<Message> out;
  ASSERT_TRUE(bus.Fetch({"t", 0}, 0, 10, &out).ok());
  EXPECT_TRUE(out.empty());  // Not yet visible.
  clock.Advance(500);
  ASSERT_TRUE(bus.Fetch({"t", 0}, 0, 10, &out).ok());
  EXPECT_EQ(out.size(), 1u);
}

TEST(GroupTest, SinglePartitionOwnershipWithinGroup) {
  InProcessBus bus(FastBus());
  ASSERT_TRUE(bus.CreateTopic("t", 4).ok());
  ASSERT_TRUE(
      bus.Subscribe("c1", "g", {"t"}, "node=a", {}).ok());
  ASSERT_TRUE(
      bus.Subscribe("c2", "g", {"t"}, "node=b", {}).ok());

  // Trigger assignment delivery.
  std::vector<Message> out;
  ASSERT_TRUE(PollMessages(&bus, "c1", 10, &out).ok());
  ASSERT_TRUE(PollMessages(&bus, "c2", 10, &out).ok());

  auto a1 = bus.AssignmentOf("c1");
  auto a2 = bus.AssignmentOf("c2");
  EXPECT_EQ(a1.size() + a2.size(), 4u);
  for (const auto& tp : a1) {
    EXPECT_EQ(std::count(a2.begin(), a2.end(), tp), 0);
  }
}

TEST(GroupTest, PollDeliversOnlyAssignedPartitions) {
  InProcessBus bus(FastBus());
  ASSERT_TRUE(bus.CreateTopic("t", 2).ok());
  ASSERT_TRUE(bus.Subscribe("c1", "g", {"t"}, "", {}).ok());
  ASSERT_TRUE(bus.Subscribe("c2", "g", {"t"}, "", {}).ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(ProduceOne(&bus, "t", KeyForPartition(i % 2, 2), "m").ok());
  }
  std::vector<Message> from1, from2, batch;
  // First polls deliver the assignment, subsequent polls the messages.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(PollMessages(&bus, "c1", 100, &batch).ok());
    from1.insert(from1.end(), batch.begin(), batch.end());
    ASSERT_TRUE(PollMessages(&bus, "c2", 100, &batch).ok());
    from2.insert(from2.end(), batch.begin(), batch.end());
  }
  EXPECT_EQ(from1.size() + from2.size(), 20u);
  EXPECT_EQ(from1.size(), 10u);
  EXPECT_EQ(from2.size(), 10u);
}

TEST(GroupTest, RebalanceCallbacksFireOnMembershipChange) {
  InProcessBus bus(FastBus());
  ASSERT_TRUE(bus.CreateTopic("t", 4).ok());

  std::vector<TopicPartition> assigned1, revoked1;
  RebalanceListener listener;
  listener.on_assigned = [&](const std::vector<TopicPartition>& a) {
    assigned1.insert(assigned1.end(), a.begin(), a.end());
  };
  listener.on_revoked = [&](const std::vector<TopicPartition>& r) {
    revoked1.insert(revoked1.end(), r.begin(), r.end());
  };
  ASSERT_TRUE(bus.Subscribe("c1", "g", {"t"}, "", listener).ok());
  std::vector<Message> out;
  ASSERT_TRUE(PollMessages(&bus, "c1", 10, &out).ok());
  EXPECT_EQ(assigned1.size(), 4u);  // Sole member owns everything.

  // A second member takes over some partitions: c1 sees revocations.
  ASSERT_TRUE(bus.Subscribe("c2", "g", {"t"}, "", {}).ok());
  ASSERT_TRUE(PollMessages(&bus, "c1", 10, &out).ok());
  EXPECT_EQ(revoked1.size(), 2u);
}

TEST(GroupTest, HeartbeatTimeoutFencesDeadConsumer) {
  SimulatedClock clock(0);
  BusOptions options = FastBus(&clock);
  options.session_timeout = 1000;
  InProcessBus bus(options);
  ASSERT_TRUE(bus.CreateTopic("t", 2).ok());
  ASSERT_TRUE(bus.Subscribe("alive", "g", {"t"}, "", {}).ok());
  ASSERT_TRUE(bus.Subscribe("dead", "g", {"t"}, "", {}).ok());
  std::vector<Message> out;
  ASSERT_TRUE(PollMessages(&bus, "alive", 10, &out).ok());
  ASSERT_TRUE(PollMessages(&bus, "dead", 10, &out).ok());
  EXPECT_EQ(bus.AssignmentOf("dead").size(), 1u);

  // "dead" stops polling; time passes; "alive" keeps polling.
  clock.Advance(2000);
  // Triggers liveness check.
  ASSERT_TRUE(PollMessages(&bus, "alive", 10, &out).ok());
  // Picks up new assignment.
  ASSERT_TRUE(PollMessages(&bus, "alive", 10, &out).ok());
  EXPECT_EQ(bus.AssignmentOf("alive").size(), 2u);
  // A fenced consumer gets the answer of an unknown one...
  EXPECT_TRUE(PollMessages(&bus, "dead", 10, &out).IsNotFound());

  // ...and rejoins with a plain Subscribe: its partition comes back
  // through on_assigned.
  std::vector<TopicPartition> reassigned;
  RebalanceListener listener;
  listener.on_assigned = [&](const std::vector<TopicPartition>& a) {
    reassigned.insert(reassigned.end(), a.begin(), a.end());
  };
  ASSERT_TRUE(bus.Subscribe("dead", "g", {"t"}, "", listener).ok());
  ASSERT_TRUE(PollMessages(&bus, "dead", 10, &out).ok());
  EXPECT_EQ(reassigned.size(), 1u);
  EXPECT_EQ(bus.AssignmentOf("dead"), reassigned);
}

TEST(GroupTest, KillConsumerRebalancesImmediately) {
  InProcessBus bus(FastBus());
  ASSERT_TRUE(bus.CreateTopic("t", 2).ok());
  ASSERT_TRUE(bus.Subscribe("c1", "g", {"t"}, "", {}).ok());
  ASSERT_TRUE(bus.Subscribe("c2", "g", {"t"}, "", {}).ok());
  std::vector<Message> out;
  ASSERT_TRUE(PollMessages(&bus, "c1", 10, &out).ok());
  const uint64_t before = bus.rebalance_count();
  ASSERT_TRUE(bus.KillConsumer("c2").ok());
  EXPECT_GT(bus.rebalance_count(), before);
  ASSERT_TRUE(PollMessages(&bus, "c1", 10, &out).ok());
  EXPECT_EQ(bus.AssignmentOf("c1").size(), 2u);
}

TEST(GroupTest, BacklogHintCountsWhatLiveConsumersHaveNotRead) {
  // Cluster exports this value as the bus.backlog series.
  constexpr uint64_t kProduced = 10;
  constexpr uint64_t kRead = 4;
  InProcessBus bus(FastBus());
  ASSERT_TRUE(bus.CreateTopic("t", 1).ok());
  for (uint64_t i = 0; i < kProduced; ++i) {
    ASSERT_TRUE(ProduceOne(&bus, "t", "k", std::to_string(i)).ok());
  }
  EXPECT_EQ(bus.BacklogHint(), 0u);  // Nobody tracks the partition yet.

  ASSERT_TRUE(bus.Subscribe("a", "g", {"t"}, "", {}).ok());
  std::vector<Message> out;
  ASSERT_TRUE(PollMessages(&bus, "a", 10, &out).ok());  // Assignment.
  EXPECT_EQ(bus.BacklogHint(), kProduced);
  ASSERT_TRUE(PollMessages(&bus, "a", kRead, &out).ok());
  ASSERT_EQ(out.size(), kRead);
  EXPECT_EQ(bus.BacklogHint(), kProduced - kRead);

  // A second group's member that has read nothing holds the partition's
  // minimum position back at 0...
  ASSERT_TRUE(bus.Subscribe("b", "h", {"t"}, "", {}).ok());
  ASSERT_TRUE(PollMessages(&bus, "b", 10, &out).ok());  // Assignment.
  EXPECT_EQ(bus.BacklogHint(), kProduced);
  // ...until it is fenced: a dead consumer's positions stop counting.
  ASSERT_TRUE(bus.KillConsumer("b").ok());
  EXPECT_EQ(bus.BacklogHint(), kProduced - kRead);
}

TEST(GroupTest, SeekRewindsConsumption) {
  InProcessBus bus(FastBus());
  ASSERT_TRUE(bus.CreateTopic("t", 1).ok());
  ASSERT_TRUE(bus.Subscribe("c", "g", {"t"}, "", {}).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(ProduceOne(&bus, "t", "k", std::to_string(i)).ok());
  }
  std::vector<Message> out;
  ASSERT_TRUE(PollMessages(&bus, "c", 10, &out).ok());  // Assignment.
  ASSERT_TRUE(PollMessages(&bus, "c", 10, &out).ok());
  EXPECT_EQ(out.size(), 5u);
  ASSERT_TRUE(bus.Seek("c", {"t", 0}, 2).ok());
  ASSERT_TRUE(PollMessages(&bus, "c", 10, &out).ok());
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].payload, "2");
}

TEST(GroupTest, PartitionsOnlyAssignedToSubscribedMembers) {
  // One group, heterogeneous topic sets mid-transition: a stream was
  // just created and only c2 re-subscribed with its topic so far. t2's
  // partitions must never land on c1 — a member that didn't subscribe
  // would consume and drop the messages (offset advances, events lost).
  InProcessBus bus(FastBus());
  ASSERT_TRUE(bus.CreateTopic("t1", 2).ok());
  ASSERT_TRUE(bus.CreateTopic("t2", 2).ok());
  ASSERT_TRUE(bus.Subscribe("c1", "g", {"t1"}, "", {}).ok());
  ASSERT_TRUE(
      bus.Subscribe("c2", "g", {"t1", "t2"}, "", {}).ok());
  std::vector<Message> out;
  ASSERT_TRUE(PollMessages(&bus, "c1", 10, &out).ok());
  ASSERT_TRUE(PollMessages(&bus, "c2", 10, &out).ok());

  for (const auto& tp : bus.AssignmentOf("c1")) {
    EXPECT_NE(tp.topic, "t2") << "t2/" << tp.partition << " on c1";
  }
  std::set<int> t2_partitions;
  for (const auto& tp : bus.AssignmentOf("c2")) {
    if (tp.topic == "t2") t2_partitions.insert(tp.partition);
  }
  EXPECT_EQ(t2_partitions.size(), 2u);

  // An event produced into the not-yet-universally-subscribed topic is
  // delivered to the subscribed member, not dropped.
  ASSERT_TRUE(ProduceOne(&bus, "t2", KeyForPartition(0, 2), "first").ok());
  ASSERT_TRUE(PollMessages(&bus, "c2", 10, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].payload, "first");
}

TEST(GroupTest, UnsubscribeTriggersRebalance) {
  InProcessBus bus(FastBus());
  ASSERT_TRUE(bus.CreateTopic("t", 2).ok());
  ASSERT_TRUE(bus.Subscribe("c1", "g", {"t"}, "", {}).ok());
  ASSERT_TRUE(bus.Subscribe("c2", "g", {"t"}, "", {}).ok());
  ASSERT_TRUE(bus.Unsubscribe("c2").ok());
  std::vector<Message> out;
  ASSERT_TRUE(PollMessages(&bus, "c1", 10, &out).ok());
  EXPECT_EQ(bus.AssignmentOf("c1").size(), 2u);
  EXPECT_TRUE(PollMessages(&bus, "c2", 10, &out).IsNotFound());
}

TEST(BlockingPollTest, WakesOnProduce) {
  InProcessBus bus(FastBus());
  ASSERT_TRUE(bus.CreateTopic("t", 1).ok());
  ASSERT_TRUE(bus.Subscribe("c", "g", {"t"}, "", {}).ok());
  std::vector<Message> out;
  // Absorb the assignment.
  ASSERT_TRUE(PollMessages(&bus, "c", 10, &out).ok());

  std::thread producer([&bus] {
    MonotonicClock::Default()->SleepMicros(20 * kMicrosPerMilli);
    EXPECT_TRUE(ProduceOne(&bus, "t", "k", "wake").ok());
  });
  const Micros start = MonotonicClock::Default()->NowMicros();
  // Park with a generous deadline: the produce must cut it short.
  ASSERT_TRUE(PollMessages(&bus, "c", 10, &out, 5 * kMicrosPerSecond).ok());
  const Micros elapsed = MonotonicClock::Default()->NowMicros() - start;
  producer.join();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].payload, "wake");
  EXPECT_LT(elapsed, kMicrosPerSecond);
}

TEST(BlockingPollTest, HonorsMaxWaitWhenNothingArrives) {
  InProcessBus bus(FastBus());
  ASSERT_TRUE(bus.CreateTopic("t", 1).ok());
  ASSERT_TRUE(bus.Subscribe("c", "g", {"t"}, "", {}).ok());
  std::vector<Message> out;
  // Absorb the assignment.
  ASSERT_TRUE(PollMessages(&bus, "c", 10, &out).ok());

  const Micros start = MonotonicClock::Default()->NowMicros();
  ASSERT_TRUE(PollMessages(&bus, "c", 10, &out, 50 * kMicrosPerMilli).ok());
  const Micros elapsed = MonotonicClock::Default()->NowMicros() - start;
  EXPECT_TRUE(out.empty());
  EXPECT_GE(elapsed, 40 * kMicrosPerMilli);
}

TEST(BlockingPollTest, WakeInterruptsParkedPoll) {
  InProcessBus bus(FastBus());
  ASSERT_TRUE(bus.CreateTopic("t", 1).ok());
  ASSERT_TRUE(bus.Subscribe("c", "g", {"t"}, "", {}).ok());
  std::vector<Message> out;
  // Absorb the assignment.
  ASSERT_TRUE(PollMessages(&bus, "c", 10, &out).ok());

  std::thread waker([&bus] {
    MonotonicClock::Default()->SleepMicros(20 * kMicrosPerMilli);
    EXPECT_TRUE(bus.WakeConsumer("c").ok());
  });
  const Micros start = MonotonicClock::Default()->NowMicros();
  ASSERT_TRUE(PollMessages(&bus, "c", 10, &out, 5 * kMicrosPerSecond).ok());
  const Micros elapsed = MonotonicClock::Default()->NowMicros() - start;
  waker.join();
  EXPECT_TRUE(out.empty());  // Interrupted, not satisfied.
  EXPECT_LT(elapsed, kMicrosPerSecond);
}

TEST(BlockingPollTest, WakeConsumerIsLevelTriggered) {
  InProcessBus bus(FastBus());
  ASSERT_TRUE(bus.CreateTopic("t", 1).ok());
  ASSERT_TRUE(bus.Subscribe("c", "g", {"t"}, "", {}).ok());
  std::vector<Message> out;
  // Absorb the assignment.
  ASSERT_TRUE(PollMessages(&bus, "c", 10, &out).ok());

  EXPECT_TRUE(bus.WakeConsumer("nobody").IsNotFound());
  // A wake issued while the consumer is between polls is consumed by
  // the NEXT poll (no lost-wakeup window): it returns immediately.
  ASSERT_TRUE(bus.WakeConsumer("c").ok());
  const Micros start = MonotonicClock::Default()->NowMicros();
  ASSERT_TRUE(PollMessages(&bus, "c", 10, &out, 5 * kMicrosPerSecond).ok());
  EXPECT_LT(MonotonicClock::Default()->NowMicros() - start,
            kMicrosPerSecond);
  EXPECT_TRUE(out.empty());

  // Consumed: the next blocking poll waits normally again.
  const Micros start2 = MonotonicClock::Default()->NowMicros();
  ASSERT_TRUE(PollMessages(&bus, "c", 10, &out, 50 * kMicrosPerMilli).ok());
  EXPECT_GE(MonotonicClock::Default()->NowMicros() - start2,
            40 * kMicrosPerMilli);
}

TEST(ProduceBatchTest, PreservesPerKeyPartitionOrdering) {
  InProcessBus bus(FastBus());
  ASSERT_TRUE(bus.CreateTopic("t", 8).ok());
  // Interleave 16 keys, 32 records each, in one batch.
  std::vector<ProduceRecord> records;
  for (int seq = 0; seq < 32; ++seq) {
    for (int k = 0; k < 16; ++k) {
      records.push_back({"key" + std::to_string(k),
                         "key" + std::to_string(k) + ":" +
                             std::to_string(seq)});
    }
  }
  ASSERT_TRUE(bus.ProduceBatch("t", std::move(records)).ok());

  // Each key lands in exactly one partition, with its sequence intact.
  std::map<std::string, int> next_seq;
  std::map<std::string, int> partition_of;
  for (const auto& tp : bus.PartitionsOf("t")) {
    std::vector<Message> out;
    ASSERT_TRUE(bus.Fetch(tp, 0, 1000, &out).ok());
    for (const auto& m : out) {
      auto it = partition_of.find(m.key);
      if (it == partition_of.end()) {
        partition_of[m.key] = tp.partition;
      } else {
        EXPECT_EQ(it->second, tp.partition) << "key split across partitions";
      }
      const int seq = atoi(m.payload.substr(m.payload.find(':') + 1).c_str());
      EXPECT_EQ(seq, next_seq[m.key]) << "out of order for " << m.key;
      next_seq[m.key] = seq + 1;
    }
  }
  EXPECT_EQ(partition_of.size(), 16u);
  for (const auto& [key, seq] : next_seq) EXPECT_EQ(seq, 32) << key;
}

TEST(ProduceBatchTest, UnknownTopicRejected) {
  InProcessBus bus(FastBus());
  std::vector<ProduceRecord> records = {{"k", "v"}};
  EXPECT_TRUE(bus.ProduceBatch("nope", std::move(records)).IsNotFound());
}

TEST(BlockingPollTest, RebalanceWhileParkedDeliversCallbacksExactlyOnce) {
  InProcessBus bus(FastBus());
  ASSERT_TRUE(bus.CreateTopic("t", 4).ok());

  std::atomic<int> revoked_calls{0}, assigned_calls{0};
  std::atomic<int> revoked_total{0};
  RebalanceListener listener;
  listener.on_revoked = [&](const std::vector<TopicPartition>& r) {
    ++revoked_calls;
    revoked_total += static_cast<int>(r.size());
  };
  listener.on_assigned = [&](const std::vector<TopicPartition>& a) {
    ++assigned_calls;
    (void)a;
  };
  ASSERT_TRUE(bus.Subscribe("c1", "g", {"t"}, "", listener).ok());
  std::vector<Message> out;
  ASSERT_TRUE(PollMessages(&bus, "c1", 10, &out).ok());  // Initial assignment.
  ASSERT_EQ(assigned_calls.load(), 1);

  // Park c1 in a blocking poll, then trigger a rebalance from another
  // thread: the parked poll must wake and deliver the revocations.
  std::thread joiner([&bus] {
    MonotonicClock::Default()->SleepMicros(20 * kMicrosPerMilli);
    EXPECT_TRUE(bus.Subscribe("c2", "g", {"t"}, "", {}).ok());
  });
  const Micros start = MonotonicClock::Default()->NowMicros();
  ASSERT_TRUE(PollMessages(&bus, "c1", 10, &out, 5 * kMicrosPerSecond).ok());
  const Micros elapsed = MonotonicClock::Default()->NowMicros() - start;
  joiner.join();
  EXPECT_LT(elapsed, kMicrosPerSecond);
  EXPECT_EQ(revoked_calls.load(), 1);
  EXPECT_EQ(revoked_total.load(), 2);

  // Subsequent polls observe no further generation change: the
  // callbacks fired exactly once.
  ASSERT_TRUE(PollMessages(&bus, "c1", 10, &out).ok());
  ASSERT_TRUE(PollMessages(&bus, "c1", 10, &out).ok());
  EXPECT_EQ(revoked_calls.load(), 1);
  EXPECT_EQ(assigned_calls.load(), 1);
}

TEST(BlockingPollTest, ParkDeadlineFollowsTheBusClockDomain) {
  // A bus on a simulated clock must interpret max_wait in virtual time,
  // the same domain as message visibility — not as a real-time deadline.
  SimulatedClock clock(0);
  BusOptions options = FastBus(&clock);
  options.session_timeout = kMicrosPerHour;  // Irrelevant here.
  InProcessBus bus(options);
  ASSERT_TRUE(bus.CreateTopic("t", 1).ok());
  ASSERT_TRUE(bus.Subscribe("c", "g", {"t"}, "", {}).ok());
  std::vector<Message> out;
  ASSERT_TRUE(PollMessages(&bus, "c", 10, &out).ok());  // Assignment.

  // Nothing is produced. Poll with a 10-virtual-second max_wait; another
  // thread advances the simulated clock past the deadline almost
  // immediately. The poll must return as soon as it notices the virtual
  // deadline passed — not sleep 10 real seconds.
  std::thread advancer([&clock] {
    MonotonicClock::Default()->SleepMicros(20 * kMicrosPerMilli);
    clock.Advance(10 * kMicrosPerSecond);
  });
  const Micros start = MonotonicClock::Default()->NowMicros();
  ASSERT_TRUE(PollMessages(&bus, "c", 10, &out, 10 * kMicrosPerSecond).ok());
  const Micros elapsed = MonotonicClock::Default()->NowMicros() - start;
  advancer.join();
  EXPECT_TRUE(out.empty());
  EXPECT_LT(elapsed, 2 * kMicrosPerSecond)
      << "virtual-time max_wait was slept out in real time";
}

TEST(BlockingPollTest, SimulatedVisibilityWakesParkedConsumer) {
  // Delivery delay in virtual time: a parked consumer must notice the
  // message became visible once the simulated clock advances, without
  // any extra produce or wake.
  SimulatedClock clock(0);
  BusOptions options;
  options.delivery_delay = kMicrosPerSecond;
  options.session_timeout = kMicrosPerHour;
  options.clock = &clock;
  InProcessBus bus(options);
  ASSERT_TRUE(bus.CreateTopic("t", 1).ok());
  ASSERT_TRUE(bus.Subscribe("c", "g", {"t"}, "", {}).ok());
  std::vector<Message> out;
  ASSERT_TRUE(PollMessages(&bus, "c", 10, &out).ok());  // Assignment.
  ASSERT_TRUE(ProduceOne(&bus, "t", "k", "m").ok());

  std::thread advancer([&clock] {
    MonotonicClock::Default()->SleepMicros(20 * kMicrosPerMilli);
    clock.Advance(kMicrosPerSecond);  // Message becomes visible.
  });
  const Micros start = MonotonicClock::Default()->NowMicros();
  ASSERT_TRUE(PollMessages(&bus, "c", 10, &out, kMicrosPerHour).ok());
  const Micros elapsed = MonotonicClock::Default()->NowMicros() - start;
  advancer.join();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].payload, "m");
  EXPECT_LT(elapsed, 2 * kMicrosPerSecond);
}

TEST(BlockingPollTest, ProduceToAnotherTopicLeavesConsumerParked) {
  InProcessBus bus(FastBus());
  ASSERT_TRUE(bus.CreateTopic("a", 1).ok());
  ASSERT_TRUE(bus.CreateTopic("b", 1).ok());
  ASSERT_TRUE(bus.Subscribe("c", "g", {"a"}, "", {}).ok());
  std::vector<Message> out;
  ASSERT_TRUE(PollMessages(&bus, "c", 10, &out).ok());  // Assignment.

  // Produces to "b" while c is parked on "a": nobody reads "b", so no
  // consumer is signalled and c waits out its max_wait.
  const uint64_t wakes_before = bus.poll_wake_count();
  std::thread producer([&bus] {
    for (int i = 0; i < 20; ++i) {
      MonotonicClock::Default()->SleepMicros(2 * kMicrosPerMilli);
      EXPECT_TRUE(ProduceOne(&bus, "b", "k", "other topic").ok());
    }
  });
  const Micros start = MonotonicClock::Default()->NowMicros();
  ASSERT_TRUE(PollMessages(&bus, "c", 10, &out, 100 * kMicrosPerMilli).ok());
  const Micros elapsed = MonotonicClock::Default()->NowMicros() - start;
  producer.join();
  EXPECT_TRUE(out.empty());
  EXPECT_GE(elapsed, 90 * kMicrosPerMilli);
  EXPECT_EQ(bus.poll_wake_count(), wakes_before)
      << "a produce to b signalled a consumer of a";
}

TEST(BlockingPollTest, PartitionHandedOverWhileParkedWakesOnItsNextProduce) {
  InProcessBus bus(FastBus());
  ASSERT_TRUE(bus.CreateTopic("t", 2).ok());
  ASSERT_TRUE(bus.Subscribe("c1", "g", {"t"}, "", {}).ok());
  ASSERT_TRUE(bus.Subscribe("c2", "g", {"t"}, "", {}).ok());
  std::vector<Message> out;
  ASSERT_TRUE(PollMessages(&bus, "c1", 10, &out).ok());  // Assignments.
  ASSERT_TRUE(PollMessages(&bus, "c2", 10, &out).ok());
  ASSERT_EQ(bus.AssignmentOf("c1"), (std::vector<TopicPartition>{{"t", 0}}));

  // c1 parks; c2 leaves, so a rebalance hands c1 partition 1 while it is
  // parked. Its next park must cover partition 1 too.
  std::thread driver([&bus] {
    MonotonicClock::Default()->SleepMicros(20 * kMicrosPerMilli);
    EXPECT_TRUE(bus.Unsubscribe("c2").ok());
    MonotonicClock::Default()->SleepMicros(20 * kMicrosPerMilli);
    EXPECT_TRUE(ProduceOne(&bus, "t", KeyForPartition(1, 2), "moved").ok());
  });
  const Micros start = MonotonicClock::Default()->NowMicros();
  ASSERT_TRUE(PollMessages(&bus, "c1", 10, &out, 5 * kMicrosPerSecond).ok());
  EXPECT_TRUE(out.empty());  // The rebalance: callbacks only.
  EXPECT_EQ(bus.AssignmentOf("c1").size(), 2u);
  ASSERT_TRUE(PollMessages(&bus, "c1", 10, &out, 5 * kMicrosPerSecond).ok());
  const Micros elapsed = MonotonicClock::Default()->NowMicros() - start;
  driver.join();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].partition, 1);
  EXPECT_EQ(out[0].payload, "moved");
  EXPECT_LT(elapsed, kMicrosPerSecond);
}

TEST(BlockingPollTest, ProduceAfterARegisteredConsumerLeftIsSafe) {
  InProcessBus bus(FastBus());
  ASSERT_TRUE(bus.CreateTopic("t", 1).ok());
  ASSERT_TRUE(bus.Subscribe("c", "g", {"t"}, "", {}).ok());
  std::vector<Message> out;
  ASSERT_TRUE(PollMessages(&bus, "c", 10, &out).ok());  // Assignment.
  // This scan reaches the partition's end and registers c's wake slot.
  ASSERT_TRUE(PollMessages(&bus, "c", 10, &out).ok());
  ASSERT_TRUE(bus.Unsubscribe("c").ok());

  // The partition still lists the departed consumer's slot: signalling
  // it must touch only memory the bus still owns (ASan checks this).
  ASSERT_TRUE(ProduceOne(&bus, "t", "k", "after leave").ok());
  ASSERT_TRUE(bus.Subscribe("c", "g", {"t"}, "", {}).ok());
  ASSERT_TRUE(PollMessages(&bus, "c", 10, &out).ok());  // Assignment.
  ASSERT_TRUE(PollMessages(&bus, "c", 10, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].payload, "after leave");
}

TEST(RetentionTest, TruncatesBelowMinimumCommittedOffset) {
  InProcessBus bus(FastBus());
  ASSERT_TRUE(bus.CreateTopic("t", 1).ok());
  ASSERT_TRUE(bus.Subscribe("c", "g", {"t"}, "", {}).ok());
  std::vector<Message> out;
  // Assignment (position 0).
  ASSERT_TRUE(PollMessages(&bus, "c", 10, &out).ok());

  // The consumer's commit pins the log head: nothing it hasn't
  // committed may be dropped.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(ProduceOne(&bus, "t", "k", std::to_string(i)).ok());
  }
  EXPECT_EQ(bus.BaseOffset({"t", 0}).value(), 0u);

  // Once the consumer commits past them, they are dropped; a tracked
  // partition keeps exactly what is not committed.
  ASSERT_TRUE(bus.Commit("c", {"t", 0}, 16).ok());
  ASSERT_TRUE(ProduceOne(&bus, "t", "k", "21st").ok());
  const uint64_t base = bus.BaseOffset({"t", 0}).value();
  EXPECT_EQ(base, 16u);
  // Replay from zero clamps to the earliest retained message.
  ASSERT_TRUE(bus.Fetch({"t", 0}, 0, 100, &out).ok());
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out[0].offset, base);
}

TEST(RetentionTest, PartiallyCommittedConsumerPinsTheFloor) {
  InProcessBus bus(FastBus());
  ASSERT_TRUE(bus.CreateTopic("t", 1).ok());
  ASSERT_TRUE(bus.Subscribe("c", "g", {"t"}, "", {}).ok());
  std::vector<Message> out;
  ASSERT_TRUE(PollMessages(&bus, "c", 10, &out).ok());

  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(ProduceOne(&bus, "t", "k", std::to_string(i)).ok());
  }
  ASSERT_TRUE(bus.Commit("c", {"t", 0}, 4).ok());
  for (int i = 10; i < 20; ++i) {
    ASSERT_TRUE(ProduceOne(&bus, "t", "k", std::to_string(i)).ok());
  }
  // Offset 4 is the consumer's floor.
  EXPECT_EQ(bus.BaseOffset({"t", 0}).value(), 4u);
  ASSERT_TRUE(PollMessages(&bus, "c", 100, &out).ok());
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out[0].offset, 4u);  // Nothing unread was lost.
}

TEST(RetentionTest, SeekClampsToRetainedBase) {
  InProcessBus bus(FastBus());
  ASSERT_TRUE(bus.CreateTopic("t", 1).ok());
  ASSERT_TRUE(bus.Subscribe("c", "g", {"t"}, "", {}).ok());
  std::vector<Message> out;
  ASSERT_TRUE(PollMessages(&bus, "c", 10, &out).ok());  // Assignment.

  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(ProduceOne(&bus, "t", "k", std::to_string(i)).ok());
  }
  ASSERT_TRUE(bus.Commit("c", {"t", 0}, 90).ok());
  ASSERT_TRUE(ProduceOne(&bus, "t", "k", "100").ok());
  const uint64_t base = bus.BaseOffset({"t", 0}).value();
  ASSERT_GT(base, 0u);

  // A replaying consumer seeking below the trimmed head must be clamped
  // to the earliest retained message, like Fetch — never positioned
  // inside truncated data.
  ASSERT_TRUE(bus.Seek("c", {"t", 0}, 0).ok());
  EXPECT_EQ(bus.PositionOf("c", {"t", 0}).value(), base)
      << "seek positioned the consumer inside truncated data";
  ASSERT_TRUE(PollMessages(&bus, "c", 1, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].offset, base);

  // Seeks into retained data still rewind exactly.
  ASSERT_TRUE(bus.Seek("c", {"t", 0}, base + 5).ok());
  EXPECT_EQ(bus.PositionOf("c", {"t", 0}).value(), base + 5);
  ASSERT_TRUE(PollMessages(&bus, "c", 1, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].offset, base + 5);
}

TEST(RetentionTest, UntrackedPartitionKeepsTheNewestCapMessages) {
  InProcessBus bus(FastBus());
  ASSERT_TRUE(bus.CreateTopic("t", 1).ok());
  ASSERT_TRUE(bus.SetTopicRetention("t", 5).ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(ProduceOne(&bus, "t", "k", std::to_string(i)).ok());
  }
  EXPECT_EQ(bus.BaseOffset({"t", 0}).value(), 15u);
}

TEST(RetentionTest, CapBoundsATrackerThatNeverCommits) {
  InProcessBus bus(FastBus());
  ASSERT_TRUE(bus.CreateTopic("t", 1).ok());
  ASSERT_TRUE(bus.SetTopicRetention("t", 5).ok());
  ASSERT_TRUE(bus.Subscribe("c", "g", {"t"}, "", {}).ok());
  std::vector<Message> out;
  ASSERT_TRUE(PollMessages(&bus, "c", 10, &out).ok());  // Assignment.

  // c tracks t-0 and never commits, which alone would hold the floor at
  // 0; the cap still drops the oldest messages.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(ProduceOne(&bus, "t", "k", std::to_string(i)).ok());
  }
  EXPECT_EQ(bus.BaseOffset({"t", 0}).value(), 15u);
  EXPECT_EQ(bus.RetainedTotals().messages, 5u);
  for (int i = 20; i < 30; ++i) {
    ASSERT_TRUE(ProduceOne(&bus, "t", "k", std::to_string(i)).ok());
  }
  EXPECT_EQ(bus.BaseOffset({"t", 0}).value(), 25u);

  // The lagging reader resumes at the retained head.
  ASSERT_TRUE(PollMessages(&bus, "c", 100, &out).ok());
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out[0].offset, 25u);
}

TEST(RetentionTest, RetainedTotalsFollowTruncation) {
  InProcessBus bus(FastBus());
  ASSERT_TRUE(bus.CreateTopic("t", 1).ok());
  ASSERT_TRUE(bus.CreateTopic("u", 2).ok());
  ASSERT_TRUE(bus.Subscribe("c", "g", {"t"}, "", {}).ok());
  std::vector<Message> out;
  ASSERT_TRUE(PollMessages(&bus, "c", 10, &out).ok());  // Assignment.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(ProduceOne(&bus, "t", "key", std::string(100, 'p')).ok());
  }
  ASSERT_TRUE(ProduceOne(&bus, "u", "k", "untracked").ok());
  InProcessBus::Retained retained = bus.RetainedTotals();
  EXPECT_EQ(retained.messages, 11u);
  EXPECT_EQ(retained.bytes, 10u * (3 + 100) + (1 + 9));

  ASSERT_TRUE(bus.Commit("c", {"t", 0}, 7).ok());
  retained = bus.RetainedTotals();
  EXPECT_EQ(retained.messages, 4u);
  EXPECT_EQ(retained.bytes, 3u * (3 + 100) + (1 + 9));
}

TEST(CommitTest, CommitBelowAnotherTrackersFloorDropsNothing) {
  InProcessBus bus(FastBus());
  CheckCommitBelowAnotherTrackersFloorDropsNothing(&bus);
}

TEST(CommitTest, FencedTrackerHoldsTheFloorUntilItUnsubscribes) {
  InProcessBus bus(FastBus());
  CheckFencedTrackerHoldsTheFloorUntilItUnsubscribes(&bus);
}

TEST(CommitTest, UntrackedPartitionKeepsEverything) {
  InProcessBus bus(FastBus());
  CheckUntrackedPartitionKeepsEverything(&bus);
}

TEST(CommitTest, CommitNeverLowersTheFloor) {
  InProcessBus bus(FastBus());
  CheckCommitNeverLowersTheFloor(&bus);
}

TEST(CommitTest, SeekAndFetchClampToTheRetainedHead) {
  InProcessBus bus(FastBus());
  CheckSeekAndFetchClampToTheRetainedHead(&bus);
}

TEST(GroupTest, FencedConsumerRejoinsAnEmptiedGroup) {
  InProcessBus bus(FastBus());
  CheckFencedConsumerRejoinsAnEmptiedGroup(&bus);
}

TEST(RoundRobinTest, SpreadsPartitionsEvenly) {
  RoundRobinStrategy strategy;
  std::vector<MemberInfo> members = {
      {"m1", "", {}, {"t"}}, {"m2", "", {}, {"t"}}, {"m3", "", {}, {"t"}}};
  std::vector<TopicPartition> partitions;
  for (int p = 0; p < 9; ++p) partitions.push_back({"t", p});
  const Assignment result = strategy.Assign(members, partitions);
  ASSERT_EQ(result.size(), 3u);
  for (const auto& [member, tps] : result) {
    EXPECT_EQ(tps.size(), 3u);
  }
}

// A member with no topics subscribed to nothing: it owns no partition.
TEST(RoundRobinTest, MemberWithoutTopicsOwnsNothing) {
  RoundRobinStrategy strategy;
  std::vector<MemberInfo> members = {{"m1", "", {}, {"t"}},
                                     {"m2", "", {}, {}}};
  std::vector<TopicPartition> partitions;
  for (int p = 0; p < 4; ++p) partitions.push_back({"t", p});
  const Assignment result = strategy.Assign(members, partitions);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result.at("m1").size(), 4u);
  EXPECT_EQ(result.count("m2"), 0u);
}

}  // namespace
}  // namespace railgun::msg
