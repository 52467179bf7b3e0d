// End-to-end integration tests: full cluster (front-end -> bus ->
// processor units -> reply), aggregation accuracy against a reference
// model, node failure + recovery without losing accuracy, elastic
// scale-out, and consumers the bus fenced while still running (a stuck
// unit, a front end's reply consumer) rejoining by themselves.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>

#include "api/client.h"
#include "common/env.h"
#include "engine/cluster.h"
#include "engine/coordinator.h"
#include "engine/task_processor.h"

namespace railgun::engine {
namespace {

using reservoir::Event;
using reservoir::FieldType;
using reservoir::FieldValue;

StreamDef PaymentsStream(int partitions) {
  StreamDef stream;
  stream.name = "payments";
  stream.fields = {{"cardId", FieldType::kString},
                   {"merchantId", FieldType::kString},
                   {"amount", FieldType::kDouble}};
  stream.partitioners = {"cardId"};
  stream.partitions_per_topic = partitions;
  auto q = query::ParseQuery(
      "SELECT sum(amount), count(*) FROM payments GROUP BY cardId "
      "OVER sliding 5 minutes");
  stream.queries = {q.value()};
  return stream;
}

Event PaymentEvent(Micros ts, uint64_t id, const std::string& card,
                   double amount) {
  Event e;
  e.timestamp = ts;
  e.id = id;
  e.values = {FieldValue(card), FieldValue("m"), FieldValue(amount)};
  return e;
}

// Reference: exact sliding-window sum/count per card.
class ReferenceModel {
 public:
  explicit ReferenceModel(Micros window) : window_(window) {}

  std::pair<double, int64_t> Apply(const std::string& card, Micros ts,
                                   double amount) {
    auto& events = per_card_[card];
    events.push_back({ts, amount});
    double sum = 0;
    int64_t count = 0;
    for (const auto& [t, a] : events) {
      if (t >= ts - window_ /* inclusive boundary */) {
        sum += a;
        ++count;
      }
    }
    return {sum, count};
  }

 private:
  Micros window_;
  std::map<std::string, std::vector<std::pair<Micros, double>>> per_card_;
};

ClusterOptions FastClusterOptions(const std::string& dir, int nodes,
                                  int replication) {
  ClusterOptions options;
  options.num_nodes = nodes;
  options.replication_factor = replication;
  options.node.num_processor_units = 2;
  options.node.unit.task.reservoir.chunk_target_bytes = 4096;
  options.node.unit.task.checkpoint_interval_events = 500;
  options.bus.delivery_delay = 50;
  options.base_dir = dir;
  return options;
}

TEST(IntegrationTest, EndToEndAccuracyMatchesReferenceModel) {
  Cluster cluster(
      FastClusterOptions("/tmp/railgun_int_accuracy", 2, 1));
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.RegisterStream(PaymentsStream(4)).ok());

  ReferenceModel reference(5 * kMicrosPerMinute);

  struct Outcome {
    double sum;
    int64_t count;
    double expected_sum;
    int64_t expected_count;
  };
  std::mutex mu;
  std::vector<Outcome> outcomes;
  std::atomic<int> replies{0};

  const int n = 400;
  for (int i = 0; i < n; ++i) {
    const std::string card = "card" + std::to_string(i % 13);
    const Micros ts = static_cast<Micros>(i) * 3 * kMicrosPerSecond;
    const double amount = 1.0 + (i % 10);
    const auto [expected_sum, expected_count] =
        reference.Apply(card, ts, amount);

    ASSERT_TRUE(
        cluster.node(i % 2)
            ->frontend()
            ->Submit("payments", PaymentEvent(ts, static_cast<uint64_t>(i + 1),
                                              card, amount),
                     [&, expected_sum, expected_count](
                         Status s, const std::vector<MetricReply>& results) {
                       ASSERT_TRUE(s.ok());
                       Outcome outcome{0, 0, expected_sum, expected_count};
                       for (const auto& r : results) {
                         if (r.metric_name.rfind("sum", 0) == 0) {
                           outcome.sum = r.value.ToNumber();
                         } else if (r.metric_name.rfind("count", 0) == 0) {
                           outcome.count =
                               static_cast<int64_t>(r.value.ToNumber());
                         }
                       }
                       std::lock_guard<std::mutex> lock(mu);
                       outcomes.push_back(outcome);
                       ++replies;
                     })
            .ok());
    // Paced injection so ordering is deterministic per card partition.
    MonotonicClock::Default()->SleepMicros(1500);
  }

  for (int waited = 0; waited < 2000 && replies < n; ++waited) {
    MonotonicClock::Default()->SleepMicros(10000);
  }
  ASSERT_EQ(replies.load(), n);

  std::lock_guard<std::mutex> lock(mu);
  int mismatches = 0;
  for (const auto& o : outcomes) {
    if (o.count != o.expected_count ||
        std::abs(o.sum - o.expected_sum) > 1e-6) {
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0)
      << mismatches << " of " << outcomes.size()
      << " replies diverged from the exact sliding-window reference";
  cluster.Stop();
}

TEST(IntegrationTest, NodeFailureRecoversWithoutLosingAccuracy) {
  Cluster cluster(
      FastClusterOptions("/tmp/railgun_int_failover", 3, 2));
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.RegisterStream(PaymentsStream(6)).ok());

  std::atomic<int> replies{0};
  std::mutex mu;
  std::map<std::string, std::pair<double, int64_t>> last_per_card;

  auto submit = [&](int node, int i) {
    const std::string card = "card" + std::to_string(i % 7);
    const Micros ts = static_cast<Micros>(i) * kMicrosPerSecond;
    ASSERT_TRUE(
        cluster.node(node)
            ->frontend()
            ->Submit("payments",
                     PaymentEvent(ts, static_cast<uint64_t>(i + 1), card, 1.0),
                     [&, card](Status, const std::vector<MetricReply>& rs) {
                       std::lock_guard<std::mutex> lock(mu);
                       for (const auto& r : rs) {
                         if (r.metric_name.rfind("count", 0) == 0) {
                           last_per_card[card].second =
                               static_cast<int64_t>(r.value.ToNumber());
                         } else if (r.metric_name.rfind("sum", 0) == 0) {
                           last_per_card[card].first = r.value.ToNumber();
                         }
                       }
                       ++replies;
                     })
            .ok());
    MonotonicClock::Default()->SleepMicros(2000);
  };

  for (int i = 0; i < 150; ++i) submit(0, i);
  ASSERT_TRUE(cluster.KillNode(2).ok());
  for (int i = 150; i < 300; ++i) submit(0, i);

  for (int waited = 0; waited < 3000 && replies < 300; ++waited) {
    MonotonicClock::Default()->SleepMicros(10000);
  }
  EXPECT_EQ(replies.load(), 300);

  // Every event after the kill still got exact values: with a 1-second
  // cadence round-robin over 7 cards, the 5-minute window holds all of
  // a card's events until i ~ 300 (43 per card) — so counts must equal
  // the number of that card's submissions.
  std::lock_guard<std::mutex> lock(mu);
  for (int c = 0; c < 7; ++c) {
    const std::string card = "card" + std::to_string(c);
    const int64_t expected = 300 / 7 + (c < 300 % 7 ? 1 : 0);
    EXPECT_EQ(last_per_card[card].second, expected) << card;
  }
  const auto stats = cluster.TotalStats();
  EXPECT_GT(stats.recoveries + stats.fresh_tasks, 0u);
  cluster.Stop();
}

TEST(IntegrationTest, ElasticScaleOutRebalancesTasks) {
  Cluster cluster(FastClusterOptions("/tmp/railgun_int_elastic", 1, 1));
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.RegisterStream(PaymentsStream(8)).ok());

  std::atomic<int> replies{0};
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(cluster.node(0)
                    ->frontend()
                    ->Submit("payments",
                             PaymentEvent(i * kMicrosPerSecond,
                                          static_cast<uint64_t>(i + 1),
                                          "card" + std::to_string(i % 5), 1.0),
                             [&](Status, const std::vector<MetricReply>&) {
                               ++replies;
                             })
                    .ok());
    MonotonicClock::Default()->SleepMicros(2000);
  }

  auto node_or = cluster.AddNode();
  ASSERT_TRUE(node_or.ok());

  for (int i = 50; i < 150; ++i) {
    ASSERT_TRUE(cluster.node(0)
                    ->frontend()
                    ->Submit("payments",
                             PaymentEvent(i * kMicrosPerSecond,
                                          static_cast<uint64_t>(i + 1),
                                          "card" + std::to_string(i % 5), 1.0),
                             [&](Status, const std::vector<MetricReply>&) {
                               ++replies;
                             })
                    .ok());
    MonotonicClock::Default()->SleepMicros(2000);
  }
  for (int waited = 0; waited < 2000 && replies < 150; ++waited) {
    MonotonicClock::Default()->SleepMicros(10000);
  }
  EXPECT_EQ(replies.load(), 150);

  // The new node's units actually picked up work.
  int new_node_tasks = 0;
  RailgunNode* added = node_or.value();
  for (int u = 0; u < added->num_units(); ++u) {
    new_node_tasks +=
        static_cast<int>(added->unit(u)->active_tasks().size());
  }
  EXPECT_GT(new_node_tasks, 0);
  cluster.Stop();
}

TEST(IntegrationTest, MultiplePartitionersRouteToBothTopics) {
  ClusterOptions options =
      FastClusterOptions("/tmp/railgun_int_partitioners", 1, 1);
  Cluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());

  StreamDef stream = PaymentsStream(2);
  stream.partitioners = {"cardId", "merchantId"};
  auto q2 = query::ParseQuery(
      "SELECT avg(amount) FROM payments GROUP BY merchantId "
      "OVER sliding 5 minutes");
  stream.queries.push_back(q2.value());
  ASSERT_TRUE(cluster.RegisterStream(stream).ok());

  std::atomic<int> replies{0};
  std::atomic<int> total_metrics{0};
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(
        cluster.node(0)
            ->frontend()
            ->Submit("payments",
                     PaymentEvent(i * kMicrosPerSecond,
                                  static_cast<uint64_t>(i + 1), "cardX", 2.0),
                     [&](Status, const std::vector<MetricReply>& rs) {
                       total_metrics += static_cast<int>(rs.size());
                       ++replies;
                     })
            .ok());
    MonotonicClock::Default()->SleepMicros(2000);
  }
  for (int waited = 0; waited < 2000 && replies < 30; ++waited) {
    MonotonicClock::Default()->SleepMicros(10000);
  }
  ASSERT_EQ(replies.load(), 30);
  // Each event must report Q1's two metrics (card topic) + Q2's one
  // metric (merchant topic).
  EXPECT_EQ(total_metrics.load(), 30 * 3);
  cluster.Stop();
}

// Submits paced events through one front end and checks every reply
// against the exact reference model.
class ExactSubmitter {
 public:
  explicit ExactSubmitter(FrontEnd* frontend)
      : frontend_(frontend), reference_(5 * kMicrosPerMinute) {}

  void SubmitRange(int begin, int end) {
    for (int i = begin; i < end; ++i) {
      const std::string card = "card" + std::to_string(i % 16);
      const Micros ts = static_cast<Micros>(i) * kMicrosPerSecond;
      const double amount = 1.0 + (i % 5);
      const auto [sum, count] = reference_.Apply(card, ts, amount);
      ++submitted_;
      const Status submitted = frontend_->Submit(
          "payments", PaymentEvent(ts, static_cast<uint64_t>(i + 1), card,
                                   amount),
          [this, sum = sum, count = count](
              Status s, const std::vector<MetricReply>& results) {
            bool exact = s.ok();
            for (const auto& r : results) {
              if (r.metric_name.rfind("sum", 0) == 0) {
                exact = exact && std::abs(r.value.ToNumber() - sum) < 1e-6;
              } else if (r.metric_name.rfind("count", 0) == 0) {
                exact = exact && static_cast<int64_t>(r.value.ToNumber()) ==
                                     count;
              }
            }
            ok_ += s.ok() ? 1 : 0;
            exact_ += exact ? 1 : 0;
            ++done_;
          });
      ASSERT_TRUE(submitted.ok()) << submitted.ToString();
      MonotonicClock::Default()->SleepMicros(1500);
    }
  }

  void AwaitAll() {
    for (int waited = 0; waited < 2000 && done_ < submitted_; ++waited) {
      MonotonicClock::Default()->SleepMicros(10000);
    }
  }

  int submitted() const { return submitted_; }
  int done() const { return done_; }
  int ok() const { return ok_; }
  int exact() const { return exact_; }

 private:
  FrontEnd* frontend_;
  ReferenceModel reference_;
  int submitted_ = 0;
  std::atomic<int> done_{0};
  std::atomic<int> ok_{0};
  std::atomic<int> exact_{0};
};

TEST(IntegrationTest, FencedUnitRejoinsAndStaysExact) {
  // A unit that is stuck past its bus session while its node's heartbeat
  // lives on: the bus fences it, and it must take partitions back by
  // itself once it polls again. Small chunks and checkpoints make every
  // task it gets back hold checkpointed state and persisted chunks, which
  // a rejoin must not apply a second time.
  const std::string base_dir = "/tmp/railgun_int_rejoin";
  ClusterOptions options = FastClusterOptions(base_dir, 2, 1);
  options.node.num_processor_units = 1;
  options.node.unit.task.reservoir.chunk_target_bytes = 512;
  options.node.unit.task.checkpoint_interval_events = 20;
  Cluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.RegisterStream(PaymentsStream(4)).ok());
  msg::InProcessBus* bus = cluster.bus();
  ProcessorUnit* fenced = cluster.node(0)->unit(0);
  ExactSubmitter submitter(cluster.node(1)->frontend());

  submitter.SubmitRange(0, 1000);
  submitter.AwaitAll();
  ASSERT_EQ(submitter.ok(), 1000);
  const std::vector<msg::TopicPartition> held =
      bus->AssignmentOf(fenced->unit_id());
  ASSERT_FALSE(held.empty());
  for (const auto& tp : held) {
    TaskProcessor* processor = fenced->FindProcessor(tp);
    ASSERT_NE(processor, nullptr) << tp.ToString();
    EXPECT_GT(processor->reservoir()->NumPersistedChunks(), 0u)
        << tp.ToString();
    EXPECT_TRUE(Env::Default()->FileExists(
        base_dir + "/" + cluster.node(0)->id() + "/u0/" +
        Coordinator::TaskSubdir(tp) + "/ckpt/CURRENT"))
        << tp.ToString();
  }

  ASSERT_TRUE(bus->KillConsumer(fenced->unit_id()).ok());
  const Micros fenced_at = MonotonicClock::Default()->NowMicros();
  submitter.SubmitRange(1000, 1100);

  while (bus->AssignmentOf(fenced->unit_id()).empty() &&
         MonotonicClock::Default()->NowMicros() - fenced_at <
             2 * kMicrosPerSecond) {
    MonotonicClock::Default()->SleepMicros(1000);
  }
  EXPECT_FALSE(bus->AssignmentOf(fenced->unit_id()).empty())
      << "the fenced unit did not rejoin within 2 s";

  submitter.SubmitRange(1100, 1200);
  submitter.AwaitAll();
  EXPECT_EQ(submitter.done(), submitter.submitted());
  EXPECT_EQ(submitter.ok(), submitter.submitted());
  EXPECT_EQ(submitter.exact(), submitter.submitted())
      << "replies diverged from the exact sliding-window reference";

  // Once the rejoin settles, the units' own task lists agree with the
  // bus: every partition is active on exactly one unit.
  std::vector<std::string> all, listed;
  for (const auto& tp : bus->PartitionsOf("payments.cardId")) {
    all.push_back(tp.ToString());
  }
  for (int waited = 0; waited < 200; ++waited) {
    listed.clear();
    for (int n = 0; n < cluster.num_nodes(); ++n) {
      for (const auto& tp : cluster.node(n)->unit(0)->active_tasks()) {
        listed.push_back(tp.ToString());
      }
    }
    std::sort(listed.begin(), listed.end());
    if (listed == all) break;
    MonotonicClock::Default()->SleepMicros(10000);
  }
  EXPECT_EQ(listed, all);
  cluster.Stop();
}

TEST(IntegrationTest, MetricAddedAtRunTimeStaysExactAfterItsOwnerDies) {
  // ADD METRIC on a live stream backfills the metric in the task that
  // owns the partition, and checkpoints land after it. Then the owner's
  // node dies: the other node recovers the task from the dead unit's
  // directory and must keep answering the new metric exactly.
  ClusterOptions options =
      FastClusterOptions("/tmp/railgun_int_add_metric", 2, 1);
  options.node.num_processor_units = 1;
  options.node.unit.task.reservoir.chunk_target_bytes = 512;
  options.node.unit.task.checkpoint_interval_events = 20;
  Cluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());
  api::Client client(&cluster);
  ASSERT_TRUE(client
                  .CreateStream("CREATE STREAM payments (cardId STRING, "
                                "amount DOUBLE) PARTITION BY cardId "
                                "PARTITIONS 1")
                  .ok());
  ASSERT_TRUE(client
                  .Query("ADD METRIC SELECT count(*) FROM payments "
                         "GROUP BY cardId OVER sliding 1 hour")
                  .ok());

  // One event per second; the brute-force 30-second sum reads them all.
  std::vector<std::pair<Micros, double>> history;
  int exact = 0;
  auto submit = [&](int i, bool check_sum) {
    const Micros ts = static_cast<Micros>(i) * kMicrosPerSecond;
    const double amount = 1.0 + i % 7;
    history.emplace_back(ts, amount);
    const api::EventResult r = client.SubmitSync(
        "payments",
        api::Row().At(ts).Set("cardId", "c").Set("amount", amount));
    ASSERT_TRUE(r.ok()) << i << ": " << r.status.ToString();
    if (!check_sum) return;
    double expected = 0;
    for (const auto& [t, a] : history) {
      if (t >= ts - 30 * kMicrosPerSecond) expected += a;
    }
    const api::MetricValue* sum = r.Find("sum(amount) over sliding 30s by cardId");
    ASSERT_NE(sum, nullptr) << i;
    EXPECT_DOUBLE_EQ(sum->value.ToNumber(), expected) << "event " << i;
    if (sum->value.ToNumber() == expected) ++exact;
  };

  for (int i = 0; i < 100; ++i) submit(i, false);
  ASSERT_TRUE(client
                  .Query("ADD METRIC SELECT sum(amount) FROM payments "
                         "GROUP BY cardId OVER sliding 30 seconds")
                  .ok());
  for (int i = 100; i < 160; ++i) submit(i, true);

  int owner = -1;
  for (int n = 0; n < cluster.num_nodes(); ++n) {
    if (!cluster.node(n)->unit(0)->active_tasks().empty()) owner = n;
  }
  ASSERT_NE(owner, -1);
  ASSERT_TRUE(cluster.KillNode(owner).ok());
  for (int i = 160; i < 260; ++i) submit(i, true);
  EXPECT_EQ(exact, 160);
  EXPECT_GT(cluster.TotalStats().recoveries, 0u);
  cluster.Stop();
}

TEST(IntegrationTest, FencedFrontEndRejoinsItsReplyGroup) {
  Cluster cluster(FastClusterOptions("/tmp/railgun_int_fe_rejoin", 1, 1));
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.RegisterStream(PaymentsStream(2)).ok());
  RailgunNode* node = cluster.node(0);
  ExactSubmitter submitter(node->frontend());
  submitter.SubmitRange(0, 5);
  submitter.AwaitAll();
  ASSERT_EQ(submitter.ok(), 5);

  ASSERT_TRUE(cluster.bus()->KillConsumer("fe." + node->id()).ok());
  submitter.SubmitRange(5, 15);
  submitter.AwaitAll();
  EXPECT_EQ(submitter.done(), 15);
  EXPECT_EQ(submitter.ok(), 15);
  EXPECT_EQ(submitter.exact(), 15);
  cluster.Stop();
}

}  // namespace
}  // namespace railgun::engine
