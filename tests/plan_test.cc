// Tests for the task plan DAG: prefix sharing, metric correctness across
// window kinds, filters, multiple group-bys, backfill, and window
// position checkpoint/restore.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/env.h"
#include "plan/task_plan.h"
#include "reservoir/segment.h"

namespace railgun::plan {
namespace {

using reservoir::Event;
using reservoir::FieldType;
using reservoir::FieldValue;

class TaskPlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "/tmp/railgun_plan_test";
    ASSERT_TRUE(Env::Default()->RemoveDirRecursive(dir_).ok());
    reservoir::ReservoirOptions ropts;
    ropts.chunk_target_bytes = 2048;
    ropts.async_io = false;
    ropts.schema_fields = {{"cardId", FieldType::kString},
                           {"merchantId", FieldType::kString},
                           {"amount", FieldType::kDouble}};
    reservoir_ = std::make_unique<reservoir::Reservoir>(ropts, dir_ + "/res");
    ASSERT_TRUE(reservoir_->Open().ok());
    storage::DBOptions dopts;
    ASSERT_TRUE(storage::DB::Open(dopts, dir_ + "/db", &db_).ok());
    plan_ = std::make_unique<TaskPlan>(reservoir_.get(), db_.get());
  }

  void AddQuery(const std::string& sql) {
    auto q = query::ParseQuery(sql);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    ASSERT_TRUE(plan_->AddQuery(q.value()).ok());
  }

  // Appends and processes one event; returns metric_name|group -> value.
  std::map<std::string, double> Step(Micros ts, const std::string& card,
                                     const std::string& merchant,
                                     double amount) {
    Event e;
    e.timestamp = ts;
    e.id = ++next_id_;
    e.offset = next_id_;
    e.values = {FieldValue(card), FieldValue(merchant), FieldValue(amount)};
    bool accepted;
    EXPECT_TRUE(reservoir_->Append(e, &accepted).ok());
    std::vector<MetricResult> results;
    EXPECT_TRUE(plan_->ProcessEvent(e, &results).ok());
    std::map<std::string, double> out;
    for (const auto& r : results) {
      out[r.metric_name + "|" + r.group_key] = r.value.ToNumber();
    }
    return out;
  }

  std::string dir_;
  std::unique_ptr<reservoir::Reservoir> reservoir_;
  std::unique_ptr<storage::DB> db_;
  std::unique_ptr<TaskPlan> plan_;
  uint64_t next_id_ = 0;
};

TEST_F(TaskPlanTest, PrefixSharingBuildsMinimalDag) {
  // Q1 and Q2 of the paper share the window; Q1 groups by card, Q2 by
  // merchant: 1 window node, 1 filter node, 2 group nodes, 3 metrics
  // (paper Fig. 6).
  AddQuery("SELECT sum(amount), count(*) FROM p GROUP BY cardId "
           "OVER sliding 5 minutes");
  AddQuery("SELECT avg(amount) FROM p GROUP BY merchantId "
           "OVER sliding 5 minutes");
  EXPECT_EQ(plan_->num_window_nodes(), 1u);
  EXPECT_EQ(plan_->num_filter_nodes(), 1u);
  EXPECT_EQ(plan_->num_group_nodes(), 2u);
  EXPECT_EQ(plan_->num_metrics(), 3u);
  // Shared window => one head + one tail iterator.
  EXPECT_EQ(plan_->num_edge_iterators(), 2u);
}

TEST_F(TaskPlanTest, DistinctWindowsSplitTheDag) {
  AddQuery("SELECT count(*) FROM p GROUP BY cardId OVER sliding 5 minutes");
  AddQuery("SELECT count(*) FROM p GROUP BY cardId OVER sliding 1 hour");
  EXPECT_EQ(plan_->num_window_nodes(), 2u);
  // Shared head, two tails.
  EXPECT_EQ(plan_->num_edge_iterators(), 3u);
}

TEST_F(TaskPlanTest, SlidingSumAndCountPerCard) {
  AddQuery("SELECT sum(amount), count(*) FROM p GROUP BY cardId "
           "OVER sliding 5 minutes");

  Step(1 * kMicrosPerMinute, "cardA", "m1", 10);
  Step(2 * kMicrosPerMinute, "cardB", "m1", 100);
  auto r = Step(3 * kMicrosPerMinute, "cardA", "m2", 20);
  EXPECT_DOUBLE_EQ(r["sum(amount) over sliding 5m by cardId|cardA"], 30);
  EXPECT_DOUBLE_EQ(r["count(*) over sliding 5m by cardId|cardA"], 2);

  // At minute 7, the minute-1 event has expired for cardA.
  auto r2 = Step(7 * kMicrosPerMinute, "cardA", "m1", 5);
  EXPECT_DOUBLE_EQ(r2["sum(amount) over sliding 5m by cardId|cardA"], 25);
  EXPECT_DOUBLE_EQ(r2["count(*) over sliding 5m by cardId|cardA"], 2);
}

TEST_F(TaskPlanTest, FilterExcludesEventsFromStateAndResults) {
  AddQuery("SELECT count(*) FROM p WHERE amount > 50 GROUP BY cardId "
           "OVER sliding 1 hour");
  auto r1 = Step(1000, "c", "m", 100);
  EXPECT_EQ(r1.size(), 1u);
  auto r2 = Step(2000, "c", "m", 10);  // Filtered out.
  EXPECT_TRUE(r2.empty());
  auto r3 = Step(3000, "c", "m", 60);
  EXPECT_DOUBLE_EQ(
      r3["count(*) over sliding 1h by cardId|c"], 2);  // 100 & 60.
}

TEST_F(TaskPlanTest, TumblingWindowResetsAggregation) {
  AddQuery("SELECT sum(amount) FROM p GROUP BY cardId "
           "OVER tumbling 1 minute");
  auto r1 = Step(10 * kMicrosPerSecond, "c", "m", 5);
  auto r2 = Step(50 * kMicrosPerSecond, "c", "m", 7);
  EXPECT_DOUBLE_EQ(r2["sum(amount) over tumbling 1m by cardId|c"], 12);
  // New tumbling instance after the minute boundary.
  auto r3 = Step(70 * kMicrosPerSecond, "c", "m", 3);
  EXPECT_DOUBLE_EQ(r3["sum(amount) over tumbling 1m by cardId|c"], 3);
}

TEST_F(TaskPlanTest, InfiniteWindowNeverForgets) {
  AddQuery("SELECT countDistinct(merchantId) FROM p GROUP BY cardId "
           "OVER infinite");
  Step(1, "c", "m1", 1);
  Step(2 * kMicrosPerDay, "c", "m2", 1);
  Step(4 * kMicrosPerDay, "c", "m1", 1);
  auto r = Step(30 * kMicrosPerDay, "c", "m3", 1);
  EXPECT_DOUBLE_EQ(
      r["countDistinct(merchantId) over infinite by cardId|c"], 3);
}

TEST_F(TaskPlanTest, CountDistinctExpiresWithWindow) {
  AddQuery("SELECT countDistinct(merchantId) FROM p GROUP BY cardId "
           "OVER sliding 10 minutes");
  Step(1 * kMicrosPerMinute, "c", "mA", 1);
  Step(2 * kMicrosPerMinute, "c", "mB", 1);
  auto r1 = Step(3 * kMicrosPerMinute, "c", "mA", 1);
  EXPECT_DOUBLE_EQ(
      r1["countDistinct(merchantId) over sliding 10m by cardId|c"], 2);
  // At minute 13, the events from minutes 1-2 expired; only the
  // minute-3 mA and this mC remain.
  auto r2 = Step(13 * kMicrosPerMinute, "c", "mC", 1);
  EXPECT_DOUBLE_EQ(
      r2["countDistinct(merchantId) over sliding 10m by cardId|c"], 2);
}

// countDistinct's per-value counts share the store with every other
// record, so their keys must keep each (group, value) pair apart even
// when '|' appears in a group key or in a counted value: card "x" seeing
// merchant "y|z" and card "x|y" seeing merchant "z" are two counters.
TEST_F(TaskPlanTest, CountDistinctKeepsGroupsApartWhateverTheirBytes) {
  AddQuery("SELECT countDistinct(merchantId) FROM p GROUP BY cardId "
           "OVER sliding 10 minutes");
  const std::string metric =
      "countDistinct(merchantId) over sliding 10m by cardId|";
  auto r1 = Step(1 * kMicrosPerMinute, "x", "y|z", 1);
  EXPECT_DOUBLE_EQ(r1[metric + "x"], 1);
  auto r2 = Step(2 * kMicrosPerMinute, "x|y", "z", 1);
  EXPECT_DOUBLE_EQ(r2[metric + "x|y"], 1);
  auto r3 = Step(3 * kMicrosPerMinute, "x", "y|z", 1);
  EXPECT_DOUBLE_EQ(r3[metric + "x"], 1);
  // The minute-1 and minute-2 events expire as each card sees a new one.
  auto r4 = Step(12 * kMicrosPerMinute + 30 * kMicrosPerSecond, "x|y", "z",
                 1);
  EXPECT_DOUBLE_EQ(r4[metric + "x|y"], 1);
  auto r5 = Step(13 * kMicrosPerMinute + 30 * kMicrosPerSecond, "x", "w", 1);
  EXPECT_DOUBLE_EQ(r5[metric + "x"], 1);
}

// The same pair in a tumbling window, whose state keys carry the epoch:
// counters stay apart within an epoch, and a new epoch starts from zero.
TEST_F(TaskPlanTest, TumblingCountDistinctKeepsGroupsApartPerEpoch) {
  AddQuery("SELECT countDistinct(merchantId) FROM p GROUP BY cardId "
           "OVER tumbling 10 minutes");
  const std::string metric =
      "countDistinct(merchantId) over tumbling 10m by cardId|";
  auto r1 = Step(61 * kMicrosPerMinute, "x", "y|z", 1);
  EXPECT_DOUBLE_EQ(r1[metric + "x"], 1);
  auto r2 = Step(62 * kMicrosPerMinute, "x|y", "z", 1);
  EXPECT_DOUBLE_EQ(r2[metric + "x|y"], 1);
  auto r3 = Step(63 * kMicrosPerMinute, "x|y", "q", 1);
  EXPECT_DOUBLE_EQ(r3[metric + "x|y"], 2);
  auto r4 = Step(71 * kMicrosPerMinute, "x|y", "z", 1);
  EXPECT_DOUBLE_EQ(r4[metric + "x|y"], 1);
  auto r5 = Step(72 * kMicrosPerMinute, "x", "y|z", 1);
  EXPECT_DOUBLE_EQ(r5[metric + "x"], 1);
}

TEST_F(TaskPlanTest, OneArrivalExpiresARunOfSameCardEvents) {
  AddQuery("SELECT sum(amount), max(amount), countDistinct(merchantId) "
           "FROM p GROUP BY cardId OVER sliding 10 minutes");
  struct Row {
    Micros ts;
    const char* card;
    const char* merchant;
    double amount;
  };
  // The first three cA events, the maximum among them, expire together
  // as one run when the last event arrives.
  const Row rows[] = {{60, "cA", "mA", 7},     {120, "cA", "mB", 9},
                      {180, "cA", "mA", 5},    {240, "cB", "mZ", 100},
                      {300, "cA", "mC", 1},    {360, "cA", "mB", 2},
                      {810, "cA", "mD", 4}};
  std::map<std::string, double> r;
  for (const Row& row : rows) {
    r = Step(row.ts * kMicrosPerSecond, row.card, row.merchant, row.amount);
  }

  // Brute force over cA's events in (now - 10m, now].
  const Micros now = rows[6].ts * kMicrosPerSecond;
  double sum = 0;
  double max = 0;
  std::set<std::string> merchants;
  size_t expired = 0;
  for (const Row& row : rows) {
    if (std::string(row.card) != "cA") continue;
    if (row.ts * kMicrosPerSecond <= now - 10 * kMicrosPerMinute) {
      ++expired;
      continue;
    }
    sum += row.amount;
    max = merchants.empty() ? row.amount : std::max(max, row.amount);
    merchants.insert(row.merchant);
  }
  ASSERT_EQ(expired, 3u);
  EXPECT_DOUBLE_EQ(r["sum(amount) over sliding 10m by cardId|cA"], sum);
  EXPECT_DOUBLE_EQ(r["max(amount) over sliding 10m by cardId|cA"], max);
  EXPECT_DOUBLE_EQ(
      r["countDistinct(merchantId) over sliding 10m by cardId|cA"],
      static_cast<double>(merchants.size()));
}

TEST_F(TaskPlanTest, MultiGroupByKeysConcatenate) {
  AddQuery("SELECT count(*) FROM p GROUP BY cardId, merchantId "
           "OVER sliding 1 hour");
  Step(1000, "c1", "m1", 1);
  Step(2000, "c1", "m2", 1);
  auto r = Step(3000, "c1", "m1", 1);
  bool found = false;
  for (const auto& [k, v] : r) {
    if (k.find("c1\x1fm1") != std::string::npos) {
      EXPECT_DOUBLE_EQ(v, 2);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(TaskPlanTest, BackfillComputesOverHistoricalEvents) {
  AddQuery("SELECT count(*) FROM p GROUP BY cardId OVER sliding 1 hour");
  for (int i = 0; i < 50; ++i) {
    Step(i * kMicrosPerMinute, "c", "m", 2.0);
  }
  // Add sum(amount) later and backfill it from the reservoir
  // (paper §6 future work: metrics backfill).
  auto q = query::ParseQuery(
      "SELECT sum(amount) FROM p GROUP BY cardId OVER sliding 1 hour");
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(plan_->AddQueryBackfilled(q.value()).ok());

  // The next event sees a fully backfilled hour of history: events at
  // minutes 0-49 are all inside [t-60m, t] for t = minute 50.
  auto r = Step(50 * kMicrosPerMinute, "c", "m", 2.0);
  EXPECT_DOUBLE_EQ(r["sum(amount) over sliding 1h by cardId|c"], 102.0);
  EXPECT_DOUBLE_EQ(r["count(*) over sliding 1h by cardId|c"], 51);
}

TEST_F(TaskPlanTest, WindowPositionsSurviveSaveRestore) {
  AddQuery("SELECT sum(amount) FROM p GROUP BY cardId "
           "OVER sliding 5 minutes");
  for (int i = 0; i < 30; ++i) {
    Step(i * kMicrosPerMinute, "c", "m", 1.0);
  }
  std::string blob;
  plan_->Save(&blob);
  EXPECT_FALSE(blob.empty());

  // A new plan over the same reservoir/db, restored from the blob alone,
  // continues with identical results.
  auto plan2 = std::make_unique<TaskPlan>(reservoir_.get(), db_.get());
  ASSERT_TRUE(plan2->Restore(blob).ok());
  EXPECT_TRUE(plan2->HasQuery(
      "SELECT sum(amount) FROM p GROUP BY cardId OVER sliding 5 minutes"));

  Event e;
  e.timestamp = 30 * kMicrosPerMinute;
  e.id = 1000;
  e.offset = 1000;
  e.values = {FieldValue("c"), FieldValue("m"), FieldValue(1.0)};
  bool accepted;
  ASSERT_TRUE(reservoir_->Append(e, &accepted).ok());

  std::vector<MetricResult> r1, r2;
  ASSERT_TRUE(plan_->ProcessEvent(e, &r1).ok());
  // plan2's restored iterators sit at exactly the positions plan_ had
  // before this event, so processing it re-applies the *same* delta
  // (same enters, same expires) to the shared state store — the
  // reported value must therefore be identical. A mispositioned restore
  // would double-expire or double-enter and diverge.
  ASSERT_TRUE(plan2->ProcessEvent(e, &r2).ok());
  ASSERT_EQ(r1.size(), 1u);
  ASSERT_EQ(r2.size(), 1u);
  EXPECT_NEAR(r2[0].value.ToNumber(), r1[0].value.ToNumber(), 1e-9);
}

// Runs one appended event through both plans and expects the same
// results: metric ids, names, groups and values.
void ExpectSameResults(TaskPlan* running, TaskPlan* restored,
                       const Event& e) {
  std::vector<MetricResult> want, got;
  ASSERT_TRUE(running->ProcessEvent(e, &want).ok());
  ASSERT_TRUE(restored->ProcessEvent(e, &got).ok());
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].metric_id, want[i].metric_id);
    EXPECT_EQ(got[i].metric_name, want[i].metric_name);
    EXPECT_EQ(got[i].group_key, want[i].group_key);
    EXPECT_DOUBLE_EQ(got[i].value.ToNumber(), want[i].value.ToNumber())
        << want[i].metric_name << " at ts " << e.timestamp;
  }
}

TEST_F(TaskPlanTest, BackfilledIslandSurvivesSaveAndRestore) {
  AddQuery("SELECT count(*) FROM p GROUP BY cardId OVER sliding 1 hour");
  for (int i = 0; i < 30; ++i) {
    Step(i * kMicrosPerMinute, "c", "m", 1.0 + i % 3);
  }
  auto q = query::ParseQuery(
      "SELECT sum(amount) FROM p GROUP BY cardId OVER sliding 5 minutes");
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(plan_->AddQueryBackfilled(q.value()).ok());
  for (int i = 30; i < 40; ++i) {
    Step(i * kMicrosPerMinute, "c", "m", 1.0 + i % 3);
  }

  // A checkpoint: the plan blob plus a copy of the state store, which the
  // restored plan gets to itself.
  std::string blob;
  plan_->Save(&blob);
  ASSERT_TRUE(db_->Checkpoint(dir_ + "/ckpt").ok());
  std::unique_ptr<storage::DB> db2;
  ASSERT_TRUE(storage::DB::Open(storage::DBOptions(), dir_ + "/ckpt", &db2)
                  .ok());
  TaskPlan restored(reservoir_.get(), db2.get());
  ASSERT_TRUE(restored.Restore(blob).ok());
  EXPECT_EQ(restored.num_metrics(), plan_->num_metrics());
  EXPECT_EQ(restored.num_edge_iterators(), plan_->num_edge_iterators());
  EXPECT_TRUE(restored.HasQuery(q.value().raw));

  // The 5-minute window keeps expiring: every later event reads the
  // same values from both plans.
  for (int i = 40; i < 60; ++i) {
    Event e;
    e.timestamp = i * kMicrosPerMinute;
    e.id = ++next_id_;
    e.offset = next_id_;
    e.values = {FieldValue("c"), FieldValue("m"), FieldValue(1.0 + i % 3)};
    ASSERT_TRUE(reservoir_->Append(e).ok());
    ExpectSameResults(plan_.get(), &restored, e);
  }
}

TEST_F(TaskPlanTest, RestoreNeedsAPlanWithoutQueries) {
  AddQuery("SELECT count(*) FROM p GROUP BY cardId OVER sliding 1 hour");
  std::string blob;
  plan_->Save(&blob);
  EXPECT_TRUE(plan_->Restore(blob).IsInvalidArgument());
}

TEST_F(TaskPlanTest, DamagedPlanBlobsAreRejected) {
  // Every window kind, a filter, and a backfilled island: the blob
  // carries edge positions, a count window and two islands.
  AddQuery("SELECT sum(amount), count(*) FROM p WHERE amount > 1 "
           "GROUP BY cardId OVER sliding 5 minutes delayed by 1 minute");
  AddQuery("SELECT count(*) FROM p GROUP BY merchantId OVER tumbling 10 "
           "minutes");
  AddQuery("SELECT max(amount) FROM p GROUP BY cardId OVER sliding 3 events");
  AddQuery("SELECT countDistinct(merchantId) FROM p GROUP BY cardId "
           "OVER infinite");
  for (int i = 0; i < 20; ++i) {
    Step(i * kMicrosPerMinute, "c" + std::to_string(i % 2), "m", i % 4);
  }
  auto q = query::ParseQuery(
      "SELECT avg(amount) FROM p GROUP BY cardId OVER sliding 2 minutes");
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(plan_->AddQueryBackfilled(q.value()).ok());
  std::string blob;
  plan_->Save(&blob);

  auto restore = [&](const std::string& bytes) {
    TaskPlan plan(reservoir_.get(), db_.get());
    return plan.Restore(bytes);
  };
  ASSERT_TRUE(restore(blob).ok());
  for (size_t len = 0; len < blob.size(); ++len) {
    EXPECT_FALSE(restore(blob.substr(0, len)).ok()) << "length " << len;
  }
  for (size_t i = 0; i < blob.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string damaged = blob;
      damaged[i] = static_cast<char>(damaged[i] ^ (1 << bit));
      EXPECT_FALSE(restore(damaged).ok()) << "byte " << i << " bit " << bit;
    }
  }
  // A blob from the earlier layout (one length-prefixed position record
  // per island, no queries, no checksum) is Corruption.
  std::string island;
  PutVarint32(&island, 1);  // One head: offset 0 at chunk 1, index 0.
  PutVarsint64(&island, 0);
  PutVarint64(&island, 1);
  PutVarint64(&island, 0);
  PutVarint32(&island, 0);  // No tails.
  PutVarint32(&island, 0);  // No operator state.
  std::string old_blob;
  PutLengthPrefixedSlice(&old_blob, island);
  EXPECT_TRUE(restore(old_blob).IsCorruption());

  // Under a re-stamped checksum the decoder itself meets every flip:
  // whatever the status, it must not read out of bounds (the sanitizer
  // builds run this).
  const size_t body = blob.size() - 4;
  for (size_t i = 0; i < body; ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string damaged = blob.substr(0, body);
      damaged[i] = static_cast<char>(damaged[i] ^ (1 << bit));
      PutFixed32(&damaged,
                 crc32c::Mask(crc32c::Value(damaged.data(), damaged.size())));
      (void)restore(damaged);
    }
  }
}

TEST_F(TaskPlanTest, UnreadableSealedChunkFailsTheEventInsteadOfEndingTheTail) {
  // A one-chunk cache without prefetch: a sealed chunk that the tail has
  // not reached yet is read back from disk when the tail gets there.
  plan_.reset();
  reservoir_.reset();
  const std::string res_dir = dir_ + "/res_damaged";
  reservoir::ReservoirOptions ropts;
  ropts.chunk_target_bytes = 2048;
  ropts.async_io = false;
  ropts.cache_capacity = 1;
  ropts.enable_prefetch = false;
  ropts.schema_fields = {{"cardId", FieldType::kString},
                         {"merchantId", FieldType::kString},
                         {"amount", FieldType::kDouble}};
  reservoir_ = std::make_unique<reservoir::Reservoir>(ropts, res_dir);
  ASSERT_TRUE(reservoir_->Open().ok());
  plan_ = std::make_unique<TaskPlan>(reservoir_.get(), db_.get());
  AddQuery("SELECT sum(amount) FROM p GROUP BY cardId "
           "OVER sliding 10 minutes");

  // Under ten minutes of events: nothing expires, several chunks seal.
  Micros ts = 0;
  while (reservoir_->stats().chunks_written < 4) {
    ts += kMicrosPerSecond / 2;
    ASSERT_LT(ts, 9 * kMicrosPerMinute);
    Step(ts, "c1", "m1", 1.0);
  }

  // Flip one payload byte of the second sealed chunk's record.
  std::vector<reservoir::ChunkLocation> locations;
  uint64_t last_number = 0, last_size = 0;
  ASSERT_TRUE(reservoir::SegmentReader(Env::Default(), res_dir)
                  .ScanAll(&locations, &last_number, &last_size)
                  .ok());
  ASSERT_GE(locations.size(), 3u);
  const reservoir::ChunkLocation& damaged = locations[1];
  const std::string segment =
      reservoir::SegmentFileName(res_dir, damaged.file_number);
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(Env::Default(), segment, &bytes).ok());
  bytes[damaged.offset + 16 + damaged.size / 2] ^= 0x40;
  ASSERT_TRUE(WriteStringToFile(Env::Default(), bytes, segment).ok());

  // Ten minutes later the window's tail must expire everything, across
  // the damaged chunk: the read error fails the event, every time.
  for (int i = 1; i <= 2; ++i) {
    Event e;
    e.timestamp = ts + 10 * kMicrosPerMinute + i;
    e.id = ++next_id_;
    e.offset = next_id_;
    e.values = {FieldValue("c1"), FieldValue("m1"), FieldValue(1.0)};
    ASSERT_TRUE(reservoir_->Append(e).ok());
    std::vector<MetricResult> results;
    const Status processed = plan_->ProcessEvent(e, &results);
    EXPECT_TRUE(processed.IsCorruption()) << i << ": " << processed.ToString();
  }
}

TEST_F(TaskPlanTest, UnknownFieldsRejected) {
  auto q1 = query::ParseQuery(
      "SELECT sum(nope) FROM p GROUP BY cardId OVER infinite");
  ASSERT_TRUE(q1.ok());
  EXPECT_FALSE(plan_->AddQuery(q1.value()).ok());
  auto q2 = query::ParseQuery(
      "SELECT count(*) FROM p GROUP BY nope OVER infinite");
  ASSERT_TRUE(q2.ok());
  EXPECT_FALSE(plan_->AddQuery(q2.value()).ok());
}

}  // namespace
}  // namespace railgun::plan
