// Tests for window specs and the window operator / manager, including
// iterator sharing across aligned windows (paper §4.1.1).
#include <gtest/gtest.h>

#include "common/env.h"
#include "reservoir/reservoir.h"
#include "window/window_operator.h"

namespace railgun::window {
namespace {

using reservoir::Event;
using reservoir::FieldType;
using reservoir::FieldValue;

TEST(WindowSpecTest, FactoriesAndEquality) {
  const WindowSpec a = WindowSpec::Sliding(5 * kMicrosPerMinute);
  const WindowSpec b = WindowSpec::Sliding(5 * kMicrosPerMinute);
  const WindowSpec c = WindowSpec::Sliding(5 * kMicrosPerMinute,
                                           kMicrosPerMinute);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  EXPECT_NE(a.Key(), c.Key());
  EXPECT_EQ(a.Key(), b.Key());
}

TEST(WindowSpecTest, ToStringHumanReadable) {
  EXPECT_EQ(WindowSpec::Sliding(5 * kMicrosPerMinute).ToString(),
            "sliding 5m");
  EXPECT_EQ(WindowSpec::Tumbling(kMicrosPerHour).ToString(), "tumbling 1h");
  EXPECT_EQ(WindowSpec::Infinite().ToString(), "infinite");
  EXPECT_EQ(WindowSpec::Sliding(7 * kMicrosPerDay).ToString(), "sliding 7d");
  EXPECT_EQ(
      WindowSpec::Sliding(kMicrosPerMinute, 30 * kMicrosPerSecond).ToString(),
      "sliding 1m delayed by 30s");
}

TEST(WindowSpecTest, EdgeOffsets) {
  const WindowSpec w = WindowSpec::Sliding(10 * kMicrosPerMinute,
                                           2 * kMicrosPerMinute);
  EXPECT_EQ(w.HeadOffset(), 2 * kMicrosPerMinute);
  EXPECT_EQ(w.TailOffset(), 12 * kMicrosPerMinute);
}

class WindowOperatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "/tmp/railgun_window_test";
    ASSERT_TRUE(Env::Default()->RemoveDirRecursive(dir_).ok());
    reservoir::ReservoirOptions options;
    options.chunk_target_bytes = 2048;
    options.async_io = false;
    options.schema_fields = {{"v", FieldType::kDouble}};
    reservoir_ = std::make_unique<reservoir::Reservoir>(options, dir_);
    ASSERT_TRUE(reservoir_->Open().ok());
    manager_ = std::make_unique<WindowManager>(reservoir_.get());
  }

  // Appends an event and advances all windows; returns the delta for
  // op. The delta's pointers reference edges_, which lives until the
  // next Step (mirroring the plan executor's usage contract).
  WindowDelta Step(WindowOperator* op, Micros ts, uint64_t id) {
    Event e;
    e.timestamp = ts;
    e.id = id;
    e.offset = id;
    e.values = {FieldValue(static_cast<double>(id))};
    bool accepted;
    EXPECT_TRUE(reservoir_->Append(e, &accepted).ok());
    EXPECT_TRUE(manager_->Advance(ts, &edges_).ok());
    WindowDelta delta;
    EXPECT_TRUE(op->Collect(ts, edges_, &delta).ok());
    return delta;
  }

  std::string dir_;
  std::unique_ptr<reservoir::Reservoir> reservoir_;
  std::unique_ptr<WindowManager> manager_;
  EdgeDeltas edges_;
};

TEST_F(WindowOperatorTest, SlidingWindowEnterAndExpire) {
  WindowOperator* op =
      manager_->GetOrCreate(WindowSpec::Sliding(10 * kMicrosPerSecond));

  // Events at t=0s,1s,...: nothing expires until t > 10s.
  for (int i = 0; i <= 10; ++i) {
    const WindowDelta delta =
        Step(op, i * kMicrosPerSecond, static_cast<uint64_t>(i + 1));
    EXPECT_EQ(delta.entered.size(), 1u) << i;
    EXPECT_TRUE(delta.expired.empty()) << i;
  }
  // t=11s: the t=0 event is now strictly older than T_eval - ws.
  const WindowDelta delta = Step(op, 11 * kMicrosPerSecond, 12);
  ASSERT_EQ(delta.expired.size(), 1u);
  EXPECT_EQ(delta.expired[0]->timestamp, 0);
  // Boundary event (t=1s at T_eval=11s) stays: T_eval - ws <= t_i.
}

TEST_F(WindowOperatorTest, Figure1BurstAllFiveEventsInWindow) {
  // The paper's Figure 1: events at minutes 1,2,3,4 and 5.5; a true
  // 5-minute sliding window contains all five at the fifth arrival.
  WindowOperator* op =
      manager_->GetOrCreate(WindowSpec::Sliding(5 * kMicrosPerMinute));
  int in_window = 0;
  const double minutes[] = {1, 2, 3, 4, 5.5};
  WindowDelta delta;
  for (int i = 0; i < 5; ++i) {
    delta = Step(op, static_cast<Micros>(minutes[i] * kMicrosPerMinute),
                 static_cast<uint64_t>(i + 1));
    in_window +=
        static_cast<int>(delta.entered.size() - delta.expired.size());
  }
  EXPECT_EQ(in_window, 5);
}

TEST_F(WindowOperatorTest, TumblingWindowResetsOnBoundary) {
  WindowOperator* op =
      manager_->GetOrCreate(WindowSpec::Tumbling(kMicrosPerMinute));

  WindowDelta d1 = Step(op, 10 * kMicrosPerSecond, 1);
  EXPECT_EQ(d1.epoch, 0);
  WindowDelta d2 = Step(op, 50 * kMicrosPerSecond, 2);
  EXPECT_EQ(d2.epoch, 0);
  WindowDelta d3 = Step(op, 70 * kMicrosPerSecond, 3);
  EXPECT_EQ(d3.epoch, kMicrosPerMinute);  // Crossed the 60 s boundary.
  EXPECT_TRUE(d3.expired.empty());  // Tumbling never expires; it resets.
}

TEST_F(WindowOperatorTest, InfiniteWindowNeverExpires) {
  WindowOperator* op = manager_->GetOrCreate(WindowSpec::Infinite());
  for (int i = 0; i < 500; ++i) {
    const WindowDelta delta =
        Step(op, i * kMicrosPerHour, static_cast<uint64_t>(i + 1));
    EXPECT_TRUE(delta.expired.empty());
    EXPECT_EQ(delta.entered.size(), 1u);
  }
}

TEST_F(WindowOperatorTest, DelayedWindowLagsArrivals) {
  // 10 s window delayed by 5 s: an event enters the window only once a
  // newer event pushes T_eval past its timestamp + 5 s.
  WindowOperator* op = manager_->GetOrCreate(
      WindowSpec::Sliding(10 * kMicrosPerSecond, 5 * kMicrosPerSecond));

  WindowDelta d1 = Step(op, 0, 1);
  EXPECT_TRUE(d1.entered.empty());  // Its own delay excludes it.
  WindowDelta d2 = Step(op, 4 * kMicrosPerSecond, 2);
  EXPECT_TRUE(d2.entered.empty());
  WindowDelta d3 = Step(op, 6 * kMicrosPerSecond, 3);
  ASSERT_EQ(d3.entered.size(), 1u);  // The t=0 event (6-5 >= 0).
  EXPECT_EQ(d3.entered[0]->timestamp, 0);
}

TEST_F(WindowOperatorTest, CountSlidingWindowKeepsExactlyN) {
  WindowOperator* op = manager_->GetOrCreate(WindowSpec::CountSliding(3));
  int64_t in_window = 0;
  for (int i = 0; i < 10; ++i) {
    const WindowDelta delta =
        Step(op, i * kMicrosPerSecond, static_cast<uint64_t>(i + 1));
    in_window +=
        static_cast<int64_t>(delta.entered.size()) -
        static_cast<int64_t>(delta.expired.size());
    if (i >= 2) {
      EXPECT_EQ(in_window, 3);
    }
  }
}

TEST_F(WindowOperatorTest, AlignedWindowsShareIterators) {
  // Same head (delay 0); 1-min and 5-min tails differ => 1 head + 2
  // tails = 3 iterators for two windows (paper: shared head).
  manager_->GetOrCreate(WindowSpec::Sliding(kMicrosPerMinute));
  manager_->GetOrCreate(WindowSpec::Sliding(5 * kMicrosPerMinute));
  EXPECT_EQ(manager_->num_edge_iterators(), 3u);

  // A third window aligned end-to-end with the first
  // (delay 4 min + size 1 min => tail offset 5 min) reuses that tail and
  // adds one head.
  manager_->GetOrCreate(
      WindowSpec::Sliding(kMicrosPerMinute, 4 * kMicrosPerMinute));
  EXPECT_EQ(manager_->num_edge_iterators(), 4u);

  // Duplicate spec adds nothing.
  manager_->GetOrCreate(WindowSpec::Sliding(kMicrosPerMinute));
  EXPECT_EQ(manager_->num_edge_iterators(), 4u);
  EXPECT_EQ(manager_->num_operators(), 3u);
}

TEST_F(WindowOperatorTest, SharedTailBroadcastsToBothWindows) {
  WindowOperator* w1 =
      manager_->GetOrCreate(WindowSpec::Sliding(10 * kMicrosPerSecond));
  WindowOperator* w2 = manager_->GetOrCreate(
      WindowSpec::Sliding(5 * kMicrosPerSecond, 5 * kMicrosPerSecond));
  ASSERT_EQ(w1->spec().TailOffset(), w2->spec().TailOffset());

  // Drive far enough that expirations occur, collecting for both.
  int w1_expired = 0, w2_expired = 0;
  for (int i = 0; i < 30; ++i) {
    Event e;
    e.timestamp = i * kMicrosPerSecond;
    e.id = static_cast<uint64_t>(i + 1);
    e.offset = e.id;
    e.values = {FieldValue(1.0)};
    bool accepted;
    ASSERT_TRUE(reservoir_->Append(e, &accepted).ok());
    EdgeDeltas edges;
    EXPECT_TRUE(manager_->Advance(e.timestamp, &edges).ok());
    WindowDelta d1, d2;
    EXPECT_TRUE(w1->Collect(e.timestamp, edges, &d1).ok());
    EXPECT_TRUE(w2->Collect(e.timestamp, edges, &d2).ok());
    w1_expired += static_cast<int>(d1.expired.size());
    w2_expired += static_cast<int>(d2.expired.size());
  }
  EXPECT_GT(w1_expired, 0);
  EXPECT_EQ(w1_expired, w2_expired);  // Broadcast, not consumed-once.
}

TEST_F(WindowOperatorTest, SaveRestorePositionsResumeExactly) {
  WindowOperator* op =
      manager_->GetOrCreate(WindowSpec::Sliding(10 * kMicrosPerSecond));
  for (int i = 0; i < 50; ++i) {
    Step(op, i * kMicrosPerSecond, static_cast<uint64_t>(i + 1));
  }
  std::string blob;
  manager_->SavePositions(&blob);

  // A fresh manager restored from the blob expires exactly the same
  // events going forward as the original.
  WindowManager restored_mgr(reservoir_.get());
  WindowOperator* restored_op =
      restored_mgr.GetOrCreate(WindowSpec::Sliding(10 * kMicrosPerSecond));
  ASSERT_TRUE(restored_mgr.RestorePositions(blob).ok());

  for (int i = 50; i < 60; ++i) {
    Event e;
    e.timestamp = i * kMicrosPerSecond;
    e.id = static_cast<uint64_t>(i + 1);
    e.offset = e.id;
    e.values = {FieldValue(1.0)};
    bool accepted;
    ASSERT_TRUE(reservoir_->Append(e, &accepted).ok());

    EdgeDeltas edges1, edges2;
    EXPECT_TRUE(manager_->Advance(e.timestamp, &edges1).ok());
    EXPECT_TRUE(restored_mgr.Advance(e.timestamp, &edges2).ok());
    WindowDelta d1, d2;
    EXPECT_TRUE(op->Collect(e.timestamp, edges1, &d1).ok());
    EXPECT_TRUE(restored_op->Collect(e.timestamp, edges2, &d2).ok());
    ASSERT_EQ(d1.expired.size(), d2.expired.size());
    for (size_t k = 0; k < d1.expired.size(); ++k) {
      EXPECT_EQ(d1.expired[k]->id, d2.expired[k]->id);
    }
  }
}

TEST_F(WindowOperatorTest, RestoredCountWindowKeepsItsState) {
  // Fill a 3-event count window past capacity so it carries real
  // per-operator state: in_window_ == 3 and an advanced count tail.
  WindowOperator* op = manager_->GetOrCreate(WindowSpec::CountSliding(3));
  for (int i = 0; i < 5; ++i) {
    Step(op, i * kMicrosPerSecond, static_cast<uint64_t>(i + 1));
  }
  std::string blob;
  manager_->SavePositions(&blob);

  // Create, then restore: a full window expires exactly one event per
  // arrival, the same one the original expires.
  WindowManager restored(reservoir_.get());
  WindowOperator* restored_op =
      restored.GetOrCreate(WindowSpec::CountSliding(3));
  ASSERT_TRUE(restored.RestorePositions(blob).ok());

  for (int i = 5; i < 8; ++i) {
    Event e;
    e.timestamp = i * kMicrosPerSecond;
    e.id = static_cast<uint64_t>(i + 1);
    e.offset = e.id;
    e.values = {FieldValue(1.0)};
    bool accepted;
    ASSERT_TRUE(reservoir_->Append(e, &accepted).ok());

    EdgeDeltas edges0, edges1;
    EXPECT_TRUE(manager_->Advance(e.timestamp, &edges0).ok());
    EXPECT_TRUE(restored.Advance(e.timestamp, &edges1).ok());
    WindowDelta d0, d1;
    EXPECT_TRUE(op->Collect(e.timestamp, edges0, &d0).ok());
    EXPECT_TRUE(restored_op->Collect(e.timestamp, edges1, &d1).ok());
    ASSERT_EQ(d0.expired.size(), 1u);
    ASSERT_EQ(d1.expired.size(), d0.expired.size());
    EXPECT_EQ(d1.expired[0]->id, d0.expired[0]->id);
  }
}

TEST_F(WindowOperatorTest, RestoreOfAnEntryWithNoOperatorIsCorruption) {
  // Restore follows creation, so every entry must name an edge or a
  // count window the manager holds.
  WindowOperator* op = manager_->GetOrCreate(WindowSpec::CountSliding(3));
  Step(op, kMicrosPerSecond, 1);
  std::string blob;
  manager_->SavePositions(&blob);

  // No operator at all: the head entry and the count window name nothing.
  WindowManager empty(reservoir_.get());
  EXPECT_TRUE(empty.RestorePositions(blob).IsCorruption());

  // The same edges (a count window's head is the offset-0 head an
  // infinite window also uses) but no count window for the entry.
  WindowManager no_count_window(reservoir_.get());
  no_count_window.GetOrCreate(WindowSpec::Infinite());
  EXPECT_TRUE(no_count_window.RestorePositions(blob).IsCorruption());

  // A count window of another size has another key.
  WindowManager other_count(reservoir_.get());
  other_count.GetOrCreate(WindowSpec::CountSliding(4));
  EXPECT_TRUE(other_count.RestorePositions(blob).IsCorruption());

  // An operator the blob does not name is Corruption as well.
  WindowManager extra(reservoir_.get());
  extra.GetOrCreate(WindowSpec::CountSliding(3));
  extra.GetOrCreate(WindowSpec::CountSliding(4));
  EXPECT_TRUE(extra.RestorePositions(blob).IsCorruption());

  WindowManager same(reservoir_.get());
  same.GetOrCreate(WindowSpec::CountSliding(3));
  EXPECT_TRUE(same.RestorePositions(blob).ok());
}

}  // namespace
}  // namespace railgun::window
