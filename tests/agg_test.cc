// Tests for every aggregator (paper Fig. 4), including expiry semantics,
// a property sweep comparing the incremental aggregators against
// brute-force recomputation over a sliding window, and a check that
// results do not depend on how updates split into runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <set>
#include <vector>

#include "agg/aggregator.h"
#include "common/random.h"
#include "storage/db.h"

namespace railgun::agg {
namespace {

using reservoir::Event;
using reservoir::FieldValue;

// An event whose field 0 holds `value`.
Event MakeEvent(uint64_t offset, FieldValue value) {
  Event e;
  e.offset = offset;
  e.id = offset;
  e.timestamp = static_cast<Micros>(offset) * 1000;
  e.values = {std::move(value)};
  return e;
}

// One-event updates: a run of length 1 over field 0.
Status EnterOne(Aggregator* agg, FieldValue value, uint64_t offset,
                std::string* state, AggContext* ctx = nullptr) {
  const Event event = MakeEvent(offset, std::move(value));
  const Event* run = &event;
  return agg->Enter(&run, 1, /*field=*/0, state, ctx);
}

Status ExpireOne(Aggregator* agg, FieldValue value, uint64_t offset,
                 std::string* state, AggContext* ctx = nullptr) {
  const Event event = MakeEvent(offset, std::move(value));
  const Event* run = &event;
  return agg->Expire(&run, 1, /*field=*/0, state, ctx);
}

double ResultOf(Aggregator* agg, const std::string& state) {
  auto r = agg->Result(state);
  EXPECT_TRUE(r.ok());
  return r.value().ToNumber();
}

TEST(AggKindTest, ParseAllNames) {
  EXPECT_EQ(ParseAggKind("count").value(), AggKind::kCount);
  EXPECT_EQ(ParseAggKind("SUM").value(), AggKind::kSum);
  EXPECT_EQ(ParseAggKind("Avg").value(), AggKind::kAvg);
  EXPECT_EQ(ParseAggKind("stdDev").value(), AggKind::kStdDev);
  EXPECT_EQ(ParseAggKind("max").value(), AggKind::kMax);
  EXPECT_EQ(ParseAggKind("min").value(), AggKind::kMin);
  EXPECT_EQ(ParseAggKind("last").value(), AggKind::kLast);
  EXPECT_EQ(ParseAggKind("prev").value(), AggKind::kPrev);
  EXPECT_EQ(ParseAggKind("countDistinct").value(), AggKind::kCountDistinct);
  EXPECT_FALSE(ParseAggKind("median").ok());
}

TEST(CountTest, EnterExpire) {
  auto agg = Aggregator::Create(AggKind::kCount);
  std::string state;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(EnterOne(agg.get(), FieldValue(1.0), i, &state).ok());
  }
  EXPECT_EQ(ResultOf(agg.get(), state), 5);
  ASSERT_TRUE(ExpireOne(agg.get(), FieldValue(1.0), 0, &state).ok());
  EXPECT_EQ(ResultOf(agg.get(), state), 4);
}

TEST(SumTest, EnterExpireWithNegatives) {
  auto agg = Aggregator::Create(AggKind::kSum);
  std::string state;
  ASSERT_TRUE(EnterOne(agg.get(), FieldValue(10.5), 1, &state).ok());
  ASSERT_TRUE(EnterOne(agg.get(), FieldValue(-3.25), 2, &state).ok());
  EXPECT_DOUBLE_EQ(ResultOf(agg.get(), state), 7.25);
  ASSERT_TRUE(ExpireOne(agg.get(), FieldValue(10.5), 1, &state).ok());
  EXPECT_DOUBLE_EQ(ResultOf(agg.get(), state), -3.25);
}

TEST(AvgTest, TracksSumAndCount) {
  auto agg = Aggregator::Create(AggKind::kAvg);
  std::string state;
  for (double v : {2.0, 4.0, 6.0}) {
    ASSERT_TRUE(EnterOne(agg.get(), FieldValue(v), 1, &state).ok());
  }
  EXPECT_DOUBLE_EQ(ResultOf(agg.get(), state), 4.0);
  ASSERT_TRUE(ExpireOne(agg.get(), FieldValue(2.0), 1, &state).ok());
  EXPECT_DOUBLE_EQ(ResultOf(agg.get(), state), 5.0);
}

TEST(AvgTest, EmptyWindowIsZero) {
  auto agg = Aggregator::Create(AggKind::kAvg);
  std::string state;
  EXPECT_DOUBLE_EQ(ResultOf(agg.get(), state), 0.0);
  ASSERT_TRUE(EnterOne(agg.get(), FieldValue(5.0), 1, &state).ok());
  ASSERT_TRUE(ExpireOne(agg.get(), FieldValue(5.0), 1, &state).ok());
  EXPECT_DOUBLE_EQ(ResultOf(agg.get(), state), 0.0);
}

TEST(StdDevTest, MatchesClosedForm) {
  auto agg = Aggregator::Create(AggKind::kStdDev);
  std::string state;
  const double values[] = {2, 4, 4, 4, 5, 5, 7, 9};
  for (double v : values) {
    ASSERT_TRUE(EnterOne(agg.get(), FieldValue(v), 1, &state).ok());
  }
  // Sample stddev of this classic set: sqrt(32/7).
  EXPECT_NEAR(ResultOf(agg.get(), state), std::sqrt(32.0 / 7.0), 1e-9);
}

TEST(StdDevTest, ExpiryInvertsWelford) {
  auto agg = Aggregator::Create(AggKind::kStdDev);
  std::string state;
  // Enter 1..6, expire 1: result equals stddev of 2..6.
  for (int v = 1; v <= 6; ++v) {
    ASSERT_TRUE(
        EnterOne(agg.get(), FieldValue(static_cast<double>(v)), 1, &state)
            .ok());
  }
  ASSERT_TRUE(ExpireOne(agg.get(), FieldValue(1.0), 1, &state).ok());
  // stddev({2,3,4,5,6}) = sqrt(10/4).
  EXPECT_NEAR(ResultOf(agg.get(), state), std::sqrt(10.0 / 4.0), 1e-9);
}

TEST(MaxMinTest, MonotonicDequeExactUnderExpiry) {
  auto max_agg = Aggregator::Create(AggKind::kMax);
  auto min_agg = Aggregator::Create(AggKind::kMin);
  std::string max_state, min_state;

  const double values[] = {5, 3, 8, 1, 8, 2};
  for (uint64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        EnterOne(max_agg.get(), FieldValue(values[i]), i, &max_state).ok());
    ASSERT_TRUE(
        EnterOne(min_agg.get(), FieldValue(values[i]), i, &min_state).ok());
  }
  EXPECT_DOUBLE_EQ(ResultOf(max_agg.get(), max_state), 8);
  EXPECT_DOUBLE_EQ(ResultOf(min_agg.get(), min_state), 1);

  // Expire events 0..3 (FIFO): window = {8, 2}.
  for (uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        ExpireOne(max_agg.get(), FieldValue(values[i]), i, &max_state).ok());
    ASSERT_TRUE(
        ExpireOne(min_agg.get(), FieldValue(values[i]), i, &min_state).ok());
  }
  EXPECT_DOUBLE_EQ(ResultOf(max_agg.get(), max_state), 8);
  EXPECT_DOUBLE_EQ(ResultOf(min_agg.get(), min_state), 2);
}

TEST(LastPrevTest, TracksRecency) {
  auto last_agg = Aggregator::Create(AggKind::kLast);
  auto prev_agg = Aggregator::Create(AggKind::kPrev);
  std::string last_state, prev_state;

  ASSERT_TRUE(EnterOne(last_agg.get(), FieldValue(1.0), 1, &last_state).ok());
  ASSERT_TRUE(EnterOne(prev_agg.get(), FieldValue(1.0), 1, &prev_state).ok());
  EXPECT_DOUBLE_EQ(ResultOf(last_agg.get(), last_state), 1.0);
  EXPECT_DOUBLE_EQ(ResultOf(prev_agg.get(), prev_state), 0.0);  // No prev yet.

  ASSERT_TRUE(EnterOne(last_agg.get(), FieldValue(2.0), 2, &last_state).ok());
  ASSERT_TRUE(EnterOne(prev_agg.get(), FieldValue(2.0), 2, &prev_state).ok());
  EXPECT_DOUBLE_EQ(ResultOf(last_agg.get(), last_state), 2.0);
  EXPECT_DOUBLE_EQ(ResultOf(prev_agg.get(), prev_state), 1.0);
}

class CountDistinctTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(storage::DestroyDB("/tmp/railgun_agg_cd_test").ok());
    storage::DBOptions options;
    ASSERT_TRUE(
        storage::DB::Open(options, "/tmp/railgun_agg_cd_test", &db_).ok());
    ctx_.db = db_.get();
    ctx_.state_key = "m1|card9";
  }
  std::unique_ptr<storage::DB> db_;
  AggContext ctx_;
};

TEST_F(CountDistinctTest, CountsDistinctWithRefCounts) {
  auto agg = Aggregator::Create(AggKind::kCountDistinct);
  std::string state;
  // addr1, addr2, addr1 => 2 distinct.
  ASSERT_TRUE(EnterOne(agg.get(), FieldValue("addr1"), 1, &state, &ctx_).ok());
  ASSERT_TRUE(EnterOne(agg.get(), FieldValue("addr2"), 2, &state, &ctx_).ok());
  ASSERT_TRUE(EnterOne(agg.get(), FieldValue("addr1"), 3, &state, &ctx_).ok());
  EXPECT_EQ(ResultOf(agg.get(), state), 2);

  // Expire one addr1: still 2 distinct (refcount 1 left).
  ASSERT_TRUE(ExpireOne(agg.get(), FieldValue("addr1"), 1, &state, &ctx_).ok());
  EXPECT_EQ(ResultOf(agg.get(), state), 2);
  // Expire the second addr1: down to 1.
  ASSERT_TRUE(ExpireOne(agg.get(), FieldValue("addr1"), 3, &state, &ctx_).ok());
  EXPECT_EQ(ResultOf(agg.get(), state), 1);
}

// Counts live in the store's one keyspace: a state key and a value
// that concatenate to the same bytes as another pair still count apart.
TEST_F(CountDistinctTest, PairsThatConcatenateAlikeCountApart) {
  auto agg = Aggregator::Create(AggKind::kCountDistinct);
  AggContext other{db_.get(), "m1|card9|a"};
  std::string state, other_state;
  ASSERT_TRUE(EnterOne(agg.get(), FieldValue("a|b"), 1, &state, &ctx_).ok());
  ASSERT_TRUE(
      EnterOne(agg.get(), FieldValue("b"), 2, &other_state, &other).ok());
  EXPECT_EQ(ResultOf(agg.get(), state), 1);
  EXPECT_EQ(ResultOf(agg.get(), other_state), 1);
  ASSERT_TRUE(ExpireOne(agg.get(), FieldValue("a|b"), 1, &state, &ctx_).ok());
  EXPECT_EQ(ResultOf(agg.get(), state), 0);
  EXPECT_EQ(ResultOf(agg.get(), other_state), 1);
}

TEST_F(CountDistinctTest, RequiresContext) {
  auto agg = Aggregator::Create(AggKind::kCountDistinct);
  std::string state;
  EXPECT_FALSE(EnterOne(agg.get(), FieldValue("x"), 1, &state).ok());
}

// Property sweep: every aggregator matches brute-force recomputation
// over a sliding count-window of random data.
class AggPropertyTest : public ::testing::TestWithParam<AggKind> {};

TEST_P(AggPropertyTest, MatchesBruteForceUnderSlidingWindow) {
  const AggKind kind = GetParam();
  auto agg = Aggregator::Create(kind);
  std::string state;
  Random64 rng(static_cast<uint64_t>(kind) + 100);

  std::deque<std::pair<uint64_t, double>> window;  // (offset, value)
  const size_t window_size = 20;
  for (uint64_t i = 0; i < 500; ++i) {
    const double v = std::floor(rng.NextDouble() * 100) / 4.0;
    ASSERT_TRUE(EnterOne(agg.get(), FieldValue(v), i, &state).ok());
    window.push_back({i, v});
    if (window.size() > window_size) {
      auto [off, old] = window.front();
      window.pop_front();
      ASSERT_TRUE(ExpireOne(agg.get(), FieldValue(old), off, &state).ok());
    }

    // Brute force over the window contents.
    double expected = 0;
    switch (kind) {
      case AggKind::kCount:
        expected = static_cast<double>(window.size());
        break;
      case AggKind::kSum:
        for (auto& [o, x] : window) expected += x;
        break;
      case AggKind::kAvg: {
        double sum = 0;
        for (auto& [o, x] : window) sum += x;
        expected = sum / static_cast<double>(window.size());
        break;
      }
      case AggKind::kMax: {
        expected = window.front().second;
        for (auto& [o, x] : window) expected = std::max(expected, x);
        break;
      }
      case AggKind::kMin: {
        expected = window.front().second;
        for (auto& [o, x] : window) expected = std::min(expected, x);
        break;
      }
      case AggKind::kStdDev: {
        if (window.size() < 2) {
          expected = 0;
        } else {
          double mean = 0;
          for (auto& [o, x] : window) mean += x;
          mean /= static_cast<double>(window.size());
          double m2 = 0;
          for (auto& [o, x] : window) m2 += (x - mean) * (x - mean);
          expected = std::sqrt(m2 / static_cast<double>(window.size() - 1));
        }
        break;
      }
      case AggKind::kLast:
        expected = window.back().second;
        break;
      default:
        return;  // prev / countDistinct covered elsewhere.
    }
    ASSERT_NEAR(ResultOf(agg.get(), state), expected, 1e-6)
        << AggKindName(kind) << " diverged at step " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, AggPropertyTest,
                         ::testing::Values(AggKind::kCount, AggKind::kSum,
                                           AggKind::kAvg, AggKind::kStdDev,
                                           AggKind::kMax, AggKind::kMin,
                                           AggKind::kLast));

// A run is an optimization, not a semantic: the plan applies each run
// of same-group events in one call, so results must not depend on how a
// delta splits into runs.
class AggRunSplitTest : public ::testing::TestWithParam<AggKind> {
 protected:
  void SetUp() override {
    ASSERT_TRUE(storage::DestroyDB("/tmp/railgun_agg_split_test").ok());
    ASSERT_TRUE(storage::DB::Open(storage::DBOptions(),
                                  "/tmp/railgun_agg_split_test", &db_)
                    .ok());
    whole_ctx_ = {db_.get(), "whole"};
    split_ctx_ = {db_.get(), "split"};
  }

  std::unique_ptr<storage::DB> db_;
  AggContext whole_ctx_;
  AggContext split_ctx_;
};

TEST_P(AggRunSplitTest, OneRunMatchesRandomRuns) {
  const AggKind kind = GetParam();
  auto whole = Aggregator::Create(kind);
  auto split = Aggregator::Create(kind);
  std::string whole_state, split_state;
  Random64 rng(static_cast<uint64_t>(kind) + 999);

  std::deque<Event> window;
  const size_t window_size = 17;
  uint64_t offset = 0;
  // Applies `events` to `whole` as one run and to `split` as random runs
  // of 1 to 8.
  const auto apply = [&](const std::vector<const Event*>& events,
                         bool entering) {
    const auto call = [entering](Aggregator* agg, const Event* const* run,
                                 size_t n, std::string* state,
                                 AggContext* ctx) {
      return entering ? agg->Enter(run, n, /*field=*/0, state, ctx)
                      : agg->Expire(run, n, /*field=*/0, state, ctx);
    };
    ASSERT_TRUE(call(whole.get(), events.data(), events.size(),
                     &whole_state, &whole_ctx_)
                    .ok());
    for (size_t i = 0; i < events.size();) {
      const size_t n = std::min<size_t>(1 + rng.Uniform(8), events.size() - i);
      ASSERT_TRUE(call(split.get(), events.data() + i, n, &split_state,
                       &split_ctx_)
                      .ok());
      i += n;
    }
  };
  for (int round = 0; round < 60; ++round) {
    std::vector<const Event*> entering;
    const size_t n = 1 + rng.Uniform(24);
    for (size_t i = 0; i < n; ++i) {
      // Few distinct values, so countDistinct sees repeats.
      window.push_back(MakeEvent(
          offset++, FieldValue(std::floor(rng.NextDouble() * 20) / 4.0)));
    }
    for (size_t i = window.size() - n; i < window.size(); ++i) {
      entering.push_back(&window[i]);
    }
    apply(entering, /*entering=*/true);

    std::vector<const Event*> expiring;
    for (size_t i = 0; i + window_size < window.size(); ++i) {
      expiring.push_back(&window[i]);
    }
    if (!expiring.empty()) apply(expiring, /*entering=*/false);
    window.erase(window.begin(), window.begin() + expiring.size());

    ASSERT_NEAR(ResultOf(split.get(), split_state),
                ResultOf(whole.get(), whole_state), 1e-9)
        << AggKindName(kind) << " diverged at round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, AggRunSplitTest,
    ::testing::Values(AggKind::kCount, AggKind::kSum, AggKind::kAvg,
                      AggKind::kStdDev, AggKind::kMax, AggKind::kMin,
                      AggKind::kLast, AggKind::kPrev,
                      AggKind::kCountDistinct));

}  // namespace
}  // namespace railgun::agg
