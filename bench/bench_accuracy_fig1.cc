// Figure 1 (paper §1/§2.1) as a measurable experiment: how often does a
// hopping window miss a fraud burst that a real-time sliding window
// catches? We generate random 5-event bursts, one card each, and evaluate
// the rule "count(card, last 5 min) > 4" under both windowing strategies.
// The sliding side is Railgun itself, served through api::Client; the
// hopping side is the baseline engine, swept over hop sizes. The paper's
// argument: the anomaly is structural and no hop size fixes it.
//
// Exits non-zero unless the sliding side catches every burst and every
// hop size misses at least one.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "api/client.h"
#include "baseline/hopping_engine.h"
#include "bench/bench_common.h"
#include "bench/bench_json.h"
#include "common/logging.h"
#include "common/random.h"
#include "storage/db.h"

using namespace railgun;
using namespace railgun::bench;

namespace {

std::string Card(size_t burst) { return "card" + std::to_string(burst); }

// Submits every burst's events to a one-node Railgun cluster in global
// timestamp order; returns how many bursts fire the rule on their last
// event.
int SlidingCaught(const std::vector<std::vector<Micros>>& bursts) {
  api::ClientOptions options;
  options.num_nodes = 1;
  options.processor_units_per_node = 1;
  options.base_dir = "/tmp/railgun-bench-fig1-sliding";
  api::Client client(options);
  RAILGUN_CHECK_OK(client.Start());
  RAILGUN_CHECK_OK(client.CreateStream(
      "CREATE STREAM payments (card STRING) PARTITION BY card"));
  RAILGUN_CHECK_OK(client.Query(
      "ADD METRIC SELECT count(*) FROM payments "
      "GROUP BY card OVER sliding 5 minutes"));

  struct Stamped {
    Micros ts;
    size_t burst;
    bool last;
  };
  std::vector<Stamped> events;
  for (size_t b = 0; b < bursts.size(); ++b) {
    for (size_t i = 0; i < bursts[b].size(); ++i) {
      events.push_back({bursts[b][i], b, i + 1 == bursts[b].size()});
    }
  }
  std::stable_sort(
      events.begin(), events.end(),
      [](const Stamped& a, const Stamped& b) { return a.ts < b.ts; });

  int caught = 0;
  for (const Stamped& e : events) {
    const api::EventResult result = client.SubmitSync(
        "payments", api::Row().At(e.ts).Set("card", Card(e.burst)));
    RAILGUN_CHECK_OK(result.status);
    if (!e.last) continue;
    const api::MetricValue* count = result.Find("count(*)", Card(e.burst));
    if (count != nullptr && count->value.ToNumber() > 4) ++caught;
  }
  client.Stop();
  return caught;
}

// Returns true when the hopping engine fires the rule on the last event
// of the burst.
bool HoppingCatches(const std::vector<Micros>& burst, Micros hop) {
  (void)storage::DestroyDB("/tmp/railgun-bench-fig1");
  std::unique_ptr<storage::DB> db;
  RAILGUN_CHECK_OK(storage::DB::Open({}, "/tmp/railgun-bench-fig1", &db));
  baseline::HoppingOptions options;
  options.window_size = 5 * kMicrosPerMinute;
  options.hop = hop;
  baseline::HoppingEngine engine(options, db.get());
  baseline::BaselineResult result;
  for (Micros ts : burst) {
    RAILGUN_CHECK_OK(engine.ProcessEvent("card", ts, 1.0, &result));
  }
  return result.count > 4;
}

}  // namespace

int main() {
  const int trials = static_cast<int>(EnvInt("RAILGUN_BENCH_TRIALS", 200));
  printf("=== Figure 1: sliding-window accuracy vs hopping windows ===\n");
  printf("rule: count(card, last 5 min) > 4; %d random 5-event bursts, "
         "each spanning 295-300 s\n\n", trials);

  // Adversarial bursts (paper §2.1: fraudsters exploit timing): the
  // 5 events span 295-300 s, i.e. just inside the 5-minute window. A hop
  // of size h catches the burst only if a hop boundary happens to fall
  // in the (300s - span) slack, so the expected catch rate is
  // min(1, slack/h) — shrinking the hop helps but never reaches 100%.
  Random64 rng(7);
  std::vector<std::vector<Micros>> bursts;
  for (int t = 0; t < trials; ++t) {
    std::vector<Micros> burst;
    const Micros start =
        static_cast<Micros>(rng.Uniform(3600ull * 1000000));  // In 1 hour.
    const Micros span =
        295 * kMicrosPerSecond +
        static_cast<Micros>(rng.Uniform(5ull * kMicrosPerSecond));
    burst.push_back(start);
    std::vector<Micros> middle;
    for (int i = 0; i < 3; ++i) {
      middle.push_back(start + static_cast<Micros>(
                                   rng.Uniform(static_cast<uint64_t>(span))));
    }
    std::sort(middle.begin(), middle.end());
    for (Micros ts : middle) burst.push_back(ts);
    burst.push_back(start + span);
    bursts.push_back(std::move(burst));
  }

  printf("%-18s %14s %16s\n", "strategy", "bursts caught", "catch rate");
  const int sliding = SlidingCaught(bursts);
  printf("%-18s %10d/%-4d %15.1f%%\n", "sliding (railgun)", sliding, trials,
         100.0 * sliding / trials);
  bool shape_holds = sliding == trials;

  const struct {
    const char* label;
    Micros hop;
  } hops[] = {
      {"hop=1min", kMicrosPerMinute},
      {"hop=30s", 30 * kMicrosPerSecond},
      {"hop=10s", 10 * kMicrosPerSecond},
      {"hop=1s", kMicrosPerSecond},
  };
  JsonResult json("bench_accuracy_fig1");
  json.Add("trials", trials)
      .Add("sliding_catch_rate", 100.0 * sliding / trials);
  for (const auto& config : hops) {
    int caught = 0;
    for (const auto& burst : bursts) {
      if (HoppingCatches(burst, config.hop)) ++caught;
    }
    printf("%-18s %10d/%-4d %15.1f%%\n", config.label, caught, trials,
           100.0 * caught / trials);
    fflush(stdout);
    json.Add(std::string(config.label) + "_catch_rate",
             100.0 * caught / trials);
    shape_holds = shape_holds && caught < trials;
  }
  json.Write();

  printf("\nShape check vs paper: the sliding window catches every burst,\n"
         "and hopping misses bursts at every hop size (smaller hops help\n"
         "but never reach 100%% — Figure 1's anomaly 'can happen\n"
         "regardless of the hop size'): %s\n",
         shape_holds ? "holds" : "FAILS");
  return shape_holds ? 0 : 1;
}
