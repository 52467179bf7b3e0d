// Brute-force reference model and order statistics for the benchmark.
//
// The engine answers each event with sliding-window aggregates computed
// incrementally (two reservoir iterators plus per-key state). The
// reference recomputes the same aggregates from scratch over the raw
// events kept in memory, so any drift, lost event or off-by-one at the
// window boundary shows up as a mismatch.
#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

namespace perfbench {

struct WindowAggregates {
  int64_t count = 0;
  double sum = 0;
  double avg = 0;
  double max = 0;
};

// Events of one group key over a time-based sliding window. An event
// evaluated at t_eval covers every event with
// t_eval - size <= t_i <= t_eval: the boundary event stays inside.
class BruteForceWindow {
 public:
  explicit BruteForceWindow(int64_t size_us) : size_us_(size_us) {}

  // Events must arrive in non-decreasing time order.
  void Add(int64_t t_us, double value) { events_.emplace_back(t_us, value); }

  // Aggregates at t_eval over the events added so far. Drops events
  // that have left the window for good (time only moves forward).
  WindowAggregates Evaluate(int64_t t_eval_us) {
    const int64_t lower = t_eval_us - size_us_;
    while (!events_.empty() && events_.front().first < lower) {
      events_.pop_front();
    }
    WindowAggregates out;
    for (const auto& [t, value] : events_) {
      if (t > t_eval_us) break;
      if (out.count == 0 || value > out.max) out.max = value;
      out.sum += value;
      ++out.count;
    }
    if (out.count > 0) out.avg = out.sum / static_cast<double>(out.count);
    return out;
  }

  size_t size() const { return events_.size(); }

 private:
  int64_t size_us_;
  std::deque<std::pair<int64_t, double>> events_;
};

// True when `actual` agrees with `expected` to a relative `rel` (the
// engine sums incrementally, the reference from scratch, so the last
// bits may differ).
inline bool NearlyEqual(double actual, double expected, double rel = 1e-9) {
  const double scale = std::max(std::fabs(actual), std::fabs(expected));
  return std::fabs(actual - expected) <= rel * scale;
}

// Percentile p in [0, 100] of `values` by linear interpolation between
// the closest ranks (h = (n - 1) * p / 100). Returns 0 when empty.
// Sorts `values` in place.
inline double Percentile(std::vector<double>* values, double p) {
  if (values->empty()) return 0;
  std::sort(values->begin(), values->end());
  const double h = static_cast<double>(values->size() - 1) * p / 100.0;
  const size_t lo = static_cast<size_t>(std::floor(h));
  const size_t hi = std::min(lo + 1, values->size() - 1);
  return (*values)[lo] + (h - static_cast<double>(lo)) *
                             ((*values)[hi] - (*values)[lo]);
}

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
