// Self-test of the benchmark's own arithmetic: the brute-force window
// model (boundary event included) and the percentile extraction,
// against hand-computed cases. Exits non-zero on the first failure.
#include <cstdio>
#include <vector>

#include "reference.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

void Near(double actual, double expected, const char* what) {
  Expect(perfbench::NearlyEqual(actual, expected, 1e-12), what);
}

void TestWindowBoundary() {
  // Window of 10: at t=20 it covers [10, 20], so the event at exactly
  // t=10 is inside and the one at t=9 is not.
  perfbench::BruteForceWindow window(10);
  window.Add(9, 100.0);
  window.Add(10, 2.0);
  window.Add(15, 5.0);
  window.Add(20, 1.0);
  const perfbench::WindowAggregates a = window.Evaluate(20);
  Expect(a.count == 3, "boundary event at t_eval - ws is counted");
  Near(a.sum, 8.0, "sum over [10, 20]");
  Near(a.avg, 8.0 / 3.0, "avg over [10, 20]");
  Near(a.max, 5.0, "max ignores the expired 100");
  Expect(window.size() == 3, "expired event dropped");

  // One tick later the boundary event leaves too.
  window.Add(21, 4.0);
  const perfbench::WindowAggregates b = window.Evaluate(21);
  Expect(b.count == 3, "event at t=10 expires at t_eval=21");
  Near(b.sum, 10.0, "sum over [11, 21]");
  Near(b.max, 5.0, "max over [11, 21]");
}

void TestWindowEvaluatesBeforeLaterEvents() {
  // Events added after t_eval are not part of the answer at t_eval.
  perfbench::BruteForceWindow window(100);
  window.Add(1, 3.0);
  window.Add(50, 7.0);
  const perfbench::WindowAggregates a = window.Evaluate(10);
  Expect(a.count == 1, "only events up to t_eval");
  Near(a.max, 3.0, "max up to t_eval");
}

void TestWindowSingleEvent() {
  perfbench::BruteForceWindow window(60);
  window.Add(1000, 42.5);
  const perfbench::WindowAggregates a = window.Evaluate(1000);
  Expect(a.count == 1, "single event counted");
  Near(a.sum, 42.5, "single event sum");
  Near(a.avg, 42.5, "single event avg");
  Near(a.max, 42.5, "single event max");
}

void TestPercentile() {
  std::vector<double> empty;
  Expect(perfbench::Percentile(&empty, 50) == 0, "empty -> 0");

  std::vector<double> one = {7};
  Near(perfbench::Percentile(&one, 99.9), 7, "single value");

  // Unsorted input; h = (n - 1) * p / 100 over the sorted values
  // {1, 2, 3, 4}: p50 -> h=1.5 -> 2.5, p0 -> 1, p100 -> 4,
  // p90 -> h=2.7 -> 3.7.
  std::vector<double> four = {4, 1, 3, 2};
  Near(perfbench::Percentile(&four, 50), 2.5, "p50 of 1..4");
  Near(perfbench::Percentile(&four, 0), 1, "p0 of 1..4");
  Near(perfbench::Percentile(&four, 100), 4, "p100 of 1..4");
  Near(perfbench::Percentile(&four, 90), 3.7, "p90 of 1..4");

  // 1..1001: p99.9 -> h = 999 -> the 1000th value.
  std::vector<double> many;
  for (int i = 1001; i >= 1; --i) many.push_back(i);
  Near(perfbench::Percentile(&many, 99.9), 1000, "p99.9 of 1..1001");
  Near(perfbench::Percentile(&many, 50), 501, "p50 of 1..1001");
}

void TestNearlyEqual() {
  Expect(perfbench::NearlyEqual(1e6, 1e6 + 1e-4), "1e-10 relative passes");
  Expect(!perfbench::NearlyEqual(1e6, 1e6 + 1e-2), "1e-8 relative fails");
  Expect(perfbench::NearlyEqual(0, 0), "zeros agree");
}

}  // namespace

int main() {
  TestWindowBoundary();
  TestWindowEvaluatesBeforeLaterEvents();
  TestWindowSingleEvent();
  TestPercentile();
  TestNearlyEqual();
  if (failures > 0) {
    fprintf(stderr, "perfbench self-test: %d failure(s)\n", failures);
    return 1;
  }
  fprintf(stderr, "perfbench self-test: ok\n");
  return 0;
}
