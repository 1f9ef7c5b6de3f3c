// Self-test of the benchmark's statistics code (stats.h). run.py runs it
// before every benchmark run; a failure stops the run.

#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestQuantiles() {
  std::vector<double> v = {4, 1, 3, 2, 5};
  Check(Near(perfbench::Quantile(&v, 0.5), 3.0), "median of 1..5 is 3");
  Check(Near(perfbench::Quantile(&v, 0.0), 1.0), "q0 is the minimum");
  Check(Near(perfbench::Quantile(&v, 1.0), 5.0), "q1 is the maximum");
  Check(Near(perfbench::Quantile(&v, 0.25), 2.0), "q0.25 of 1..5 is 2");
  std::vector<double> two = {10, 20};
  Check(Near(perfbench::Quantile(&two, 0.5), 15.0), "interpolated median");
  std::vector<double> empty;
  Check(perfbench::Quantile(&empty, 0.5) == 0.0, "empty quantile is 0");
  Check(Near(perfbench::Median({7, 1, 3}), 3.0), "Median helper");
}

void TestSupportRule() {
  // p99 needs ten samples beyond it: 1000 samples, not 999.
  Check(perfbench::QuantileSupported(1000, 0.99), "p99 supported at 1000");
  Check(!perfbench::QuantileSupported(999, 0.99), "p99 unsupported at 999");
  Check(perfbench::QuantileSupported(20, 0.5), "p50 supported at 20");
  Check(!perfbench::QuantileSupported(19, 0.5), "p50 unsupported at 19");
  Check(perfbench::QuantileSupported(100, 0.9), "p90 supported at 100");
  Check(!perfbench::QuantileSupported(0, 0.5), "nothing supported at 0");
  std::vector<double> thin(999, 1.0);
  Check(!perfbench::SupportedQuantile(&thin, 0.99).has_value(),
        "thin tail is omitted, not reported");
  std::vector<double> full(1000, 2.0);
  auto p99 = perfbench::SupportedQuantile(&full, 0.99);
  Check(p99.has_value() && Near(*p99, 2.0), "supported tail is reported");
}

void TestSelfTime() {
  using perfbench::Interval;
  // Parent 0..100; children 10..30 and 20..50 overlap (union 10..50),
  // 90..120 sticks out (clipped to 90..100): covered 40 + 10 = 50.
  const Interval parent{0, 100};
  const std::vector<Interval> kids = {{10, 30}, {20, 50}, {90, 120}};
  Check(perfbench::CoveredTime(parent, kids) == 50, "covered union clipped");
  Check(perfbench::SelfTime(parent, kids) == 50, "self time with overlap");
  Check(perfbench::SelfTime(parent, {}) == 100, "self time without kids");
  Check(perfbench::SelfTime(parent, {{0, 100}, {0, 100}}) == 0,
        "duplicate full-cover children");
  Check(perfbench::SelfTime(parent, {{-50, -10}, {150, 200}}) == 100,
        "children outside the parent cover nothing");
  Check(perfbench::SelfTime(parent, {{10, 20}, {20, 30}}) == 80,
        "abutting children");
  Check(perfbench::SelfTime({5, 5}, {{0, 10}}) == 0, "empty parent");
}

void TestSelfTimesAddUp() {
  using perfbench::Span;
  // Root A (id 1) 0..100 with child B 10..60, which has child C 20..40
  // recorded before its parent; a second root D 0..10; E names a parent
  // that was never recorded, so nothing is taken off any span for it.
  const std::vector<Span> spans = {
      {3, 2, 2, {20, 40}},
      {1, 0, 0, {0, 100}},
      {2, 1, 1, {10, 60}},
      {4, 0, 0, {0, 10}},
      {5, 99, 1, {200, 230}},
  };
  const std::vector<int64_t> self = perfbench::SelfTimes(spans);
  Check(self.size() == spans.size(), "one self time per span");
  Check(self[1] == 50, "root self = 100 - 50");
  Check(self[2] == 30, "mid self = 50 - 20");
  Check(self[0] == 20, "leaf self = 20");
  Check(self[3] == 10, "lone root keeps its duration");
  Check(self[4] == 30, "orphan keeps its duration");
  // The layer sum of a traced operation: the self times of a root and
  // its descendants add up to the root's duration.
  Check(self[0] + self[1] + self[2] == 100, "self times of a tree add up");
}

void TestWindows() {
  // Windows of 10 over [0, 40): counts 1, 3, 0, 2; the stamp at 45 is in
  // the dropped partial window, -1 is before the start.
  const std::vector<int64_t> stamps = {-1, 5, 10, 11, 19, 30, 31, 45};
  auto rates = perfbench::WindowRates(stamps, 0, 45, 10, 10.0);
  Check(rates.size() == 4, "four full windows");
  Check(rates.size() == 4 && Near(rates[0], 1) && Near(rates[1], 3) &&
            Near(rates[2], 0) && Near(rates[3], 2),
        "window counts");
  Check(Near(perfbench::Median(rates), 1.5), "window median of 0,1,2,3");
  // One slow window does not move the median.
  std::vector<int64_t> steady;
  for (int64_t t = 0; t < 100; ++t) {
    if (t < 10 || t >= 20) steady.push_back(t);
  }
  Check(Near(perfbench::Median(perfbench::WindowRates(steady, 0, 100, 10,
                                                      10.0)),
             10.0),
        "a stalled window does not move the median");
  Check(perfbench::WindowRates(stamps, 0, 5, 10, 1.0).empty(),
        "no full window");
  // Means over [0, 30) in windows of 10: {2, 4}, nothing, {7}; the sample
  // at 30 is in the dropped partial window.
  const std::vector<perfbench::Stamped> samples = {
      {-1, 100}, {1, 2}, {9, 4}, {25, 7}, {30, 50}};
  auto means = perfbench::WindowMeans(samples, 0, 35, 10);
  Check(means.size() == 3 && Near(means[0], 3) && std::isnan(means[1]) &&
            Near(means[2], 7),
        "window means, empty window NaN");
}

}  // namespace

int main() {
  TestQuantiles();
  TestSupportRule();
  TestSelfTime();
  TestSelfTimesAddUp();
  TestWindows();
  if (failures != 0) {
    std::fprintf(stderr, "selftest: %d failure(s)\n", failures);
    return 1;
  }
  std::fprintf(stderr, "selftest: ok\n");
  return 0;
}
