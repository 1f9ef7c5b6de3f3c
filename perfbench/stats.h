// Statistics used by the loopback benchmark: percentiles with a support
// rule, span self times and window rates. Kept free
// of Quaestor types so the self-test can pin them in isolation.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/// Linear-interpolated quantile `q` in [0, 1] of `samples` (sorted in
/// place). Empty input yields 0.
double Quantile(std::vector<double>* samples, double q);

/// Median (the 0.5 quantile) of a copy of `values`.
double Median(std::vector<double> values);

/// A tail percentile is reported only when at least `min_beyond` samples
/// lie beyond it: p99 needs 1000 samples for 10 beyond.
bool QuantileSupported(size_t n, double q, size_t min_beyond = 10);

/// The quantile if the sample supports it, otherwise nothing.
std::optional<double> SupportedQuantile(std::vector<double>* samples,
                                        double q, size_t min_beyond = 10);

/// Half-open time interval [start, end).
struct Interval {
  int64_t start = 0;
  int64_t end = 0;
};

/// Length of the union of `children` clipped to `parent`. Children may
/// overlap each other and stick out of the parent.
int64_t CoveredTime(Interval parent, std::vector<Interval> children);

/// Self time of a span: its duration minus the part its children cover.
int64_t SelfTime(Interval parent, const std::vector<Interval>& children);

/// One recorded span. `parent` is 0 for a root.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint32_t name = 0;
  Interval when;
};

/// Self time of every span (same order as `spans`): its duration minus
/// the part covered by the spans naming it as parent.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// Counts events per fixed window: `stamps` are event times, the windows
/// tile [begin, end) in steps of `width` (a trailing partial window is
/// dropped). Returns one rate (events per unit of `per`) per window.
std::vector<double> WindowRates(const std::vector<int64_t>& stamps,
                                int64_t begin, int64_t end, int64_t width,
                                double per);

/// One timed sample: `value` observed at time `at`.
struct Stamped {
  int64_t at = 0;
  double value = 0;
};

/// The mean of the samples in each window: the windows tile [begin, end)
/// in steps of `width` (a trailing partial window is dropped). A window
/// without samples yields NaN.
std::vector<double> WindowMeans(const std::vector<Stamped>& samples,
                                int64_t begin, int64_t end, int64_t width);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
