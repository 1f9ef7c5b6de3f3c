#include "stats.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace perfbench {

double Quantile(std::vector<double>* samples, double q) {
  if (samples->empty()) return 0.0;
  std::sort(samples->begin(), samples->end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(samples->size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples->size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return (*samples)[lo] + frac * ((*samples)[hi] - (*samples)[lo]);
}

double Median(std::vector<double> values) { return Quantile(&values, 0.5); }

bool QuantileSupported(size_t n, double q, size_t min_beyond) {
  // Samples strictly beyond the q-quantile: n * (1 - q), rounded down.
  // Computed in integers of 1e-6 so 0.99 * 1000 does not round to 9.
  const uint64_t beyond_millionths =
      static_cast<uint64_t>(n) *
      static_cast<uint64_t>(std::llround((1.0 - q) * 1e6));
  return beyond_millionths / 1000000 >= min_beyond;
}

std::optional<double> SupportedQuantile(std::vector<double>* samples,
                                        double q, size_t min_beyond) {
  if (!QuantileSupported(samples->size(), q, min_beyond)) return std::nullopt;
  return Quantile(samples, q);
}

int64_t CoveredTime(Interval parent, std::vector<Interval> children) {
  for (Interval& c : children) {
    c.start = std::max(c.start, parent.start);
    c.end = std::min(c.end, parent.end);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  int64_t covered = 0;
  int64_t run_start = 0;
  int64_t run_end = 0;
  bool open = false;
  for (const Interval& c : children) {
    if (c.end <= c.start) continue;  // clipped away or empty
    if (open && c.start <= run_end) {
      run_end = std::max(run_end, c.end);
      continue;
    }
    if (open) covered += run_end - run_start;
    run_start = c.start;
    run_end = c.end;
    open = true;
  }
  if (open) covered += run_end - run_start;
  return covered;
}

int64_t SelfTime(Interval parent, const std::vector<Interval>& children) {
  const int64_t duration = std::max<int64_t>(0, parent.end - parent.start);
  return duration - CoveredTime(parent, children);
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<Interval>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    auto it = index.find(s.parent);
    if (it != index.end()) children[it->second].push_back(s.when);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = SelfTime(spans[i].when, children[i]);
  }
  return self;
}

std::vector<double> WindowRates(const std::vector<int64_t>& stamps,
                                int64_t begin, int64_t end, int64_t width,
                                double per) {
  std::vector<double> rates;
  if (width <= 0 || end <= begin) return rates;
  const int64_t windows = (end - begin) / width;
  std::vector<uint64_t> counts(static_cast<size_t>(windows), 0);
  for (int64_t t : stamps) {
    if (t < begin) continue;
    const int64_t w = (t - begin) / width;
    if (w < windows) counts[static_cast<size_t>(w)]++;
  }
  rates.reserve(counts.size());
  for (uint64_t c : counts) {
    rates.push_back(static_cast<double>(c) * per /
                    static_cast<double>(width));
  }
  return rates;
}

std::vector<double> WindowMeans(const std::vector<Stamped>& samples,
                                int64_t begin, int64_t end, int64_t width) {
  std::vector<double> means;
  if (width <= 0 || end <= begin) return means;
  const size_t windows = static_cast<size_t>((end - begin) / width);
  std::vector<double> sum(windows, 0.0);
  std::vector<uint64_t> count(windows, 0);
  for (const Stamped& s : samples) {
    if (s.at < begin) continue;
    const size_t w = static_cast<size_t>((s.at - begin) / width);
    if (w >= windows) continue;
    sum[w] += s.value;
    count[w]++;
  }
  means.reserve(windows);
  for (size_t w = 0; w < windows; ++w) {
    means.push_back(count[w] == 0 ? std::nan("")
                                  : sum[w] / static_cast<double>(count[w]));
  }
  return means;
}

}  // namespace perfbench
