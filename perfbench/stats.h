// Order statistics for the benchmark's timings: every timing is reported as
// a median plus the highest percentile that still has at least ten samples
// beyond it, with the sample count.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace perfbench {

// Linear interpolation between closest ranks (numpy's default, and
// Python's statistics.quantiles(method="inclusive")); `pct` in [0, 100].
// 0 for an empty sample.
double Percentile(std::vector<double> values, double pct);

double Median(std::vector<double> values);

struct Summary {
  double median = 0.0;
  double tail_pct = 0.0;  // 0 when fewer than 20 samples
  double tail = 0.0;      // value at tail_pct
  size_t count = 0;
};

// The tail is the highest of p99.9, p99, p90 and p50 that has at least ten
// samples beyond it.
Summary Summarize(const std::vector<double>& values);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
