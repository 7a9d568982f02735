#include "perfbench/stats.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank =
      std::clamp(pct, 0.0, 100.0) / 100.0 * static_cast<double>(values.size() - 1);
  const auto low = static_cast<size_t>(std::floor(rank));
  const size_t high = std::min(low + 1, values.size() - 1);
  const double fraction = rank - static_cast<double>(low);
  return values[low] + fraction * (values[high] - values[low]);
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

Summary Summarize(const std::vector<double>& values) {
  Summary summary;
  summary.count = values.size();
  summary.median = Median(values);
  const auto n = static_cast<double>(values.size());
  for (const double pct : {99.9, 99.0, 90.0, 50.0}) {
    if (n * (100.0 - pct) >= 1000.0 - 1e-6) {  // n * (1 - pct/100) >= 10
      summary.tail_pct = pct;
      summary.tail = Percentile(values, pct);
      break;
    }
  }
  return summary;
}

}  // namespace perfbench
