#include "src/stats/tests.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#include "src/stats/special.h"

namespace rc4b {

namespace {

uint64_t Total(std::span<const uint64_t> counts) {
  return std::accumulate(counts.begin(), counts.end(), uint64_t{0});
}

double ExpectedProb(std::span<const double> expected, size_t i, size_t k) {
  return expected.empty() ? 1.0 / static_cast<double>(k) : expected[i];
}

}  // namespace

TestResult ChiSquaredGoodnessOfFit(std::span<const uint64_t> counts,
                                   std::span<const double> expected) {
  assert(expected.empty() || expected.size() == counts.size());
  const size_t k = counts.size();
  const double n = static_cast<double>(Total(counts));
  double statistic = 0.0;
  size_t used_cells = 0;
  for (size_t i = 0; i < k; ++i) {
    const double e = n * ExpectedProb(expected, i, k);
    if (e <= 0.0) {
      continue;  // structurally impossible cell contributes no df
    }
    const double diff = static_cast<double>(counts[i]) - e;
    statistic += diff * diff / e;
    ++used_cells;
  }
  const double df = static_cast<double>(used_cells) - 1.0;
  return TestResult{statistic, df > 0 ? ChiSquaredSurvival(statistic, df) : 1.0};
}

TestResult ChiSquaredIndependence(std::span<const uint64_t> table, size_t rows,
                                  size_t cols) {
  assert(table.size() == rows * cols);
  std::vector<double> row_sum(rows, 0.0);
  std::vector<double> col_sum(cols, 0.0);
  double n = 0.0;
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      const double v = static_cast<double>(table[r * cols + c]);
      row_sum[r] += v;
      col_sum[c] += v;
      n += v;
    }
  }
  double statistic = 0.0;
  size_t effective_rows = 0;
  size_t effective_cols = 0;
  for (size_t r = 0; r < rows; ++r) {
    effective_rows += row_sum[r] > 0 ? 1 : 0;
  }
  for (size_t c = 0; c < cols; ++c) {
    effective_cols += col_sum[c] > 0 ? 1 : 0;
  }
  for (size_t r = 0; r < rows; ++r) {
    if (row_sum[r] == 0) {
      continue;
    }
    for (size_t c = 0; c < cols; ++c) {
      if (col_sum[c] == 0) {
        continue;
      }
      const double e = row_sum[r] * col_sum[c] / n;
      const double diff = static_cast<double>(table[r * cols + c]) - e;
      statistic += diff * diff / e;
    }
  }
  const double df =
      static_cast<double>(effective_rows - 1) * static_cast<double>(effective_cols - 1);
  return TestResult{statistic, df > 0 ? ChiSquaredSurvival(statistic, df) : 1.0};
}

MTestResult FuchsKenettMTest(std::span<const uint64_t> counts,
                             std::span<const double> expected) {
  assert(expected.empty() || expected.size() == counts.size());
  const size_t k = counts.size();
  const double n = static_cast<double>(Total(counts));
  MTestResult result;
  for (size_t i = 0; i < k; ++i) {
    const double p = ExpectedProb(expected, i, k);
    if (p <= 0.0 || p >= 1.0) {
      continue;
    }
    const double sd = std::sqrt(n * p * (1.0 - p));
    const double z = std::fabs(static_cast<double>(counts[i]) - n * p) / sd;
    if (z > result.statistic) {
      result.statistic = z;
      result.worst_cell = i;
    }
  }
  const double per_cell = TwoSidedNormalPValue(result.statistic);
  result.p_value = std::min(1.0, per_cell * static_cast<double>(k));
  return result;
}

TestResult ProportionTest(uint64_t successes, uint64_t trials, double p0) {
  assert(trials > 0 && p0 > 0.0 && p0 < 1.0);
  const double n = static_cast<double>(trials);
  const double z = (static_cast<double>(successes) - n * p0) /
                   std::sqrt(n * p0 * (1.0 - p0));
  return TestResult{z, TwoSidedNormalPValue(z)};
}

std::vector<double> HolmAdjust(std::span<const double> p_values) {
  const size_t m = p_values.size();
  std::vector<size_t> order(m);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return p_values[a] < p_values[b]; });
  std::vector<double> adjusted(m);
  double running_max = 0.0;
  for (size_t rank = 0; rank < m; ++rank) {
    const size_t i = order[rank];
    const double scaled = p_values[i] * static_cast<double>(m - rank);
    running_max = std::max(running_max, std::min(1.0, scaled));
    adjusted[i] = running_max;
  }
  return adjusted;
}

}  // namespace rc4b
