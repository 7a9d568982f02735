#include "src/biases/bias_scan.h"

#include <algorithm>
#include <cmath>

#include "src/stats/tests.h"

namespace rc4b {

std::vector<SingleByteScanResult> ScanSingleBytes(const SingleByteGrid& grid,
                                                  double alpha) {
  std::vector<SingleByteScanResult> results(grid.positions());
  std::vector<double> p_values(grid.positions());
  for (size_t pos = 0; pos < grid.positions(); ++pos) {
    const TestResult test = ChiSquaredGoodnessOfFit(grid.Row(pos));
    results[pos].position = pos + 1;
    results[pos].statistic = test.statistic;
    results[pos].p_value = test.p_value;
    p_values[pos] = test.p_value;
  }
  const auto adjusted = HolmAdjust(p_values);
  for (size_t pos = 0; pos < grid.positions(); ++pos) {
    results[pos].p_adjusted = adjusted[pos];
    results[pos].biased = adjusted[pos] <= alpha;
  }
  return results;
}

namespace {

// Expected cell probabilities under independence of the two bytes, from the
// row's empirical marginals.
std::vector<double> IndependenceExpectation(const DigraphGrid& grid, size_t row) {
  std::vector<double> marginal1(256), marginal2(256);
  for (int v = 0; v < 256; ++v) {
    marginal1[v] = grid.MarginalFirst(row, static_cast<uint8_t>(v));
    marginal2[v] = grid.MarginalSecond(row, static_cast<uint8_t>(v));
  }
  std::vector<double> expected(65536);
  for (size_t x = 0; x < 256; ++x) {
    for (size_t y = 0; y < 256; ++y) {
      expected[x * 256 + y] = marginal1[x] * marginal2[y];
    }
  }
  return expected;
}

}  // namespace

std::vector<PairDependence> ScanPairDependence(const DigraphGrid& grid, double alpha) {
  std::vector<PairDependence> results(grid.positions());
  std::vector<double> p_values(grid.positions());
  for (size_t row = 0; row < grid.positions(); ++row) {
    const auto expected = IndependenceExpectation(grid, row);
    const MTestResult test = FuchsKenettMTest(grid.Row(row), expected);
    results[row].row = row;
    results[row].m_statistic = test.statistic;
    results[row].p_value = test.p_value;
    p_values[row] = test.p_value;
  }
  const auto adjusted = HolmAdjust(p_values);
  for (size_t row = 0; row < grid.positions(); ++row) {
    results[row].p_adjusted = adjusted[row];
    results[row].dependent = adjusted[row] <= alpha;
  }
  return results;
}

std::vector<BiasedCell> FindBiasedCells(const DigraphGrid& grid, size_t row,
                                        double alpha) {
  const auto expected = IndependenceExpectation(grid, row);
  const auto counts = grid.Row(row);
  const uint64_t n = grid.keys();

  std::vector<double> p_values(65536, 1.0);
  for (size_t cell = 0; cell < 65536; ++cell) {
    if (expected[cell] > 0.0 && expected[cell] < 1.0) {
      p_values[cell] = ProportionTest(counts[cell], n, expected[cell]).p_value;
    }
  }
  const auto adjusted = HolmAdjust(p_values);

  std::vector<BiasedCell> biased;
  for (size_t cell = 0; cell < 65536; ++cell) {
    if (adjusted[cell] > alpha) {
      continue;
    }
    BiasedCell b;
    b.v1 = static_cast<uint8_t>(cell / 256);
    b.v2 = static_cast<uint8_t>(cell % 256);
    b.pair_probability = static_cast<double>(counts[cell]) / static_cast<double>(n);
    b.expected_probability = expected[cell];
    b.relative_bias = b.pair_probability / b.expected_probability - 1.0;
    b.p_value = adjusted[cell];
    biased.push_back(b);
  }
  std::sort(biased.begin(), biased.end(), [](const BiasedCell& a, const BiasedCell& b) {
    return std::fabs(a.relative_bias) > std::fabs(b.relative_bias);
  });
  return biased;
}

double RelativeBias(const DigraphGrid& grid, size_t row, uint8_t v1, uint8_t v2) {
  const double expected = grid.MarginalFirst(row, v1) * grid.MarginalSecond(row, v2);
  const double actual = grid.Probability(row, v1, v2);
  return actual / expected - 1.0;
}

}  // namespace rc4b
