// Automated bias detection over generated datasets — the pipeline of
// Sect. 3.1/3.3 of the paper:
//   1. per-position chi-squared tests reject "Z_r is uniform",
//   2. per-position Fuchs–Kenett M-tests reject "Z_a and Z_b are independent"
//      (testing independence, not pair-uniformity, so single-byte biases do
//      not masquerade as pair biases),
//   3. per-cell proportion tests pinpoint which value pairs deviate, and
//   4. Holm's method controls the family-wise error rate at alpha = 1e-4.
// Reported pair strengths are *relative* biases q from s = p (1 + q), where p
// is the product of the single-byte marginals (the paper's Fig. 4/5 metric).
#ifndef SRC_BIASES_BIAS_SCAN_H_
#define SRC_BIASES_BIAS_SCAN_H_

#include <cstdint>
#include <vector>

#include "src/stats/counters.h"

namespace rc4b {

// The paper rejects null hypotheses at this significance level.
inline constexpr double kPaperAlpha = 1e-4;

struct SingleByteScanResult {
  size_t position = 0;      // 1-based keystream position
  double statistic = 0.0;   // chi-squared
  double p_value = 1.0;     // raw
  double p_adjusted = 1.0;  // Holm-adjusted across all scanned positions
  bool biased = false;
};

// Tests every position of the grid for uniformity.
std::vector<SingleByteScanResult> ScanSingleBytes(const SingleByteGrid& grid,
                                                  double alpha = kPaperAlpha);

struct PairDependence {
  size_t row = 0;            // grid row (position or pair index)
  double m_statistic = 0.0;  // Fuchs–Kenett M
  double p_value = 1.0;
  double p_adjusted = 1.0;
  bool dependent = false;
};

// Tests each grid row for dependence between the two bytes.
std::vector<PairDependence> ScanPairDependence(const DigraphGrid& grid,
                                               double alpha = kPaperAlpha);

struct BiasedCell {
  uint8_t v1 = 0;
  uint8_t v2 = 0;
  double pair_probability = 0.0;      // s
  double expected_probability = 0.0;  // p = marginal1 * marginal2
  double relative_bias = 0.0;         // q with s = p (1 + q)
  double p_value = 1.0;               // proportion test, Holm-adjusted
};

// For one grid row, runs proportion tests of every cell against the
// independence expectation and returns the cells that survive Holm at
// `alpha`, ordered by |relative_bias| descending.
std::vector<BiasedCell> FindBiasedCells(const DigraphGrid& grid, size_t row,
                                        double alpha = kPaperAlpha);

// Relative bias of a single cell against the independence expectation
// (no testing); the quantity plotted in Fig. 4 and Fig. 5.
double RelativeBias(const DigraphGrid& grid, size_t row, uint8_t v1, uint8_t v2);

}  // namespace rc4b

#endif  // SRC_BIASES_BIAS_SCAN_H_
