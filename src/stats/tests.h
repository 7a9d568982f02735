// Statistical hypothesis tests used to detect RC4 keystream biases (Sect. 3.1):
//  * chi-squared goodness-of-fit against a uniform (or given) distribution,
//  * the Fuchs–Kenett M-test for outlying multinomial cells (more powerful
//    than chi-squared when only a few value pairs are biased),
//  * per-cell proportion z-tests to pinpoint which values are biased,
//  * Holm's step-down procedure to control the family-wise error rate.
#ifndef SRC_STATS_TESTS_H_
#define SRC_STATS_TESTS_H_

#include <cstdint>
#include <span>
#include <vector>

namespace rc4b {

struct TestResult {
  double statistic = 0.0;
  double p_value = 1.0;
};

// Chi-squared goodness-of-fit of observed counts against expected
// probabilities. `expected` empty means uniform over all cells.
TestResult ChiSquaredGoodnessOfFit(std::span<const uint64_t> counts,
                                   std::span<const double> expected = {});

// Chi-squared test of independence over an R x C contingency table stored
// row-major. Detects *dependence* between two keystream bytes without being
// confounded by their single-byte biases.
TestResult ChiSquaredIndependence(std::span<const uint64_t> table, size_t rows,
                                  size_t cols);

// Fuchs–Kenett M-test: the maximum absolute standardized cell residual
//   M = max_i |X_i - n p_i| / sqrt(n p_i (1 - p_i)),
// with a Bonferroni-corrected two-sided p-value min(1, k * 2 * Phi(-M)).
// Asymptotically more powerful than chi-squared when few cells deviate,
// which is exactly the Fluhrer–McGrew situation (≤ 8 of 65536 pairs biased).
struct MTestResult {
  double statistic = 0.0;   // M
  double p_value = 1.0;     // Bonferroni-corrected
  size_t worst_cell = 0;    // argmax cell index
};
MTestResult FuchsKenettMTest(std::span<const uint64_t> counts,
                             std::span<const double> expected = {});

// Two-sided one-sample proportion z-test: observed `successes` out of
// `trials` against null proportion `p0`.
TestResult ProportionTest(uint64_t successes, uint64_t trials, double p0);

// Holm step-down adjustment. Returns adjusted p-values (same order as input);
// reject hypothesis i at FWER alpha iff adjusted[i] <= alpha.
std::vector<double> HolmAdjust(std::span<const double> p_values);

}  // namespace rc4b

#endif  // SRC_STATS_TESTS_H_
