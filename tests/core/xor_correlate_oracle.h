// Test-only oracles: the direct XOR-correlation that the likelihood tables
// used before they went through the Walsh–Hadamard transform, and the dense
// O(2^32) double-byte likelihood built on it. The transform path must match
// XorCorrelate256 per cell within a relative 1e-12 * sum |w * log p| and
// give the same argmax; the dense builder checks the sparse formula (15).
#ifndef TESTS_CORE_XOR_CORRELATE_ORACLE_H_
#define TESTS_CORE_XOR_CORRELATE_ORACLE_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace rc4b {

// Blocked XOR-correlation kernel:
//   lambda[mu] += sum_c weights[c] * log_p[c XOR mu]   for all mu in 0..255.
// All three 256-double rows are L1-resident; the kernel unrolls mu four wide
// (each mu keeps its own accumulator, summed in ascending-c order, so results
// are bit-identical to the naive loop) and skips zero-weight cells, which
// also keeps a -inf in log_p from turning 0 * -inf into NaN.
inline void XorCorrelate256(const double* weights, const double* log_p,
                            double* lambda) {
  for (size_t mu = 0; mu < 256; mu += 4) {
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (size_t c = 0; c < 256; ++c) {
      const double w = weights[c];
      if (w == 0.0) {
        continue;
      }
      const size_t base = c ^ mu;
      s0 += w * log_p[base];
      s1 += w * log_p[base ^ 1];
      s2 += w * log_p[base ^ 2];
      s3 += w * log_p[base ^ 3];
    }
    lambda[mu] += s0;
    lambda[mu + 1] += s1;
    lambda[mu + 2] += s2;
    lambda[mu + 3] += s3;
  }
}

// Dense double-byte likelihood, formula (13): counts and log_p are 65536-cell
// tables indexed c1 * 256 + c2 / k1 * 256 + k2. O(2^32).
// Evaluated as 2^16 blocked XorCorrelate256 calls over (mu1, c1) pairs so
// every inner product runs on L1-resident rows.
inline std::vector<double> DoubleByteLogLikelihoodDense(
    std::span<const uint64_t> counts, std::span<const double> log_p) {
  assert(counts.size() == 65536 && log_p.size() == 65536);
  // Convert the counts once; the kernel then reads double rows directly.
  std::vector<double> weights(65536);
  for (size_t i = 0; i < 65536; ++i) {
    weights[i] = static_cast<double>(counts[i]);
  }
  std::vector<double> lambda(65536, 0.0);
  for (size_t mu1 = 0; mu1 < 256; ++mu1) {
    double* lambda_row = lambda.data() + mu1 * 256;
    for (size_t c1 = 0; c1 < 256; ++c1) {
      // lambda[mu1][mu2] += sum_c2 counts[c1][c2] * log_p[c1 ^ mu1][c2 ^ mu2]:
      // one 2 KiB x 2 KiB blocked inner product per (mu1, c1) pair.
      XorCorrelate256(weights.data() + c1 * 256,
                      log_p.data() + (c1 ^ mu1) * 256, lambda_row);
    }
  }
  return lambda;
}

}  // namespace rc4b

#endif  // TESTS_CORE_XOR_CORRELATE_ORACLE_H_
