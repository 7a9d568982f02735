// Bayesian plaintext likelihood estimation (Sect. 4.1–4.3 of the paper).
//
// All likelihoods are computed and combined in the log domain for numeric
// stability, as the paper recommends. Conventions:
//   * A "single-byte table" is 256 log-likelihoods lambda_mu.
//   * A "double-byte table" is 65536 log-likelihoods lambda_{mu1,mu2} indexed
//     mu1 * 256 + mu2.
//   * Ciphertext statistics are raw counts: how often each ciphertext byte
//     (or byte pair / differential pair) value was observed.
#ifndef SRC_CORE_LIKELIHOOD_H_
#define SRC_CORE_LIKELIHOOD_H_

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "src/biases/fluhrer_mcgrew.h"

namespace rc4b {

// Floor applied to probabilities before taking logs. A zero-probability cell
// would yield log(0) = -inf, and a zero count times -inf is NaN — which
// silently poisons every lambda it is summed into. The floor plays the same
// role as the +1 Laplace smoothing used when models are estimated from
// counts (src/tkip/tsc_model.cc): it is far below any smoothed probability
// (1 / (N + 256) ≈ 4e-6 even at N = 2^18 keys), so estimated models are
// unaffected and only genuinely degenerate cells are clamped.
inline constexpr double kMinProbability = 1e-12;

// log(max(p, kMinProbability)): finite for every p >= 0.
inline double SafeLog(double p) {
  return std::log(p < kMinProbability ? kMinProbability : p);
}

// In-place, unnormalised 256-point Walsh–Hadamard transform:
//   for h = 1, 2, ..., 128: (a[j], a[j + h]) -> (a[j] + a[j + h], a[j] - a[j + h]).
// H diagonalises XOR-correlation: for lambda[mu] = sum_c w[c] * l[c XOR mu],
//   H(lambda) = H(w) * H(l) (elementwise), and H(H(x)) = 256 * x.
// So a 256-point correlation costs three transforms (3 x 2048 adds) and 256
// multiplies instead of 65536 multiply-adds; sums of correlations share the
// last transform. Every single-byte likelihood below goes through it.
void WalshHadamard256(double* a);

// Elementwise SafeLog() of a probability vector (any size).
std::vector<double> LogProbabilities(std::span<const double> probabilities);

// Single-byte likelihood, formula (11)/(12):
//   lambda_mu = sum_c counts[c] * log_p[c XOR mu],
// evaluated as H(H(counts) * H(log_p)) / 256. `counts[c]` is the number of
// ciphertexts whose byte at this position is c; `log_p` is the (log)
// keystream distribution at this position, and must be finite (SafeLog
// floors it): the transform spreads a -inf over every lambda as NaN. Both
// spans must hold 256 entries; anything else aborts with a message, in every
// build type.
std::vector<double> SingleByteLogLikelihood(std::span<const uint64_t> counts,
                                            std::span<const double> log_p);

// Sparse double-byte likelihood, the optimization of formula (15): all
// keystream pairs share probability `u` except for the `biased_cells`.
// Only O(|biased| * 2^16) work — ~2^19 for the Fluhrer–McGrew set, matching
// the paper's complexity claim. `counts` must hold 65536 cells; any other
// size prints a diagnostic and aborts, in every build type.
std::vector<double> DoubleByteLogLikelihoodSparse(std::span<const uint64_t> counts,
                                                  uint64_t total,
                                                  const SparseDigraphModel& model);

// ABSAB differential likelihood, formulas (20)–(24). `diff_counts[d]` counts
// ciphertext differentials with value d (= d1 * 256 + d2); `known` is the
// known plaintext pair (mu'1 * 256 + mu'2); `alpha` = AbsabAlpha(gap).
// Returns a double-byte table over the *unknown* pair (mu1, mu2).
// `diff_counts` must hold 65536 cells; any other size aborts, in every build
// type.
std::vector<double> AbsabLogLikelihood(std::span<const uint64_t> diff_counts,
                                       uint64_t total, uint16_t known, double alpha);

// Combines likelihood estimates from multiple bias types by adding their log
// tables — formula (25). Tables of unequal size abort, in every build type.
void CombineInPlace(std::span<double> accumulator, std::span<const double> other);

// argmax index of a table; 0 for an empty table.
size_t ArgMax(std::span<const double> table);

}  // namespace rc4b

#endif  // SRC_CORE_LIKELIHOOD_H_
