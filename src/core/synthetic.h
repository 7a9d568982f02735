// Synthetic ciphertext-statistics sampling.
//
// The recovery algorithms consume only count vectors (how often each
// ciphertext byte pair / differential value was observed), never individual
// ciphertexts. To evaluate success rates at the paper's scales (up to 2^39
// ciphertexts in Fig. 7) we sample those counts directly from their exact
// sampling distribution — a Poissonized multinomial, with per-cell Poisson
// draws switching to a normal approximation for large means. Tests validate
// the sampler against exhaustive real-RC4 simulation at small |C|
// (tests/core/synthetic_test.cc).
#ifndef SRC_CORE_SYNTHETIC_H_
#define SRC_CORE_SYNTHETIC_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/rng.h"

namespace rc4b {

// One Poisson(mean) draw; exact inversion below kPoissonNormalCutoff,
// rounded normal approximation above.
inline constexpr double kPoissonNormalCutoff = 64.0;
uint64_t SamplePoisson(double mean, Xoshiro256& rng);

// Poissonized multinomial: counts[i] ~ Poisson(trials * probabilities[i]),
// independently per cell.
std::vector<uint64_t> SampleCounts(std::span<const double> probabilities,
                                   uint64_t trials, Xoshiro256& rng);

// Ciphertext pair counts for a digraph position: the keystream pair
// distribution `keystream_probs` (65536 cells) XOR-shifted by the true
// plaintext pair (p1, p2): count index (c1, c2) holds draws for keystream
// value (c1 ^ p1, c2 ^ p2).
std::vector<uint64_t> SampleCiphertextPairCounts(
    std::span<const double> keystream_probs, uint8_t p1, uint8_t p2,
    uint64_t trials, Xoshiro256& rng);

// Aggregated ABSAB score table (Sect. 4.2/4.3): for a set of ABSAB estimates
// with per-gap match probabilities `alphas`, returns the table
//   T[d] = sum_g logodds(g) * N_g[d]
// over the 65536 differential values d, where N_g are the per-gap match
// counts of `trials` ciphertext differentials whose true differential is
// `true_diff`. Cells are sampled from the exact per-gap Poisson law (summed
// moments, normal approximation when every per-gap mean is large). T is, up
// to an additive constant shared by all candidates, the combined ABSAB
// log-likelihood of formula (25).
std::vector<double> SampleAbsabScoreTable(std::span<const double> alphas,
                                          uint64_t trials, uint16_t true_diff,
                                          Xoshiro256& rng);

}  // namespace rc4b

#endif  // SRC_CORE_SYNTHETIC_H_
