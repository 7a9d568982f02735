#include "src/core/synthetic.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "src/biases/mantin.h"

namespace rc4b {

uint64_t SamplePoisson(double mean, Xoshiro256& rng) {
  if (mean <= 0.0) {
    return 0;
  }
  if (mean >= kPoissonNormalCutoff) {
    const double draw = mean + std::sqrt(mean) * rng.Normal();
    return draw <= 0.5 ? 0 : static_cast<uint64_t>(draw + 0.5);
  }
  // Knuth inversion: count exponential inter-arrivals.
  const double limit = std::exp(-mean);
  uint64_t k = 0;
  double product = rng.UnitDouble();
  while (product > limit) {
    ++k;
    product *= rng.UnitDouble();
  }
  return k;
}

std::vector<uint64_t> SampleCounts(std::span<const double> probabilities,
                                   uint64_t trials, Xoshiro256& rng) {
  std::vector<uint64_t> counts(probabilities.size());
  const double n = static_cast<double>(trials);
  for (size_t i = 0; i < probabilities.size(); ++i) {
    counts[i] = SamplePoisson(n * probabilities[i], rng);
  }
  return counts;
}

namespace {

// Out of line and cold, so the size check stays one compare in the sampler.
[[noreturn, gnu::cold, gnu::noinline]] void AbortPairTableSize(size_t size) {
  std::fprintf(stderr,
               "SampleCiphertextPairCounts: the keystream table has %zu entries, "
               "needs 65536\n",
               size);
  std::abort();
}

}  // namespace

std::vector<uint64_t> SampleCiphertextPairCounts(
    std::span<const double> keystream_probs, uint8_t p1, uint8_t p2,
    uint64_t trials, Xoshiro256& rng) {
  if (keystream_probs.size() != 65536) {
    AbortPairTableSize(keystream_probs.size());
  }
  const auto keystream_counts = SampleCounts(keystream_probs, trials, rng);
  std::vector<uint64_t> ciphertext_counts(65536);
  for (size_t k1 = 0; k1 < 256; ++k1) {
    const size_t c1 = k1 ^ p1;
    for (size_t k2 = 0; k2 < 256; ++k2) {
      ciphertext_counts[c1 * 256 + (k2 ^ p2)] = keystream_counts[k1 * 256 + k2];
    }
  }
  return ciphertext_counts;
}

std::vector<double> SampleAbsabScoreTable(std::span<const double> alphas,
                                          uint64_t trials, uint16_t true_diff,
                                          Xoshiro256& rng) {
  const double n = static_cast<double>(trials);

  // Per-gap log-odds weights and the moments of the aggregated score
  //   T[d] = sum_g w_g N_g[d],  N_g[d] ~ Poisson(n * p_g[d]),
  // where p_g[d] = alpha_g for the true differential and (1 - alpha_g)/65535
  // otherwise. Var[w N] = w^2 Var[N] = w^2 * mean for Poisson.
  double null_mean = 0.0, null_var = 0.0;
  double true_mean = 0.0, true_var = 0.0;
  double min_cell_mean = 1e300;
  std::vector<double> weights(alphas.size());
  for (size_t g = 0; g < alphas.size(); ++g) {
    const double alpha = alphas[g];
    const double other = (1.0 - alpha) / 65535.0;
    const double w = std::log(alpha) - std::log(other);
    weights[g] = w;
    null_mean += w * n * other;
    null_var += w * w * n * other;
    true_mean += w * n * alpha;
    true_var += w * w * n * alpha;
    min_cell_mean = std::min(min_cell_mean, n * other);
  }

  std::vector<double> table(65536);
  if (min_cell_mean >= kPoissonNormalCutoff) {
    // All per-gap counts are effectively normal; sample the aggregate
    // directly — one draw per differential instead of one per (gap, cell).
    const double null_sd = std::sqrt(null_var);
    for (double& t : table) {
      t = null_mean + null_sd * rng.Normal();
    }
    table[true_diff] = true_mean + std::sqrt(true_var) * rng.Normal();
  } else {
    // Small-count regime: honest per-gap Poisson draws.
    for (size_t d = 0; d < 65536; ++d) {
      double score = 0.0;
      for (size_t g = 0; g < alphas.size(); ++g) {
        const double alpha = alphas[g];
        const double p = (d == true_diff) ? alpha : (1.0 - alpha) / 65535.0;
        score += weights[g] * static_cast<double>(SamplePoisson(n * p, rng));
      }
      table[d] = score;
    }
  }
  return table;
}

}  // namespace rc4b
