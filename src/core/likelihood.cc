#include "src/core/likelihood.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace rc4b {

void WalshHadamard256(double* a) {
  for (size_t h = 1; h < 256; h *= 2) {
    for (size_t i = 0; i < 256; i += 2 * h) {
      for (size_t j = i; j < i + h; ++j) {
        const double x = a[j];
        const double y = a[j + h];
        a[j] = x + y;
        a[j + h] = x - y;
      }
    }
  }
}

std::vector<double> LogProbabilities(std::span<const double> probabilities) {
  std::vector<double> out(probabilities.size());
  for (size_t i = 0; i < probabilities.size(); ++i) {
    out[i] = SafeLog(probabilities[i]);
  }
  return out;
}

std::vector<double> SingleByteLogLikelihood(std::span<const uint64_t> counts,
                                            std::span<const double> log_p) {
  if (counts.size() != 256 || log_p.size() != 256) {
    std::fprintf(stderr,
                 "SingleByteLogLikelihood: got %zu counts and %zu log "
                 "probabilities, needs 256 of each\n",
                 counts.size(), log_p.size());
    std::abort();
  }
  double weights[256];
  std::vector<double> lambda(log_p.begin(), log_p.end());
  for (size_t c = 0; c < 256; ++c) {
    // H(H(x)) = 256 x; the exact 1/256 rides on the counts.
    weights[c] = static_cast<double>(counts[c]) / 256.0;
  }
  WalshHadamard256(weights);
  WalshHadamard256(lambda.data());
  for (size_t k = 0; k < 256; ++k) {
    lambda[k] *= weights[k];
  }
  WalshHadamard256(lambda.data());
  return lambda;
}

std::vector<double> DoubleByteLogLikelihoodSparse(std::span<const uint64_t> counts,
                                                  uint64_t total,
                                                  const SparseDigraphModel& model) {
  assert(counts.size() == 65536);
  const double log_u = SafeLog(model.unbiased_probability);
  // lambda_mu = total * log(u) + sum over biased keystream cells k of
  //   counts[k XOR mu] * (log p_k - log u),
  // since the induced keystream count for cell k under plaintext mu is the
  // ciphertext count at k XOR mu (componentwise on both bytes).
  std::vector<double> lambda(65536, static_cast<double>(total) * log_u);
  for (const auto& [cell, p] : model.biased_cells) {
    const double delta = SafeLog(p) - log_u;
    const size_t k1 = cell >> 8;
    const size_t k2 = cell & 0xff;
    for (size_t mu1 = 0; mu1 < 256; ++mu1) {
      const size_t c1 = k1 ^ mu1;
      double* lambda_row = lambda.data() + mu1 * 256;
      const uint64_t* count_row = counts.data() + c1 * 256;
      for (size_t mu2 = 0; mu2 < 256; ++mu2) {
        lambda_row[mu2] += delta * static_cast<double>(count_row[k2 ^ mu2]);
      }
    }
  }
  return lambda;
}

std::vector<double> AbsabLogLikelihood(std::span<const uint64_t> diff_counts,
                                       uint64_t total, uint16_t known, double alpha) {
  assert(diff_counts.size() == 65536);
  const double log_alpha = SafeLog(alpha);
  const double log_other = SafeLog((1.0 - alpha) / 65535.0);
  // Formula (22) in log form, with the uniform-cell part absorbed:
  //   log lambda_dhat = N_dhat * log(alpha) + (total - N_dhat) * log_other
  // and formula (24): the table over (mu1, mu2) reads the differential
  // dhat = (mu1, mu2) XOR known.
  std::vector<double> lambda(65536);
  const size_t known1 = known >> 8;
  const size_t known2 = known & 0xff;
  for (size_t mu1 = 0; mu1 < 256; ++mu1) {
    const size_t d1 = mu1 ^ known1;
    for (size_t mu2 = 0; mu2 < 256; ++mu2) {
      const size_t d2 = mu2 ^ known2;
      const double n = static_cast<double>(diff_counts[d1 * 256 + d2]);
      lambda[mu1 * 256 + mu2] =
          n * log_alpha + (static_cast<double>(total) - n) * log_other;
    }
  }
  return lambda;
}

void CombineInPlace(std::span<double> accumulator, std::span<const double> other) {
  assert(accumulator.size() == other.size());
  for (size_t i = 0; i < accumulator.size(); ++i) {
    accumulator[i] += other[i];
  }
}

size_t ArgMax(std::span<const double> table) {
  if (table.empty()) {
    return 0;
  }
  return static_cast<size_t>(
      std::max_element(table.begin(), table.end()) - table.begin());
}

}  // namespace rc4b
