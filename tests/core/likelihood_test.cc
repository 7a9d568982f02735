#include "src/biases/mantin.h"
#include "src/core/likelihood.h"

#include <cmath>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/synthetic.h"
#include "tests/core/xor_correlate_oracle.h"

namespace rc4b {
namespace {

TEST(LikelihoodTest, LogProbabilities) {
  const std::vector<double> p = {0.5, 0.25, 0.25};
  const auto logs = LogProbabilities(p);
  EXPECT_DOUBLE_EQ(logs[0], std::log(0.5));
  EXPECT_DOUBLE_EQ(logs[1], std::log(0.25));
}

TEST(LikelihoodTest, SingleByteRecoversPlaintextUnderStrongBias) {
  // Keystream heavily biased toward 0: the most likely plaintext byte is the
  // most frequent ciphertext byte.
  std::vector<double> p(256, (1.0 - 0.5) / 255.0);
  p[0] = 0.5;
  const auto log_p = LogProbabilities(p);

  Xoshiro256 rng(1);
  const uint8_t truth = 0x41;
  std::vector<uint64_t> counts(256, 0);
  for (int i = 0; i < 2000; ++i) {
    const uint8_t z = rng.UnitDouble() < 0.5 ? 0 : rng.Byte();
    counts[z ^ truth] += 1;
  }
  const auto lambda = SingleByteLogLikelihood(counts, log_p);
  EXPECT_EQ(ArgMax(lambda), truth);
}

TEST(LikelihoodTest, SingleByteUniformKeystreamGivesFlatLikelihood) {
  const std::vector<double> p(256, 1.0 / 256.0);
  const auto log_p = LogProbabilities(p);
  std::vector<uint64_t> counts(256, 0);
  counts[3] = 100;
  counts[200] = 50;
  const auto lambda = SingleByteLogLikelihood(counts, log_p);
  for (size_t mu = 1; mu < 256; ++mu) {
    EXPECT_NEAR(lambda[mu], lambda[0], 1e-9);
  }
}

TEST(LikelihoodTest, SparseMatchesDenseDoubleByte) {
  // The optimized formula (15) must agree with the O(2^32)-style dense
  // computation up to a mu-independent constant.
  const auto sparse_model = FmSparseModel(5, 1 << 20);
  const auto table = FmDigraphTable(5, 1 << 20);
  const auto log_table = LogProbabilities(table);

  Xoshiro256 rng(2);
  std::vector<uint64_t> counts(65536);
  for (auto& c : counts) {
    c = 50 + (rng() & 0x1f);
  }
  uint64_t total = 0;
  for (uint64_t c : counts) {
    total += c;
  }

  const auto dense = DoubleByteLogLikelihoodDense(counts, log_table);
  const auto sparse = DoubleByteLogLikelihoodSparse(counts, total, sparse_model);
  const double shift = dense[0] - sparse[0];
  for (size_t mu = 0; mu < 65536; mu += 257) {
    EXPECT_NEAR(dense[mu] - sparse[mu], shift, 1e-6) << "mu=" << mu;
  }
}

TEST(LikelihoodTest, DoubleByteRecoversPairFromFmBiases) {
  // Sample paper-scale counts from the FM model and check the argmax.
  const uint8_t i = 11;
  const auto keystream = FmDigraphTable(i, 1 << 20);
  const auto model = FmSparseModel(i, 1 << 20);
  Xoshiro256 rng(3);
  const uint8_t p1 = 'S', p2 = 'K';
  int correct = 0;
  const int trials = 10;
  for (int t = 0; t < trials; ++t) {
    const auto counts =
        SampleCiphertextPairCounts(keystream, p1, p2, uint64_t{1} << 34, rng);
    const auto lambda = DoubleByteLogLikelihoodSparse(counts, uint64_t{1} << 34, model);
    if (ArgMax(lambda) == static_cast<size_t>(p1) * 256 + p2) {
      ++correct;
    }
  }
  // 2^34 ciphertexts with all FM biases: recovery should be near-certain.
  EXPECT_GE(correct, 8);
}

TEST(LikelihoodTest, AbsabLikelihoodPeaksAtTruth) {
  const double alpha = AbsabAlpha(0);
  Xoshiro256 rng(4);
  const uint16_t truth = 0x4b1d;   // true plaintext pair
  const uint16_t known = 0x2042;   // known plaintext pair used as reference
  const uint16_t true_diff = truth ^ known;

  // Counts over differentials: the true differential is biased. 2^38
  // ciphertexts give the single-gap estimate an ~8-sigma edge, enough for
  // the argmax over 65536 differentials to land on the truth reliably.
  const uint64_t trials = uint64_t{1} << 38;
  std::vector<uint64_t> diff_counts(65536);
  for (size_t d = 0; d < 65536; ++d) {
    const double p = (d == true_diff) ? alpha : (1.0 - alpha) / 65535.0;
    diff_counts[d] = SamplePoisson(static_cast<double>(trials) * p, rng);
  }
  const auto lambda = AbsabLogLikelihood(diff_counts, trials, known, alpha);
  EXPECT_EQ(ArgMax(lambda), truth);
}

TEST(LikelihoodTest, ZeroProbabilityCellsDoNotPoisonTables) {
  // Regression: a zero-probability cell used to produce log(0) = -inf, and a
  // zero count times -inf is NaN — silently corrupting the whole lambda
  // table. SafeLog floors the probability, so every lambda stays finite and
  // the argmax still lands on the truth.
  std::vector<double> p(256, 1.0 / 254.0);
  p[0] = 0.0;  // degenerate cell
  p[1] = 0.0;
  const auto log_p = LogProbabilities(p);
  for (double lp : log_p) {
    EXPECT_TRUE(std::isfinite(lp));
  }

  // Sparse counts: most cells zero, including ones that map onto the
  // degenerate keystream cells for most candidate mu.
  std::vector<uint64_t> counts(256, 0);
  const uint8_t truth = 0x5a;
  counts[2 ^ truth] = 1000;  // keystream 2 is a live cell
  counts[3 ^ truth] = 990;
  const auto lambda = SingleByteLogLikelihood(counts, log_p);
  for (double value : lambda) {
    EXPECT_TRUE(std::isfinite(value));
  }

  // Same property for the sparse double-byte path with a degenerate biased
  // cell and for the ABSAB table at alpha edge cases.
  SparseDigraphModel model;
  model.unbiased_probability = 1.0 / 65536.0;
  model.biased_cells = {{0x0100, 0.0}, {0x0200, 2.0 / 65536.0}};
  std::vector<uint64_t> pair_counts(65536, 0);
  pair_counts[42] = 17;
  const auto sparse = DoubleByteLogLikelihoodSparse(pair_counts, 17, model);
  for (size_t mu = 0; mu < 65536; mu += 97) {
    EXPECT_TRUE(std::isfinite(sparse[mu])) << "mu=" << mu;
  }
}

TEST(LikelihoodTest, DenseDoubleByteMatchesNaiveReference) {
  // The blocked XorCorrelate256 kernel must agree with the textbook
  // formula (13) loop.
  Xoshiro256 rng(6);
  std::vector<uint64_t> counts(65536);
  for (auto& c : counts) {
    c = rng() & 0x7;  // sparse-ish, exercises the zero-weight skip
  }
  std::vector<double> p(65536);
  double sum = 0.0;
  for (auto& value : p) {
    value = rng.UnitDouble() + 0.01;
    sum += value;
  }
  for (auto& value : p) {
    value /= sum;
  }
  const auto log_p = LogProbabilities(p);

  const auto lambda = DoubleByteLogLikelihoodDense(counts, log_p);
  for (size_t mu = 0; mu < 65536; mu += 4099) {
    const size_t mu1 = mu >> 8, mu2 = mu & 0xff;
    double expected = 0.0;
    for (size_t c1 = 0; c1 < 256; ++c1) {
      for (size_t c2 = 0; c2 < 256; ++c2) {
        expected += static_cast<double>(counts[c1 * 256 + c2]) *
                    log_p[(c1 ^ mu1) * 256 + (c2 ^ mu2)];
      }
    }
    EXPECT_NEAR(lambda[mu], expected, 1e-6 * std::abs(expected)) << "mu=" << mu;
  }
}

TEST(LikelihoodDeathTest, SingleByteRejectsWrongSizes) {
  // Release builds too: a short span would be read past its end.
  const std::vector<uint64_t> counts(256, 1);
  const std::vector<double> log_p(256, -5.0);
  const std::vector<uint64_t> short_counts(255, 1);
  const std::vector<double> long_log_p(257, -5.0);
  EXPECT_DEATH(SingleByteLogLikelihood(short_counts, log_p),
               "got 255 counts and 256 log probabilities, needs 256 of each");
  EXPECT_DEATH(SingleByteLogLikelihood(counts, long_log_p),
               "got 256 counts and 257 log probabilities, needs 256 of each");
}

TEST(LikelihoodDeathTest, DoubleByteTablesRejectWrongSizesInEveryBuild) {
  // A single-byte table where a pair table belongs: the sparse loop would
  // read counts[c1 * 256 + ...] far past its end.
  const std::vector<uint64_t> single_byte(256, 1);
  const SparseDigraphModel model = FmSparseModel(17, 1 << 20);
  EXPECT_DEATH(DoubleByteLogLikelihoodSparse(single_byte, 256, model),
               "DoubleByteLogLikelihoodSparse: counts has 256 entries, needs 65536");
  EXPECT_DEATH(AbsabLogLikelihood(single_byte, 256, 0, AbsabAlpha(0)),
               "AbsabLogLikelihood: diff_counts has 256 entries, needs 65536");
  std::vector<double> pair_table(65536, 0.0);
  const std::vector<double> single_table(256, 0.0);
  EXPECT_DEATH(CombineInPlace(pair_table, single_table),
               "CombineInPlace: other has 256 entries, needs 65536");
}

TEST(LikelihoodTest, ArgMaxIsSafeOnEmptySpan) {
  EXPECT_EQ(ArgMax(std::span<const double>()), 0u);
  const std::vector<double> one = {3.5};
  EXPECT_EQ(ArgMax(one), 0u);
}

TEST(LikelihoodTest, CombineAddsTables) {
  std::vector<double> a = {1.0, 2.0, 3.0};
  const std::vector<double> b = {0.5, -2.0, 10.0};
  CombineInPlace(a, b);
  EXPECT_DOUBLE_EQ(a[0], 1.5);
  EXPECT_DOUBLE_EQ(a[1], 0.0);
  EXPECT_DOUBLE_EQ(a[2], 13.0);
}

TEST(LikelihoodTest, CombiningIndependentEstimatesSharpensDecision) {
  // Two weak single-byte estimates combined should recover the byte where
  // either alone fails — the principle of Sect. 4.3.
  std::vector<double> p(256, 1.0 / 256.0);
  for (int v = 0; v < 256; ++v) {
    p[v] *= 1.0 + (v == 77 ? 0.02 : -0.02 / 255);
  }
  const auto log_p = LogProbabilities(p);
  Xoshiro256 rng(5);
  const uint8_t truth = 0x00;

  int single_correct = 0, combined_correct = 0;
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<std::vector<double>> lambdas;
    for (int est = 0; est < 8; ++est) {
      std::vector<uint64_t> counts(256);
      for (size_t c = 0; c < 256; ++c) {
        counts[c] = SamplePoisson(20000.0 * p[c ^ truth], rng);
      }
      lambdas.push_back(SingleByteLogLikelihood(counts, log_p));
    }
    single_correct += ArgMax(lambdas[0]) == truth ? 1 : 0;
    std::vector<double> combined = lambdas[0];
    for (int est = 1; est < 8; ++est) {
      CombineInPlace(combined, lambdas[est]);
    }
    combined_correct += ArgMax(combined) == truth ? 1 : 0;
  }
  EXPECT_GT(combined_correct, single_correct);
}

}  // namespace
}  // namespace rc4b
