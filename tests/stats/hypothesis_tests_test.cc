#include <cmath>
#include "src/stats/tests.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace rc4b {
namespace {

std::vector<uint64_t> UniformCounts(size_t cells, uint64_t per_cell_mean,
                                    Xoshiro256& rng) {
  std::vector<uint64_t> counts(cells);
  for (auto& c : counts) {
    const double draw =
        static_cast<double>(per_cell_mean) +
        std::sqrt(static_cast<double>(per_cell_mean)) * rng.Normal();
    c = draw < 0 ? 0 : static_cast<uint64_t>(draw);
  }
  return counts;
}

TEST(ChiSquaredTest, AcceptsUniformData) {
  Xoshiro256 rng(1);
  int rejections = 0;
  for (int trial = 0; trial < 50; ++trial) {
    const auto counts = UniformCounts(256, 1000, rng);
    if (ChiSquaredGoodnessOfFit(counts).p_value < 0.001) {
      ++rejections;
    }
  }
  EXPECT_LE(rejections, 2);  // ~0.05 expected at alpha=1e-3 over 50 trials
}

TEST(ChiSquaredTest, RejectsBiasedCell) {
  Xoshiro256 rng(2);
  auto counts = UniformCounts(256, 10000, rng);
  counts[7] += static_cast<uint64_t>(counts[7] * 0.25);  // 25% relative bias
  EXPECT_LT(ChiSquaredGoodnessOfFit(counts).p_value, 1e-6);
}

TEST(ChiSquaredTest, ExpectedProbabilitiesRespected) {
  // Counts drawn exactly proportional to a non-uniform expectation fit it.
  std::vector<double> expected = {0.5, 0.25, 0.125, 0.125};
  std::vector<uint64_t> counts = {5000, 2500, 1250, 1250};
  const auto result =
      ChiSquaredGoodnessOfFit(counts, expected);
  EXPECT_NEAR(result.statistic, 0.0, 1e-9);
  EXPECT_GT(result.p_value, 0.999);
}

TEST(ChiSquaredIndependenceTest, AcceptsIndependentTable) {
  Xoshiro256 rng(3);
  // Product-of-marginals table with Poisson noise.
  std::vector<uint64_t> table(16 * 16);
  for (size_t r = 0; r < 16; ++r) {
    for (size_t c = 0; c < 16; ++c) {
      const double mean = 400.0 * (1.0 + 0.05 * r) * (1.0 + 0.03 * c);
      table[r * 16 + c] =
          static_cast<uint64_t>(mean + std::sqrt(mean) * rng.Normal());
    }
  }
  EXPECT_GT(ChiSquaredIndependence(table, 16, 16).p_value, 1e-4);
}

TEST(ChiSquaredIndependenceTest, RejectsDependentTable) {
  Xoshiro256 rng(4);
  std::vector<uint64_t> table(16 * 16, 400);
  for (auto& v : table) {
    v = static_cast<uint64_t>(400 + 20.0 * rng.Normal());
  }
  // Couple the diagonal strongly.
  for (size_t i = 0; i < 16; ++i) {
    table[i * 16 + i] += 200;
  }
  EXPECT_LT(ChiSquaredIndependence(table, 16, 16).p_value, 1e-8);
}

TEST(MTest, MorePowerfulThanChiSquaredForSingleOutlier) {
  // One slightly biased cell among 65536: the Fluhrer–McGrew situation the
  // paper cites as motivation for the M-test (Sect. 3.1).
  Xoshiro256 rng(5);
  auto counts = UniformCounts(65536, 4000, rng);
  counts[123] += 1200;  // ~19-sigma outlier in one cell

  const auto chi = ChiSquaredGoodnessOfFit(counts);
  const auto m = FuchsKenettMTest(counts);
  EXPECT_LT(m.p_value, 1e-10);
  EXPECT_EQ(m.worst_cell, 123u);
  // The chi-squared test dilutes one outlier over 65535 df.
  EXPECT_GT(chi.p_value, m.p_value);
}

TEST(MTest, AcceptsUniform) {
  Xoshiro256 rng(6);
  const auto counts = UniformCounts(4096, 2500, rng);
  EXPECT_GT(FuchsKenettMTest(counts).p_value, 1e-4);
}

TEST(ProportionTest, ZStatisticSign) {
  const auto high = ProportionTest(600, 1000, 0.5);
  EXPECT_GT(high.statistic, 0.0);
  const auto low = ProportionTest(400, 1000, 0.5);
  EXPECT_LT(low.statistic, 0.0);
  EXPECT_NEAR(high.p_value, low.p_value, 1e-12);
}

TEST(ProportionTest, ExactNullIsInsignificant) {
  const auto result = ProportionTest(500, 1000, 0.5);
  EXPECT_NEAR(result.statistic, 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(result.p_value, 1.0);
}

TEST(ProportionTest, DetectsMantinShamirScaleBias) {
  // Z2 = 0 occurs with probability 2/256 instead of 1/256; at 2^20 trials
  // this is a ~64-sigma signal.
  const uint64_t trials = 1 << 20;
  const uint64_t successes = trials * 2 / 256;
  EXPECT_LT(ProportionTest(successes, trials, 1.0 / 256).p_value, 1e-100);
}

TEST(HolmTest, AdjustedValuesMonotoneAndScaled) {
  const std::vector<double> p = {0.001, 0.01, 0.03, 0.5};
  const auto adj = HolmAdjust(p);
  // First (smallest) scaled by m=4, then 3, 2, 1 with running max.
  EXPECT_NEAR(adj[0], 0.004, 1e-12);
  EXPECT_NEAR(adj[1], 0.03, 1e-12);
  EXPECT_NEAR(adj[2], 0.06, 1e-12);
  EXPECT_NEAR(adj[3], 0.5, 1e-12);
}

TEST(HolmTest, CapsAtOne) {
  const std::vector<double> p = {0.9, 0.8, 0.7};
  for (double a : HolmAdjust(p)) {
    EXPECT_LE(a, 1.0);
  }
}

TEST(HolmTest, ControlsFamilyWiseErrorUnderNull) {
  // With all nulls true, the chance of any rejection at alpha should be
  // <= alpha. Run many families and count false rejections.
  Xoshiro256 rng(8);
  int families_with_rejection = 0;
  for (int family = 0; family < 2000; ++family) {
    std::vector<double> p(20);
    for (auto& x : p) {
      x = rng.UnitDouble();  // null p-values are uniform
    }
    const auto adjusted = HolmAdjust(p);
    if (std::ranges::any_of(adjusted, [](double a) { return a <= 0.01; })) {
      ++families_with_rejection;
    }
  }
  // Expectation 20 of 2000; allow generous head room.
  EXPECT_LE(families_with_rejection, 40);
}

}  // namespace
}  // namespace rc4b
