#include "src/stats/special.h"

#include <cmath>

#include <gtest/gtest.h>

namespace rc4b {
namespace {

TEST(SpecialTest, GammaQBoundaries) {
  EXPECT_DOUBLE_EQ(RegularizedGammaQ(1.0, 0.0), 1.0);
  EXPECT_NEAR(RegularizedGammaQ(1.0, 1000.0), 0.0, 1e-12);
}

TEST(SpecialTest, GammaQExponentialCase) {
  // For a = 1, Q(1, x) = exp(-x).
  for (double x : {0.1, 0.5, 1.0, 2.5, 7.0, 30.0}) {
    EXPECT_NEAR(RegularizedGammaQ(1.0, x), std::exp(-x), 1e-10) << "x=" << x;
  }
}

TEST(SpecialTest, GammaQHalfIsNormalTail) {
  // Q(1/2, z^2/2) = 2 * P[N(0,1) > z] = P[|N(0,1)| >= z] for z > 0.
  for (double z : {0.5, 1.0, 1.96, 3.0}) {
    EXPECT_NEAR(RegularizedGammaQ(0.5, z * z / 2.0), TwoSidedNormalPValue(z), 1e-9)
        << "z=" << z;
  }
}

TEST(SpecialTest, ChiSquaredKnownQuantiles) {
  // Classical table values: P[X²_1 >= 3.841] ~ 0.05, P[X²_10 >= 18.307] ~ 0.05.
  EXPECT_NEAR(ChiSquaredSurvival(3.841, 1), 0.05, 0.001);
  EXPECT_NEAR(ChiSquaredSurvival(18.307, 10), 0.05, 0.001);
  EXPECT_NEAR(ChiSquaredSurvival(6.635, 1), 0.01, 0.0005);
}

TEST(SpecialTest, ChiSquaredMonotoneDecreasing) {
  double prev = 1.0;
  for (double x = 0.0; x < 50.0; x += 5.0) {
    const double p = ChiSquaredSurvival(x, 8);
    EXPECT_LE(p, prev + 1e-12);
    prev = p;
  }
}

TEST(SpecialTest, TwoSidedPValue) {
  EXPECT_NEAR(TwoSidedNormalPValue(1.96), 0.05, 0.001);
  EXPECT_NEAR(TwoSidedNormalPValue(-1.96), 0.05, 0.001);
  EXPECT_DOUBLE_EQ(TwoSidedNormalPValue(0.0), 1.0);
}

}  // namespace
}  // namespace rc4b
