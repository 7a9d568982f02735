#include "src/stats/special.h"

#include <cmath>
#include <limits>

namespace rc4b {

namespace {

constexpr int kMaxIterations = 500;
constexpr double kEpsilon = 1e-14;

// Lower incomplete gamma P(a, x) by its power series (converges for x < a+1).
double GammaPSeries(double a, double x) {
  double sum = 1.0 / a;
  double term = sum;
  double ap = a;
  for (int n = 0; n < kMaxIterations; ++n) {
    ap += 1.0;
    term *= x / ap;
    sum += term;
    if (std::fabs(term) < std::fabs(sum) * kEpsilon) {
      break;
    }
  }
  return sum * std::exp(-x + a * std::log(x) - std::lgamma(a));
}

// Upper incomplete gamma Q(a, x) by Lentz's continued fraction
// (converges for x >= a+1).
double GammaQContinuedFraction(double a, double x) {
  const double tiny = std::numeric_limits<double>::min() / kEpsilon;
  double b = x + 1.0 - a;
  double c = 1.0 / tiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= kMaxIterations; ++i) {
    const double an = -i * (i - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < tiny) {
      d = tiny;
    }
    c = b + an / c;
    if (std::fabs(c) < tiny) {
      c = tiny;
    }
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::fabs(delta - 1.0) < kEpsilon) {
      break;
    }
  }
  return std::exp(-x + a * std::log(x) - std::lgamma(a)) * h;
}

}  // namespace

double RegularizedGammaQ(double a, double x) {
  if (x < 0.0 || a <= 0.0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  if (x == 0.0) {
    return 1.0;
  }
  if (x < a + 1.0) {
    return 1.0 - GammaPSeries(a, x);
  }
  return GammaQContinuedFraction(a, x);
}

double ChiSquaredSurvival(double statistic, double df) {
  return RegularizedGammaQ(df / 2.0, statistic / 2.0);
}

double TwoSidedNormalPValue(double z) {
  const double p = std::erfc(std::fabs(z) / std::sqrt(2.0));
  return p > 1.0 ? 1.0 : p;
}

}  // namespace rc4b
