// Special functions backing the hypothesis tests in Sect. 3.1: regularized
// incomplete gamma (chi-squared tail) and the two-sided normal tail.
// Implemented from the standard series / continued fraction expansions.
#ifndef SRC_STATS_SPECIAL_H_
#define SRC_STATS_SPECIAL_H_

namespace rc4b {

// Regularized upper incomplete gamma Q(a, x) = Γ(a, x) / Γ(a), for a > 0,
// x >= 0. Chi-squared survival function: P[X² ≥ x | k df] = Q(k/2, x/2).
double RegularizedGammaQ(double a, double x);

// Chi-squared survival function with `df` degrees of freedom.
double ChiSquaredSurvival(double statistic, double df);

// Two-sided normal p-value: 2 * P[|Z| >= |z|].
double TwoSidedNormalPValue(double z);

}  // namespace rc4b

#endif  // SRC_STATS_SPECIAL_H_
