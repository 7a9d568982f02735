#include "src/sim/cookie_sim.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/biases/mantin.h"
#include "src/sim/runner.h"

namespace rc4b::sim {
namespace {

CookieSimOptions SmallOptions() {
  CookieSimOptions options;
  options.cookie_length = 4;  // keeps the per-trial DP and sampling small
  options.max_gap = 16;
  options.trials = 4;
  options.seed = 5;
  return options;
}

TEST(CookieSimTest, AlphasMatchTheListingLayout) {
  // Pair t of m1 || cookie || mL: known pairs after the cookie need gap
  // >= L - 1 - t, known pairs before need gap >= t + 1 (Sect. 6.2).
  const size_t cookie_length = 16;
  const uint64_t max_gap = 20;
  const auto first = AbsabAlphasForPair(0, cookie_length, max_gap);
  ASSERT_EQ(first.size(), (max_gap - 15 + 1) + max_gap);
  EXPECT_DOUBLE_EQ(first[0], AbsabAlpha(15));
  const auto last = AbsabAlphasForPair(16, cookie_length, max_gap);
  ASSERT_EQ(last.size(), (max_gap + 1) + (max_gap - 17 + 1));
  EXPECT_DOUBLE_EQ(last[0], AbsabAlpha(0));
}

TEST(CookieSimTest, AggregatesBitExactAcrossWorkerCounts) {
  CookieSimOptions options = SmallOptions();
  const uint64_t ciphertexts = uint64_t{1} << 28;

  options.workers = 1;
  const auto one = RunCookieSimulations(CookieSimContext(options), ciphertexts);
  ASSERT_EQ(one.ranks.size(), options.trials);
  for (unsigned workers : {2u, 4u}) {
    options.workers = workers;
    const auto many =
        RunCookieSimulations(CookieSimContext(options), ciphertexts);
    // Whole aggregates, per-trial ranks included.
    EXPECT_TRUE(one == many) << "workers=" << workers;
  }
}

TEST(CookieSimTest, MatchesSingleThreadedReferenceAtFixedSeed) {
  CookieSimOptions options = SmallOptions();
  options.workers = 3;
  const CookieSimContext context(options);
  const uint64_t ciphertexts = uint64_t{1} << 28;
  const auto aggregate = RunCookieSimulations(context, ciphertexts);

  // Per the contract, the checkpoint's seed stream is TrialSeed(seed,
  // ciphertexts) and trial t draws TrialRng(stream, t).
  const uint64_t stream = TrialSeed(options.seed, ciphertexts);
  uint64_t budget_wins = 0, best_wins = 0;
  for (uint64_t t = 0; t < options.trials; ++t) {
    Xoshiro256 rng = TrialRng(stream, t);
    const auto result = RunCookieTrial(context, ciphertexts, rng);
    EXPECT_TRUE(std::isfinite(result.truth_rank));
    budget_wins += result.rank_within_budget ? 1 : 0;
    best_wins += result.best_is_truth ? 1 : 0;
  }
  EXPECT_EQ(aggregate.budget_wins, budget_wins);
  EXPECT_EQ(aggregate.best_wins, best_wins);
  EXPECT_EQ(aggregate.trials, options.trials);
}

TEST(CookieSimTest, PaperScaleSignalRecoversShortCookie) {
  // At 2^34 ciphertexts the combined FM + ABSAB signal recovers a 4-char
  // alphabet-restricted cookie outright (Fig. 7 hits ~100% for a single
  // unconstrained pair at this scale).
  CookieSimOptions options = SmallOptions();
  options.workers = 2;
  const CookieSimContext context(options);
  const auto aggregate =
      RunCookieSimulations(context, uint64_t{1} << 34);
  EXPECT_EQ(aggregate.best_wins, options.trials);
  EXPECT_EQ(aggregate.budget_wins, options.trials);
}

}  // namespace
}  // namespace rc4b::sim
