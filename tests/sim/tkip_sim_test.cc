#include "src/sim/tkip_sim.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/sim/runner.h"

namespace rc4b::sim {
namespace {

// Deterministic oracle model over the injected packet's trailer positions:
// keystream leans toward a TSC1- and position-dependent value, strongly
// enough that a few thousand captures pin the trailer (same construction as
// tests/tkip/attack_test.cc).
TkipTscModel StrongModel(double boost) {
  const Bytes msdu = InjectedPacket();
  const size_t first = msdu.size() + 1;
  const size_t last = msdu.size() + kTkipTrailerSize;
  TkipTscModel model(first, last);
  for (int tsc1 = 0; tsc1 < 256; ++tsc1) {
    for (size_t pos = first; pos <= last; ++pos) {
      std::vector<double> p(256, (1.0 - (1.0 / 256 + boost)) / 255.0);
      p[(tsc1 * 31 + static_cast<int>(pos)) & 0xff] = 1.0 / 256 + boost;
      model.SetRow(static_cast<uint8_t>(tsc1), pos, p);
    }
  }
  return model;
}

TkipSimOptions SmallOptions() {
  TkipSimOptions options;
  options.checkpoints = {4096};
  options.trials = 3;
  options.seed = 77;
  options.oracle_model = true;
  return options;
}

TEST(TkipSimTest, AggregatesBitExactAcrossWorkerCounts) {
  // Both victims: keystream drawn from the model, and real TKIP key mixing
  // plus RC4 per frame.
  const TkipTscModel model = StrongModel(0.2);
  for (const bool oracle : {true, false}) {
    TkipSimOptions options = SmallOptions();
    options.oracle_model = oracle;

    options.workers = 1;
    const auto one = RunTkipSimulations(model, options);
    ASSERT_EQ(one.icv_positions[0].size(), options.trials);
    for (unsigned workers : {2u, 4u}) {
      options.workers = workers;
      const auto many = RunTkipSimulations(model, options);
      EXPECT_TRUE(one == many) << "oracle=" << oracle << " workers=" << workers;
    }
  }
}

TEST(TkipSimTest, MatchesSingleThreadedReferenceAtFixedSeed) {
  // The runner's contract: the aggregate equals folding RunTkipTrial over
  // TrialRng(seed, t) serially, in trial order.
  const TkipTscModel model = StrongModel(0.2);
  TkipSimOptions options = SmallOptions();
  options.workers = 3;
  const auto aggregate = RunTkipSimulations(model, options);

  ASSERT_EQ(aggregate.checkpoints.size(), options.checkpoints.size());
  ASSERT_EQ(aggregate.icv_positions[0].size(), options.trials);
  uint64_t budget_wins = 0, two_wins = 0;
  for (uint64_t t = 0; t < options.trials; ++t) {
    Xoshiro256 rng = TrialRng(options.seed, t);
    const auto points = RunTkipTrial(model, options, rng);
    ASSERT_EQ(points.size(), 1u);
    EXPECT_EQ(points[0].packets, options.checkpoints[0]);
    EXPECT_EQ(points[0].first_icv_position, aggregate.icv_positions[0][t])
        << "trial " << t;
    budget_wins += points[0].success_with_budget ? 1 : 0;
    two_wins += points[0].success_with_two ? 1 : 0;
  }
  EXPECT_EQ(aggregate.budget_wins[0], budget_wins);
  EXPECT_EQ(aggregate.two_wins[0], two_wins);
}

TEST(TkipSimTest, StrongOracleModelRecoversTheTrailer) {
  // With a heavily biased model, 4096 captures put the true trailer at the
  // top of the candidate list in every trial: no NaN-poisoned table or
  // broken rank evaluation could produce this.
  const TkipTscModel model = StrongModel(0.2);
  TkipSimOptions options = SmallOptions();
  options.workers = 2;
  const auto aggregate = RunTkipSimulations(model, options);
  EXPECT_EQ(aggregate.two_wins[0], options.trials);
  EXPECT_EQ(aggregate.budget_wins[0], options.trials);
  for (double position : aggregate.icv_positions[0]) {
    EXPECT_TRUE(std::isfinite(position));
    EXPECT_GE(position, 0.0);
  }
}

}  // namespace
}  // namespace rc4b::sim
