#include "src/sim/cookie_sim.h"

#include <algorithm>

#include "src/biases/mantin.h"
#include "src/core/likelihood.h"
#include "src/core/rank.h"
#include "src/core/synthetic.h"
#include "src/sim/runner.h"
#include "src/tls/cookie_attack.h"

namespace rc4b::sim {

std::vector<double> AbsabAlphasForPair(size_t pair_index, size_t cookie_length,
                                       uint64_t max_gap) {
  std::vector<double> alphas;
  const uint64_t after_min =
      cookie_length - 1 - std::min(pair_index, cookie_length - 1);
  for (uint64_t g = after_min; g <= max_gap; ++g) {
    alphas.push_back(AbsabAlpha(g));
  }
  for (uint64_t g = pair_index + 1; g <= max_gap; ++g) {
    alphas.push_back(AbsabAlpha(g));
  }
  return alphas;
}

CookieSimContext::CookieSimContext(const CookieSimOptions& options)
    : options_(options),
      alphabet_(options.alphabet.empty() ? CookieAlphabet64()
                                         : options.alphabet) {
  for (size_t t = 0; t < pair_count(); ++t) {
    // The pair's first byte is output at 1-based position alignment + t.
    const uint8_t counter = PrgaCounterAtPosition(options_.alignment + t);
    fm_models_.push_back(FmSparseModel(counter, 1 << 20));
    fm_tables_.push_back(FmDigraphTable(counter, 1 << 20));
    alphas_.push_back(
        AbsabAlphasForPair(t, options_.cookie_length, options_.max_gap));
  }
}

DoubleByteTables SampleCookieTransitions(const CookieSimContext& context,
                                         std::span<const uint8_t> cookie,
                                         uint64_t ciphertexts,
                                         Xoshiro256& rng) {
  const CookieSimOptions& options = context.options();
  DoubleByteTables transitions(context.pair_count());
  for (size_t t = 0; t < context.pair_count(); ++t) {
    const uint8_t p1 = t == 0 ? options.m1 : cookie[t - 1];
    const uint8_t p2 = t == options.cookie_length ? options.m_last : cookie[t];
    const auto counts = SampleCiphertextPairCounts(context.fm_table(t), p1, p2,
                                                   ciphertexts, rng);
    transitions[t] =
        DoubleByteLogLikelihoodSparse(counts, ciphertexts, context.fm_model(t));
    const uint16_t true_pair = static_cast<uint16_t>(p1 << 8 | p2);
    const auto absab =
        SampleAbsabScoreTable(context.alphas(t), ciphertexts, true_pair, rng);
    CombineInPlace(transitions[t], absab);
  }
  return transitions;
}

CookieSimResult RunCookieTrial(const CookieSimContext& context,
                               uint64_t ciphertexts, Xoshiro256& rng) {
  const CookieSimOptions& options = context.options();
  const auto& alphabet = context.alphabet();
  Bytes truth(options.cookie_length);
  for (auto& b : truth) {
    b = alphabet[rng.Below(alphabet.size())];
  }

  const auto transitions =
      SampleCookieTransitions(context, truth, ciphertexts, rng);
  const auto bracket =
      MarkovRank(transitions, options.m1, options.m_last, truth, alphabet);
  const Bytes best = MarkovBest(transitions, options.m1, options.m_last,
                                options.cookie_length, alphabet);

  CookieSimResult result;
  result.truth_rank = bracket.estimate;
  result.rank_within_budget = result.truth_rank < options.attempt_budget;
  result.best_is_truth = best == truth;
  return result;
}

CookieSimAggregate RunCookieSimulations(const CookieSimContext& context,
                                        uint64_t ciphertexts) {
  const CookieSimOptions& options = context.options();
  // Derive this checkpoint's seed stream from (seed, ciphertexts) so a
  // Fig. 10 sweep reuses one base seed without correlating checkpoints.
  const auto per_trial = RunTrials<CookieSimResult>(
      TrialRunnerOptions{options.trials, options.workers,
                         TrialSeed(options.seed, ciphertexts)},
      [&](uint64_t, Xoshiro256& rng) {
        return RunCookieTrial(context, ciphertexts, rng);
      });

  CookieSimAggregate aggregate;
  aggregate.trials = options.trials;
  // Fold in trial order: the aggregate is a pure function of (seed, trials),
  // independent of how trials were sharded.
  for (const CookieSimResult& result : per_trial) {
    aggregate.budget_wins += result.rank_within_budget ? 1 : 0;
    aggregate.best_wins += result.best_is_truth ? 1 : 0;
    aggregate.ranks.push_back(result.truth_rank);
  }
  return aggregate;
}

}  // namespace rc4b::sim
