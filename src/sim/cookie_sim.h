// Trial-parallel Monte-Carlo simulation of the HTTPS secure-cookie
// brute-force attack (Sect. 6, Fig. 10): per-trial random cookies, ciphertext
// statistics sampled from their exact Poissonized law at paper-scale request
// counts, combined Fluhrer-McGrew + multi-gap ABSAB transition tables, and
// the Markov rank DP standing in for the Algorithm 2 candidate list.
//
// The Fig. 10 bench, the https_cookie example, the cookie scenarios and the
// tests all draw their tables from SampleCookieTransitions; a caller that
// brute-forces them passes the tables to RecoveryEngine::RecoverDouble
// itself. Trials run on src/sim/runner.h under its determinism contract:
// aggregates are bit-exact for any worker count (docs/sim.md).
#ifndef SRC_SIM_COOKIE_SIM_H_
#define SRC_SIM_COOKIE_SIM_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/biases/fluhrer_mcgrew.h"
#include "src/common/rng.h"
#include "src/core/candidates.h"

namespace rc4b::sim {

struct CookieSimOptions {
  size_t cookie_length = 16;
  // Character set the cookie is drawn from and the candidate search is
  // restricted to (Sect. 6.2). Empty selects CookieAlphabet64().
  std::vector<uint8_t> alphabet;
  // 0-based keystream offset of the first cookie byte, modulo 256; pair t's
  // first byte sits at 1-based PRGA position alignment + t.
  size_t alignment = 48;
  uint64_t max_gap = 128;  // largest ABSAB gap used (paper: 128)
  uint8_t m1 = '=';        // known byte before the cookie value
  uint8_t m_last = ';';    // known byte after (injected cookie separator)
  // Brute-force budget: success means rank < attempt_budget (paper: 2^23).
  double attempt_budget = 8388608.0;
  uint64_t trials = 48;  // simulated attacks (the paper runs 256)
  unsigned workers = 0;  // 0 = hardware concurrency
  uint64_t seed = 1;
};

// ABSAB gap set usable against pair t of m1 || cookie || mL: known pairs
// after the cookie need gap >= cookie_length - 1 - t; known pairs before need
// gap >= t + 1; both capped at max_gap (Sect. 6.2's layout).
std::vector<double> AbsabAlphasForPair(size_t pair_index, size_t cookie_length,
                                       uint64_t max_gap);

// Per-pair models precomputed once and shared (read-only) by every trial:
// the long-term FM digraph table / sparse model at each pair's PRGA counter
// and the usable ABSAB alpha sets.
class CookieSimContext {
 public:
  explicit CookieSimContext(const CookieSimOptions& options);

  const CookieSimOptions& options() const { return options_; }
  size_t pair_count() const { return options_.cookie_length + 1; }
  const std::vector<uint8_t>& alphabet() const { return alphabet_; }

  const SparseDigraphModel& fm_model(size_t pair_index) const {
    return fm_models_[pair_index];
  }
  const std::vector<double>& fm_table(size_t pair_index) const {
    return fm_tables_[pair_index];
  }
  const std::vector<double>& alphas(size_t pair_index) const {
    return alphas_[pair_index];
  }

 private:
  CookieSimOptions options_;
  std::vector<uint8_t> alphabet_;
  std::vector<SparseDigraphModel> fm_models_;
  std::vector<std::vector<double>> fm_tables_;
  std::vector<std::vector<double>> alphas_;
};

// Builds the cookie_length + 1 combined FM + ABSAB transition tables for the
// true cookie `cookie` after `ciphertexts` captured requests, sampling the
// ciphertext statistics from their exact Poissonized law. This is the shared
// synthetic-capture path of the Fig. 10 bench and the https_cookie example.
DoubleByteTables SampleCookieTransitions(const CookieSimContext& context,
                                         std::span<const uint8_t> cookie,
                                         uint64_t ciphertexts, Xoshiro256& rng);

struct CookieSimResult {
  double truth_rank = 0.0;          // Markov rank DP estimate of the truth
  bool rank_within_budget = false;  // rank < attempt_budget
  bool best_is_truth = false;       // Viterbi best candidate == truth
};

// Runs one simulated attack at `ciphertexts` captured requests with the
// given per-trial generator: draw a random cookie from the alphabet, sample
// its transition tables, and evaluate both success criteria.
CookieSimResult RunCookieTrial(const CookieSimContext& context,
                               uint64_t ciphertexts, Xoshiro256& rng);

struct CookieSimAggregate {
  uint64_t trials = 0;
  uint64_t budget_wins = 0;  // rank_within_budget count
  uint64_t best_wins = 0;    // best_is_truth count
  // [trial] truth_rank, in trial order (the recovery layer's rank metric).
  std::vector<double> ranks;

  // Field-wise equality for the worker-count bit-exactness checks.
  bool operator==(const CookieSimAggregate&) const = default;
};

// Runs options.trials simulated attacks at `ciphertexts` captured requests
// across the thread pool. The per-trial seed stream derives from
// TrialSeed(options.seed, ciphertexts), so every checkpoint of a Fig. 10
// sweep draws independent randomness while staying bit-exact for any
// options.workers.
CookieSimAggregate RunCookieSimulations(const CookieSimContext& context,
                                        uint64_t ciphertexts);

}  // namespace rc4b::sim

#endif  // SRC_SIM_COOKIE_SIM_H_
