#include "src/core/rank.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace rc4b {
namespace {

SingleByteTables RandomTables(size_t length, uint64_t seed) {
  Xoshiro256 rng(seed);
  SingleByteTables tables(length, std::vector<double>(256));
  for (auto& table : tables) {
    for (auto& v : table) {
      v = -rng.UnitDouble() * 8.0;
    }
  }
  return tables;
}

// Exact rank by exhaustive enumeration (2 positions: 65536 candidates).
uint64_t ExhaustiveRank(const SingleByteTables& tables, std::span<const uint8_t> truth) {
  double truth_score = 0.0;
  for (size_t r = 0; r < tables.size(); ++r) {
    truth_score += tables[r][truth[r]];
  }
  uint64_t rank = 0;
  for (int a = 0; a < 256; ++a) {
    for (int b = 0; b < 256; ++b) {
      const double s = tables[0][a] + tables[1][b];
      if (s > truth_score) {
        ++rank;
      }
    }
  }
  return rank;
}

// The bracket contains the exhaustive rank, also at coarse bins, where the
// per-position floors drift furthest, and on tie-heavy tables (even seeds),
// where candidates tie the truth exactly.
TEST(IndependentRankTest, BracketsExhaustiveRank) {
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    auto tables = RandomTables(2, seed);
    if (seed % 2 == 0) {
      for (auto& table : tables) {
        for (auto& v : table) {
          v = std::floor(v * 2.0) / 2.0;
        }
      }
    }
    Xoshiro256 rng(100 + seed);
    const std::vector<uint8_t> truth = {rng.Byte(), rng.Byte()};
    const double exact = static_cast<double>(ExhaustiveRank(tables, truth));
    for (const size_t bins : {size_t{4}, size_t{16}, size_t{256}, size_t{1} << 15}) {
      const auto bracket = IndependentRank(tables, truth, bins);
      EXPECT_LE(bracket.lower, exact) << "seed " << seed << " bins " << bins;
      EXPECT_GE(bracket.upper, exact) << "seed " << seed << " bins " << bins;
    }
  }
}

// The bracket is what rank.h defines, counted candidate by candidate: with
// per-position deficits u in quanta, bin b = sum of floor(u) and x = the
// truth's sum of u, lower = #(b + L <= x - 1) and upper = #(b < x + 1) - 1.
TEST(IndependentRankTest, BracketMatchesItsDefinition) {
  for (const size_t bins : {size_t{16}, size_t{1} << 10}) {
    const auto tables = RandomTables(2, 70 + bins);
    const std::vector<uint8_t> truth = {7, 9};
    std::array<double, 2> row_max;
    double best_sum = 0.0;
    double truth_sum = 0.0;
    for (size_t r = 0; r < 2; ++r) {
      row_max[r] = *std::max_element(tables[r].begin(), tables[r].end());
      best_sum += row_max[r];
      truth_sum += tables[r][truth[r]];
    }
    const double quantum = std::max((best_sum - truth_sum) / (0.45 * bins), 1e-9);
    const auto units = [&](size_t r, size_t v) {
      return (row_max[r] - tables[r][v]) / quantum;
    };
    const double x = units(0, truth[0]) + units(1, truth[1]);
    double lower = 0.0;
    double upper = -1.0;
    for (size_t a = 0; a < 256; ++a) {
      for (size_t b = 0; b < 256; ++b) {
        const double bin = std::floor(units(0, a)) + std::floor(units(1, b));
        lower += bin + 2 <= x - 1 ? 1.0 : 0.0;
        upper += bin < x + 1 ? 1.0 : 0.0;
      }
    }
    const auto bracket = IndependentRank(tables, truth, bins);
    EXPECT_EQ(bracket.lower, lower) << "bins " << bins;
    EXPECT_EQ(bracket.upper, upper) << "bins " << bins;
  }
}

TEST(IndependentRankTest, BestCandidateHasRankZero) {
  const auto tables = RandomTables(8, 11);
  std::vector<uint8_t> best(8);
  for (size_t r = 0; r < 8; ++r) {
    best[r] = static_cast<uint8_t>(
        std::max_element(tables[r].begin(), tables[r].end()) - tables[r].begin());
  }
  const auto bracket = IndependentRank(tables, best);
  EXPECT_DOUBLE_EQ(bracket.lower, 0.0);
  EXPECT_LE(bracket.upper, 2.0);  // quantization may pull in near-ties
}

TEST(IndependentRankTest, WorstCandidateHasHugeRank) {
  const auto tables = RandomTables(6, 12);
  std::vector<uint8_t> worst(6);
  for (size_t r = 0; r < 6; ++r) {
    worst[r] = static_cast<uint8_t>(
        std::min_element(tables[r].begin(), tables[r].end()) - tables[r].begin());
  }
  const auto bracket = IndependentRank(tables, worst);
  // 256^6 = 2^48 candidates; the worst one is near the bottom.
  EXPECT_GT(bracket.estimate, 1e12);
}

TEST(IndependentRankTest, RankGrowsWhenTruthScoreDrops) {
  auto tables = RandomTables(4, 13);
  const std::vector<uint8_t> truth = {1, 2, 3, 4};
  // Make the truth progressively worse and require monotone rank growth.
  double prev = -1.0;
  for (double penalty : {0.0, 0.5, 1.0, 2.0}) {
    auto modified = tables;
    for (size_t r = 0; r < 4; ++r) {
      modified[r][truth[r]] -= penalty;
    }
    const double rank = IndependentRank(modified, truth).estimate;
    EXPECT_GE(rank, prev);
    prev = rank;
  }
}

DoubleByteTables RandomTransitions(size_t count, uint64_t seed) {
  Xoshiro256 rng(seed);
  DoubleByteTables tables(count, std::vector<double>(65536));
  for (auto& table : tables) {
    for (auto& v : table) {
      v = -rng.UnitDouble() * 4.0;
    }
  }
  return tables;
}

// Exhaustive Markov rank over a small alphabet.
uint64_t ExhaustiveMarkovRank(const DoubleByteTables& transitions, uint8_t m1,
                              uint8_t m_last, std::span<const uint8_t> truth,
                              std::span<const uint8_t> alphabet) {
  const size_t inner = truth.size();
  double truth_score = transitions[0][static_cast<size_t>(m1) * 256 + truth[0]];
  for (size_t t = 1; t < inner; ++t) {
    truth_score +=
        transitions[t][static_cast<size_t>(truth[t - 1]) * 256 + truth[t]];
  }
  truth_score +=
      transitions[inner][static_cast<size_t>(truth[inner - 1]) * 256 + m_last];

  uint64_t rank = 0;
  std::vector<size_t> idx(inner, 0);
  while (true) {
    double score = transitions[0][static_cast<size_t>(m1) * 256 + alphabet[idx[0]]];
    for (size_t t = 1; t < inner; ++t) {
      score += transitions[t][static_cast<size_t>(alphabet[idx[t - 1]]) * 256 +
                              alphabet[idx[t]]];
    }
    score += transitions[inner][static_cast<size_t>(alphabet[idx[inner - 1]]) * 256 +
                                m_last];
    if (score > truth_score) {
      ++rank;
    }
    size_t pos = 0;
    while (pos < inner && ++idx[pos] == alphabet.size()) {
      idx[pos] = 0;
      ++pos;
    }
    if (pos == inner) {
      break;
    }
  }
  return rank;
}

// Coarse bins and tie-heavy tables (even seeds) too, as for IndependentRank.
TEST(MarkovRankTest, BracketsExhaustiveRank) {
  const std::vector<uint8_t> alphabet = {'a', 'b', 'c', 'd', 'e', 'f'};
  for (uint64_t seed = 20; seed < 32; ++seed) {
    auto transitions = RandomTransitions(5, seed);  // 4 unknown bytes
    if (seed % 2 == 0) {
      for (auto& table : transitions) {
        for (auto& v : table) {
          v = std::floor(v * 2.0) / 2.0;
        }
      }
    }
    Xoshiro256 rng(seed);
    std::vector<uint8_t> truth(4);
    for (auto& b : truth) {
      b = alphabet[rng.Below(alphabet.size())];
    }
    const double exact =
        static_cast<double>(ExhaustiveMarkovRank(transitions, 'X', 'Y', truth, alphabet));
    for (const size_t bins : {size_t{4}, size_t{16}, size_t{256}, size_t{1} << 14}) {
      const auto bracket = MarkovRank(transitions, 'X', 'Y', truth, alphabet, bins);
      EXPECT_LE(bracket.lower, exact) << "seed " << seed << " bins " << bins;
      EXPECT_GE(bracket.upper, exact) << "seed " << seed << " bins " << bins;
    }
  }
}

// As for IndependentRank, over the 5 transitions of 4 unknown bytes, with
// maxima taken over the pairs each transition allows.
TEST(MarkovRankTest, BracketMatchesItsDefinition) {
  const std::vector<uint8_t> alphabet = {'a', 'b', 'c', 'd', 'e', 'f'};
  const std::vector<uint8_t> truth = {'c', 'a', 'f', 'b'};
  const size_t truth_path = 398;  // base-6 digits 2, 0, 5, 1
  for (const size_t bins : {size_t{16}, size_t{256}}) {
    const auto transitions = RandomTransitions(5, 80 + bins);
    // Transition t's score on path n, whose unknown byte i is the alphabet
    // entry at base-6 digit i of n, between m1 = 'X' and m_last = 'Y'.
    const auto score = [&](size_t n, size_t t) {
      std::array<size_t, 6> bytes = {'X', 0, 0, 0, 0, 'Y'};
      for (size_t i = 1; i <= 4; ++i, n /= 6) {
        bytes[i] = alphabet[n % 6];
      }
      return transitions[t][bytes[t] * 256 + bytes[t + 1]];
    };
    std::array<double, 5> maxima;
    maxima.fill(-std::numeric_limits<double>::infinity());
    for (size_t n = 0; n < 1296; ++n) {
      for (size_t t = 0; t < 5; ++t) {
        maxima[t] = std::max(maxima[t], score(n, t));
      }
    }
    double best_sum = 0.0;
    double truth_sum = 0.0;
    for (size_t t = 0; t < 5; ++t) {
      best_sum += maxima[t];
      truth_sum += score(truth_path, t);
    }
    const double quantum = std::max((best_sum - truth_sum) / (0.45 * bins), 1e-9);
    double x = 0.0;
    for (size_t t = 0; t < 5; ++t) {
      x += (maxima[t] - score(truth_path, t)) / quantum;
    }
    double lower = 0.0;
    double upper = -1.0;
    for (size_t n = 0; n < 1296; ++n) {
      double bin = 0.0;
      for (size_t t = 0; t < 5; ++t) {
        bin += std::floor((maxima[t] - score(n, t)) / quantum);
      }
      lower += bin + 5 <= x - 1 ? 1.0 : 0.0;
      upper += bin < x + 1 ? 1.0 : 0.0;
    }
    const auto bracket = MarkovRank(transitions, 'X', 'Y', truth, alphabet, bins);
    EXPECT_EQ(bracket.lower, lower) << "bins " << bins;
    EXPECT_EQ(bracket.upper, upper) << "bins " << bins;
  }
}

TEST(MarkovRankTest, ViterbiPathHasRankZero) {
  const std::vector<uint8_t> alphabet = {'0', '1', '2', '3'};
  const auto transitions = RandomTransitions(6, 30);
  const Bytes best = MarkovBest(transitions, 'A', 'Z', 5, alphabet);
  const auto bracket = MarkovRank(transitions, 'A', 'Z', best, alphabet);
  EXPECT_DOUBLE_EQ(bracket.lower, 0.0);
}

TEST(MarkovBestTest, MatchesExhaustiveArgmax) {
  const std::vector<uint8_t> alphabet = {'a', 'b', 'c'};
  const auto transitions = RandomTransitions(4, 31);  // 3 unknown bytes
  const Bytes best = MarkovBest(transitions, 'S', 'E', 3, alphabet);
  // Its exhaustive rank must be zero.
  EXPECT_EQ(ExhaustiveMarkovRank(transitions, 'S', 'E', best, alphabet), 0u);
}

TEST(MarkovBestTest, LengthAndAlphabetRespected) {
  const std::vector<uint8_t> alphabet = {'q', 'w'};
  const auto transitions = RandomTransitions(8, 32);
  const Bytes best = MarkovBest(transitions, 'S', 'E', 7, alphabet);
  ASSERT_EQ(best.size(), 7u);
  for (uint8_t b : best) {
    EXPECT_TRUE(b == 'q' || b == 'w');
  }
}

TEST(RankDeathTest, IndependentRankRejectsBadInputsInEveryBuild) {
  const std::vector<uint8_t> truth = {1, 2};
  EXPECT_DEATH(IndependentRank(SingleByteTables{}, {}),
               "IndependentRank: the truth is empty");
  EXPECT_DEATH(IndependentRank(RandomTables(3, 60), truth),
               "IndependentRank: got 3 tables for a 2-byte truth");
  auto short_row = RandomTables(2, 61);
  short_row[1].resize(255);
  EXPECT_DEATH(IndependentRank(short_row, truth),
               "IndependentRank: table 1 has 255 entries, needs 256");
  // One bin cannot hold a truth that is not the best candidate.
  EXPECT_DEATH(IndependentRank(RandomTables(2, 62), truth, 1),
               "IndependentRank: the truth lies .* quanta deep, past the 1 bins");
  // Scores whose sums cancel: best and truth sums both round to 0, so the
  // quantum floors at 1e-9 while the truth trails by 1 in row 1.
  SingleByteTables cancelling(3, std::vector<double>(256, -2e16));
  cancelling[0][0] = 1e16;
  cancelling[1][0] = 1.0;
  cancelling[1][1] = 0.0;
  cancelling[2][0] = -1e16;
  const std::vector<uint8_t> trailing = {0, 1, 0};
  EXPECT_DEATH(IndependentRank(cancelling, trailing),
               "IndependentRank: the truth lies .* quanta deep, past the 16384 bins");
}

TEST(RankDeathTest, MarkovRankRejectsBadInputsInEveryBuild) {
  const std::vector<uint8_t> alphabet = {'a', 'b'};
  const std::vector<uint8_t> truth = {'a', 'b', 'a', 'b'};
  EXPECT_DEATH(MarkovRank(RandomTransitions(1, 63), 'X', 'Y', {}, alphabet),
               "MarkovRank: the truth is empty");
  EXPECT_DEATH(MarkovRank(RandomTransitions(4, 64), 'X', 'Y', truth, alphabet),
               "MarkovRank: got 4 transition tables for a 4-byte truth, needs 5");
  auto short_table = RandomTransitions(5, 65);
  short_table[2].resize(256);
  EXPECT_DEATH(MarkovRank(short_table, 'X', 'Y', truth, alphabet),
               "MarkovRank: transition table 2 has 256 entries, needs 65536");
  const auto transitions = RandomTransitions(5, 66);
  EXPECT_DEATH(MarkovRank(transitions, 'X', 'Y', truth, {}),
               "MarkovRank: the alphabet is empty");
  const std::vector<uint8_t> repeated = {'a', 'b', 'a'};
  EXPECT_DEATH(MarkovRank(transitions, 'X', 'Y', truth, repeated),
               "MarkovRank: the alphabet repeats byte 0x61");
  const std::vector<uint8_t> outside = {'a', 'b', 'z', 'a'};
  EXPECT_DEATH(MarkovRank(transitions, 'X', 'Y', outside, alphabet),
               "MarkovRank: truth byte 2 .0x7a. is not in the alphabet");
  EXPECT_DEATH(MarkovRank(transitions, 'X', 'Y', truth, alphabet, 1),
               "MarkovRank: the truth lies .* quanta deep, past the 1 bins");
}

TEST(RankDeathTest, MarkovBestRejectsBadInputsInEveryBuild) {
  const std::vector<uint8_t> alphabet = {'a', 'b'};
  EXPECT_DEATH(MarkovBest(RandomTransitions(1, 67), 'X', 'Y', 0, alphabet),
               "MarkovBest: the length is zero");
  EXPECT_DEATH(MarkovBest(RandomTransitions(2, 68), 'X', 'Y', 4, alphabet),
               "MarkovBest: got 2 transition tables for length 4, needs 5");
  auto short_table = RandomTransitions(5, 69);
  short_table[3].resize(256);
  EXPECT_DEATH(MarkovBest(short_table, 'X', 'Y', 4, alphabet),
               "MarkovBest: transition table 3 has 256 entries, needs 65536");
  EXPECT_DEATH(MarkovBest(RandomTransitions(5, 70), 'X', 'Y', 4, {}),
               "MarkovBest: the alphabet is empty");
}

}  // namespace
}  // namespace rc4b
