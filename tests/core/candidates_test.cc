#include "src/core/candidates.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace rc4b {
namespace {

// Map key for the duplicate checks. A std::string key, unlike Bytes, keeps
// gcc 12's -Wstringop-overread false positive on std::vector's memcmp
// comparison out of the build.
std::string PlaintextKey(const Candidate& c) {
  return std::string(c.plaintext.begin(), c.plaintext.end());
}

// Exhaustive reference: all length-L strings over a tiny alphabet ranked by
// total score, for validating the list algorithms.
std::vector<Candidate> BruteForceSingle(const SingleByteTables& tables, size_t n) {
  const size_t length = tables.size();
  std::vector<Candidate> all;
  std::vector<uint8_t> current(length, 0);
  // Only feasible for small lengths: iterate 256^L via odometer.
  while (true) {
    Candidate c;
    c.plaintext = current;
    c.log_likelihood = 0.0;
    for (size_t r = 0; r < length; ++r) {
      c.log_likelihood += tables[r][current[r]];
    }
    all.push_back(c);
    size_t pos = 0;
    while (pos < length && ++current[pos] == 0) {
      ++pos;
    }
    if (pos == length) {
      break;
    }
  }
  std::stable_sort(all.begin(), all.end(), [](const Candidate& a, const Candidate& b) {
    return a.log_likelihood > b.log_likelihood;
  });
  all.resize(std::min(all.size(), n));
  return all;
}

SingleByteTables RandomTables(size_t length, uint64_t seed) {
  Xoshiro256 rng(seed);
  SingleByteTables tables(length, std::vector<double>(256));
  for (auto& table : tables) {
    for (auto& v : table) {
      v = -rng.UnitDouble() * 10.0;
    }
  }
  return tables;
}

TEST(Algorithm1Test, TopCandidateIsPerPositionArgmax) {
  const auto tables = RandomTables(5, 1);
  const auto candidates = GenerateCandidatesSingle(tables, 1);
  ASSERT_EQ(candidates.size(), 1u);
  for (size_t r = 0; r < 5; ++r) {
    const auto& row = tables[r];
    const uint8_t best = static_cast<uint8_t>(
        std::max_element(row.begin(), row.end()) - row.begin());
    EXPECT_EQ(candidates[0].plaintext[r], best);
  }
}

TEST(Algorithm1Test, OutputSortedDescending) {
  const auto tables = RandomTables(4, 2);
  const auto candidates = GenerateCandidatesSingle(tables, 500);
  for (size_t i = 1; i < candidates.size(); ++i) {
    EXPECT_GE(candidates[i - 1].log_likelihood, candidates[i].log_likelihood);
  }
}

TEST(Algorithm1Test, MatchesBruteForceOnShortLength) {
  const auto tables = RandomTables(2, 3);
  const size_t n = 300;
  const auto got = GenerateCandidatesSingle(tables, n);
  const auto expected = BruteForceSingle(tables, n);
  ASSERT_EQ(got.size(), n);
  for (size_t i = 0; i < n; ++i) {
    // Scores must agree exactly in order (plaintexts can tie-swap).
    ASSERT_NEAR(got[i].log_likelihood, expected[i].log_likelihood, 1e-9) << i;
  }
}

TEST(Algorithm1Test, NoDuplicates) {
  const auto tables = RandomTables(3, 4);
  const auto candidates = GenerateCandidatesSingle(tables, 2000);
  std::map<std::string, int> seen;
  for (const auto& c : candidates) {
    EXPECT_EQ(++seen[PlaintextKey(c)], 1);
  }
}

TEST(Algorithm1Test, ScoresAreConsistentWithPlaintexts) {
  const auto tables = RandomTables(6, 5);
  for (const auto& c : GenerateCandidatesSingle(tables, 100)) {
    double score = 0.0;
    for (size_t r = 0; r < 6; ++r) {
      score += tables[r][c.plaintext[r]];
    }
    EXPECT_NEAR(score, c.log_likelihood, 1e-9);
  }
}

TEST(LazyEnumeratorTest, MatchesAlgorithm1Order) {
  const auto tables = RandomTables(4, 6);
  const size_t n = 1500;
  const auto reference = GenerateCandidatesSingle(tables, n);
  LazyCandidateEnumerator enumerator(tables);
  for (size_t i = 0; i < n; ++i) {
    const Candidate c = enumerator.Next();
    ASSERT_NEAR(c.log_likelihood, reference[i].log_likelihood, 1e-9) << "i=" << i;
  }
  EXPECT_EQ(enumerator.popped(), n);
}

TEST(LazyEnumeratorTest, EmitsEveryCandidateExactlyOnceOnTinySpace) {
  // 2 positions: full space is 65536 candidates; drain it all.
  const auto tables = RandomTables(2, 7);
  LazyCandidateEnumerator enumerator(tables);
  std::map<std::string, int> seen;
  double prev = 1e300;
  for (int i = 0; i < 65536; ++i) {
    const Candidate c = enumerator.Next();
    EXPECT_LE(c.log_likelihood, prev + 1e-12);
    prev = c.log_likelihood;
    EXPECT_EQ(++seen[PlaintextKey(c)], 1);
  }
  EXPECT_EQ(seen.size(), 65536u);
}

TEST(LazyEnumeratorTest, ReportsExhaustionAfterFullSpace) {
  const auto tables = RandomTables(1, 8);
  LazyCandidateEnumerator enumerator(tables);
  for (int i = 0; i < 256; ++i) {
    EXPECT_FALSE(enumerator.Exhausted()) << "i=" << i;
    enumerator.Next();
  }
  EXPECT_TRUE(enumerator.Exhausted());
}

DoubleByteTables RandomTransitions(size_t count, uint64_t seed) {
  Xoshiro256 rng(seed);
  DoubleByteTables tables(count, std::vector<double>(65536));
  for (auto& table : tables) {
    for (auto& v : table) {
      v = -rng.UnitDouble() * 5.0;
    }
  }
  return tables;
}

// Exhaustive N-best over a restricted alphabet for Algorithm 2 validation.
std::vector<Candidate> BruteForceDouble(const DoubleByteTables& transitions,
                                        uint8_t m1, uint8_t m_last,
                                        std::span<const uint8_t> alphabet, size_t n) {
  const size_t inner = transitions.size() - 1;
  std::vector<Candidate> all;
  std::vector<size_t> idx(inner, 0);
  while (true) {
    Candidate c;
    c.plaintext.resize(inner);
    for (size_t t = 0; t < inner; ++t) {
      c.plaintext[t] = alphabet[idx[t]];
    }
    c.log_likelihood =
        transitions[0][static_cast<size_t>(m1) * 256 + c.plaintext[0]];
    for (size_t t = 1; t < inner; ++t) {
      c.log_likelihood +=
          transitions[t][static_cast<size_t>(c.plaintext[t - 1]) * 256 +
                         c.plaintext[t]];
    }
    c.log_likelihood +=
        transitions[inner][static_cast<size_t>(c.plaintext[inner - 1]) * 256 + m_last];
    all.push_back(c);
    size_t pos = 0;
    while (pos < inner && ++idx[pos] == alphabet.size()) {
      idx[pos] = 0;
      ++pos;
    }
    if (pos == inner) {
      break;
    }
  }
  std::stable_sort(all.begin(), all.end(), [](const Candidate& a, const Candidate& b) {
    return a.log_likelihood > b.log_likelihood;
  });
  all.resize(std::min(all.size(), n));
  return all;
}

TEST(Algorithm2Test, MatchesExhaustiveNBest) {
  const std::vector<uint8_t> alphabet = {'a', 'b', 'c', 'd', 'e'};
  const auto transitions = RandomTransitions(4, 8);  // 3 unknown bytes
  const size_t n = 60;
  const auto got = GenerateCandidatesDouble(transitions, 'X', 'Y', n, alphabet);
  const auto expected = BruteForceDouble(transitions, 'X', 'Y', alphabet, n);
  ASSERT_EQ(got.size(), n);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_NEAR(got[i].log_likelihood, expected[i].log_likelihood, 1e-9) << i;
  }
}

TEST(Algorithm2Test, SortedAndUnique) {
  const std::vector<uint8_t> alphabet = {'0', '1', '2', '3', '4', '5', '6', '7'};
  const auto transitions = RandomTransitions(5, 9);
  const auto candidates = GenerateCandidatesDouble(transitions, 'A', 'B', 400, alphabet);
  std::map<std::string, int> seen;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(candidates[i - 1].log_likelihood, candidates[i].log_likelihood);
    }
    EXPECT_EQ(++seen[PlaintextKey(candidates[i])], 1);
  }
}

TEST(Algorithm2Test, RespectsAlphabetRestriction) {
  const std::vector<uint8_t> alphabet = {'x', 'y'};
  const auto transitions = RandomTransitions(6, 10);
  for (const auto& c : GenerateCandidatesDouble(transitions, 'M', 'N', 50, alphabet)) {
    for (uint8_t b : c.plaintext) {
      EXPECT_TRUE(b == 'x' || b == 'y');
    }
  }
}

TEST(Algorithm2Test, ExhaustsSmallSpace) {
  const std::vector<uint8_t> alphabet = {'p', 'q', 'r'};
  const auto transitions = RandomTransitions(3, 11);  // 2 unknown bytes, 9 total
  const auto candidates =
      GenerateCandidatesDouble(transitions, 'U', 'V', 100, alphabet);
  EXPECT_EQ(candidates.size(), 9u);
}

TEST(Algorithm2Test, ScoresMatchPlaintextEvaluation) {
  const std::vector<uint8_t> alphabet = {'a', 'z', '9'};
  const auto transitions = RandomTransitions(4, 12);
  for (const auto& c : GenerateCandidatesDouble(transitions, 'H', 'T', 20, alphabet)) {
    double score = transitions[0][static_cast<size_t>('H') * 256 + c.plaintext[0]];
    for (size_t t = 1; t < c.plaintext.size(); ++t) {
      score += transitions[t][static_cast<size_t>(c.plaintext[t - 1]) * 256 +
                              c.plaintext[t]];
    }
    score += transitions[3][static_cast<size_t>(c.plaintext.back()) * 256 + 'T'];
    EXPECT_NEAR(score, c.log_likelihood, 1e-9);
  }
}

TEST(Algorithm2DeathTest, RejectsBadInputsInEveryBuild) {
  const std::vector<uint8_t> alphabet = {'a', 'b'};
  EXPECT_DEATH(LazyDoubleCandidateEnumerator(RandomTransitions(1, 14), 'S', 'E', alphabet),
               "Algorithm 2: got 1 transition tables, needs at least 2");
  DoubleByteTables short_table = RandomTransitions(3, 15);
  short_table[2].resize(256);
  EXPECT_DEATH(LazyDoubleCandidateEnumerator(short_table, 'S', 'E', alphabet),
               "Algorithm 2: transition table 2 has 256 entries, needs 65536");
  const std::vector<uint8_t> repeated = {'a', 'b', 'a'};
  EXPECT_DEATH(LazyDoubleCandidateEnumerator(RandomTransitions(3, 16), 'S', 'E', repeated),
               "Algorithm 2: the alphabet repeats byte 0x61");
}

}  // namespace
}  // namespace rc4b
