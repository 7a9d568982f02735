// Parameterized property sweeps over candidate-list generation: Algorithm 1,
// the lazy enumerator, and Algorithm 2 must agree with exhaustive N-best for
// a range of list sizes, lengths and alphabet sizes, and the lazy Algorithm 2
// stream must equal the eager N-best list candidate for candidate.
#include <algorithm>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/candidates.h"
#include "tests/core/eager_candidates_double.h"

namespace rc4b {
namespace {

SingleByteTables RandomSingleTables(size_t length, uint64_t seed) {
  Xoshiro256 rng(seed);
  SingleByteTables tables(length, std::vector<double>(256));
  for (auto& table : tables) {
    for (auto& v : table) {
      v = -rng.UnitDouble() * 7.0;
    }
  }
  return tables;
}

struct SweepParam {
  size_t length;
  size_t n;
};

class Algorithm1Sweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(Algorithm1Sweep, LazyEnumeratorAgreesWithListAlgorithm) {
  const auto [length, n] = GetParam();
  const auto tables = RandomSingleTables(length, 31 * length + n);
  const auto list = GenerateCandidatesSingle(tables, n);
  LazyCandidateEnumerator enumerator(tables);
  ASSERT_EQ(list.size(), n);
  for (size_t i = 0; i < n; ++i) {
    const Candidate lazy = enumerator.Next();
    ASSERT_NEAR(lazy.log_likelihood, list[i].log_likelihood, 1e-9)
        << "i=" << i << " length=" << length;
  }
}

TEST_P(Algorithm1Sweep, ScoresSortedAndSelfConsistent) {
  const auto [length, n] = GetParam();
  const auto tables = RandomSingleTables(length, 77 * length + n);
  const auto list = GenerateCandidatesSingle(tables, n);
  for (size_t i = 0; i < list.size(); ++i) {
    if (i > 0) {
      ASSERT_GE(list[i - 1].log_likelihood, list[i].log_likelihood);
    }
    double score = 0.0;
    for (size_t r = 0; r < length; ++r) {
      score += tables[r][list[i].plaintext[r]];
    }
    ASSERT_NEAR(score, list[i].log_likelihood, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(LengthsAndSizes, Algorithm1Sweep,
                         ::testing::Values(SweepParam{1, 256}, SweepParam{2, 64},
                                           SweepParam{3, 1000}, SweepParam{8, 512},
                                           SweepParam{12, 2048},
                                           SweepParam{16, 100}));

struct Algo2Param {
  size_t inner;
  size_t alphabet;
  size_t n;
};

class Algorithm2Sweep : public ::testing::TestWithParam<Algo2Param> {};

TEST_P(Algorithm2Sweep, MatchesExhaustiveEnumeration) {
  const auto [inner, alphabet_size, n] = GetParam();
  Xoshiro256 rng(inner * 131 + alphabet_size * 17 + n);
  std::vector<uint8_t> alphabet(alphabet_size);
  for (size_t i = 0; i < alphabet_size; ++i) {
    alphabet[i] = static_cast<uint8_t>('A' + i);
  }
  DoubleByteTables transitions(inner + 1, std::vector<double>(65536));
  for (auto& table : transitions) {
    for (auto& v : table) {
      v = -rng.UnitDouble() * 3.0;
    }
  }
  const auto list = GenerateCandidatesDouble(transitions, 'x', 'y', n, alphabet);

  // Exhaustive reference scores.
  std::vector<double> all_scores;
  std::vector<size_t> idx(inner, 0);
  while (true) {
    double score = transitions[0][static_cast<size_t>('x') * 256 + alphabet[idx[0]]];
    for (size_t t = 1; t < inner; ++t) {
      score += transitions[t][static_cast<size_t>(alphabet[idx[t - 1]]) * 256 +
                              alphabet[idx[t]]];
    }
    score +=
        transitions[inner][static_cast<size_t>(alphabet[idx[inner - 1]]) * 256 + 'y'];
    all_scores.push_back(score);
    size_t pos = 0;
    while (pos < inner && ++idx[pos] == alphabet_size) {
      idx[pos] = 0;
      ++pos;
    }
    if (pos == inner) {
      break;
    }
  }
  std::sort(all_scores.rbegin(), all_scores.rend());

  const size_t expect = std::min(n, all_scores.size());
  ASSERT_EQ(list.size(), expect);
  for (size_t i = 0; i < expect; ++i) {
    ASSERT_NEAR(list[i].log_likelihood, all_scores[i], 1e-9) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, Algorithm2Sweep,
                         ::testing::Values(Algo2Param{1, 8, 10},
                                           Algo2Param{2, 6, 36},
                                           Algo2Param{3, 5, 125},
                                           Algo2Param{4, 4, 50},
                                           Algo2Param{5, 3, 243},
                                           Algo2Param{6, 2, 64}));

struct OracleParam {
  size_t inner;
  size_t alphabet;
  size_t n;
  bool ties;  // 4-valued integer tables: exact score ties everywhere
};

void PrintTo(const OracleParam& p, std::ostream* os) {
  *os << "inner=" << p.inner << " |A|=" << p.alphabet << " n=" << p.n
      << (p.ties ? " ties" : " random");
}

class LazyAlgorithm2Oracle : public ::testing::TestWithParam<OracleParam> {};

// The stream against the eager list it replaced: same plaintexts, bitwise
// equal scores, ties in the same order; every shorter eager list is a prefix
// of the stream; a space smaller than n is drawn out exactly.
TEST_P(LazyAlgorithm2Oracle, StreamEqualsEagerList) {
  const OracleParam p = GetParam();
  Xoshiro256 rng(p.inner * 1009 + p.alphabet * 31 + p.n + (p.ties ? 7 : 0));
  // A random subset of byte values in random order, as the cookie alphabet
  // is neither contiguous nor sorted by likelihood.
  std::vector<uint8_t> values(256);
  std::iota(values.begin(), values.end(), 0);
  for (size_t i = 255; i > 0; --i) {
    std::swap(values[i], values[rng.Below(i + 1)]);
  }
  const std::vector<uint8_t> alphabet(values.begin(), values.begin() + p.alphabet);
  DoubleByteTables transitions(p.inner + 1, std::vector<double>(65536));
  for (auto& table : transitions) {
    for (auto& v : table) {
      v = p.ties ? -static_cast<double>(rng.Below(4)) : -rng.UnitDouble() * 4.0;
    }
  }
  const uint8_t m1 = static_cast<uint8_t>(rng.Below(256));
  const uint8_t m_last = static_cast<uint8_t>(rng.Below(256));

  const auto eager =
      EagerCandidatesDouble(transitions, m1, m_last, p.n, alphabet);
  LazyDoubleCandidateEnumerator stream(transitions, m1, m_last, alphabet);
  std::vector<Candidate> lazy;
  while (lazy.size() < p.n && !stream.Exhausted()) {
    lazy.push_back(stream.Next());
  }
  ASSERT_EQ(lazy.size(), eager.size());
  for (size_t i = 0; i < eager.size(); ++i) {
    ASSERT_EQ(lazy[i].plaintext, eager[i].plaintext) << "i=" << i;
    ASSERT_EQ(lazy[i].log_likelihood, eager[i].log_likelihood) << "i=" << i;
  }

  for (const size_t prefix : {size_t{1}, p.n / 7 + 1, p.n / 2 + 3}) {
    const auto shorter =
        EagerCandidatesDouble(transitions, m1, m_last, prefix, alphabet);
    ASSERT_LE(shorter.size(), lazy.size());
    for (size_t i = 0; i < shorter.size(); ++i) {
      ASSERT_EQ(shorter[i].plaintext, lazy[i].plaintext)
          << "prefix=" << prefix << " i=" << i;
    }
  }

  double space = 1.0;
  for (size_t t = 0; t < p.inner; ++t) {
    space *= static_cast<double>(p.alphabet);
  }
  if (space <= static_cast<double>(p.n)) {
    EXPECT_EQ(lazy.size(), static_cast<size_t>(space));
    EXPECT_TRUE(stream.Exhausted());
    std::set<std::string> distinct;
    for (const Candidate& c : lazy) {
      distinct.emplace(c.plaintext.begin(), c.plaintext.end());
    }
    EXPECT_EQ(distinct.size(), lazy.size());
  } else {
    EXPECT_EQ(lazy.size(), p.n);
    EXPECT_FALSE(stream.Exhausted());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LazyAlgorithm2Oracle,
    ::testing::Values(OracleParam{1, 256, 256, false},      // exhausts
                      OracleParam{1, 2, 4, true},           // exhausts
                      OracleParam{2, 256, 1 << 10, true},
                      OracleParam{3, 256, 1 << 10, false},
                      OracleParam{3, 16, 1 << 15, true},    // exhausts
                      OracleParam{4, 16, 1 << 15, false},
                      OracleParam{12, 16, 1 << 13, false},
                      OracleParam{15, 2, 1 << 15, true},    // exhausts exactly
                      OracleParam{16, 2, 1 << 15, false},
                      OracleParam{8, 64, 1 << 12, false},
                      OracleParam{6, 64, 1 << 12, true},
                      OracleParam{16, 64, 1 << 11, true}));

}  // namespace
}  // namespace rc4b
