#include "src/recovery/engine.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/common/rng.h"

namespace rc4b::recovery {
namespace {

SingleByteTables RandomTables(size_t length, uint64_t seed) {
  Xoshiro256 rng(seed);
  SingleByteTables tables(length, std::vector<double>(256));
  for (auto& row : tables) {
    for (double& cell : row) {
      cell = -rng.UnitDouble();
    }
  }
  return tables;
}

TEST(RecoveryEngineTest, EmptyTablesYieldEmptyResult) {
  const RecoveryEngine engine(RecoveryOptions{});
  const auto result =
      engine.RecoverSingle(SingleByteTables{}, [](const Bytes&) { return true; });
  EXPECT_FALSE(result.found);
  EXPECT_EQ(result.candidates_tried, 0u);
}

TEST(RecoveryEngineTest, SingleTraversalMatchesAlgorithm1Ordering) {
  // The engine's traversal must visit candidates in exactly Algorithm 1's
  // decreasing-likelihood order: collect them with a spy predicate and
  // compare against the materialized N-best list.
  const auto tables = RandomTables(3, 17);
  const size_t n = 64;
  RecoveryOptions options;
  options.max_candidates = n;
  const RecoveryEngine engine(std::move(options));

  std::vector<Bytes> visited;
  const auto result = engine.RecoverSingle(tables, [&](const Bytes& candidate) {
    visited.push_back(candidate);
    return false;
  });
  EXPECT_FALSE(result.found);
  EXPECT_EQ(result.candidates_tried, n);

  const auto expected = GenerateCandidatesSingle(tables, n);
  ASSERT_EQ(visited.size(), expected.size());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(visited[i], expected[i].plaintext) << "candidate " << i;
  }
}

TEST(RecoveryEngineTest, SingleStopsAtFirstAcceptedCandidate) {
  const auto tables = RandomTables(2, 5);
  const auto expected = GenerateCandidatesSingle(tables, 8);
  RecoveryOptions options;
  options.max_candidates = 1 << 10;
  options.truth = expected[4].plaintext;
  const RecoveryEngine engine(std::move(options));

  uint64_t calls = 0;
  const auto result = engine.RecoverSingle(tables, [&](const Bytes&) {
    return ++calls == 5;  // accept the 5th candidate
  });
  ASSERT_TRUE(result.found);
  EXPECT_TRUE(result.correct);
  EXPECT_EQ(result.candidates_tried, 5u);
  EXPECT_EQ(result.plaintext, expected[4].plaintext);
  EXPECT_DOUBLE_EQ(result.log_likelihood, expected[4].log_likelihood);
}

TEST(RecoveryEngineTest, CorrectRequiresMatchingTruth) {
  const auto tables = RandomTables(2, 6);
  const auto expected = GenerateCandidatesSingle(tables, 2);
  RecoveryOptions options;
  options.max_candidates = 4;
  options.truth = expected[1].plaintext;  // truth is the runner-up
  const RecoveryEngine engine(std::move(options));
  const auto result =
      engine.RecoverSingle(tables, [](const Bytes&) { return true; });
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.plaintext, expected[0].plaintext);
  EXPECT_FALSE(result.correct);
}

TEST(RecoveryEngineTest, SingleExhaustsTheCandidateSpace) {
  // One position: exactly 256 candidates exist; a larger budget must stop at
  // exhaustion and report the true count tried.
  const auto tables = RandomTables(1, 9);
  RecoveryOptions options;
  options.max_candidates = 1 << 20;
  const RecoveryEngine engine(std::move(options));
  const auto result =
      engine.RecoverSingle(tables, [](const Bytes&) { return false; });
  EXPECT_FALSE(result.found);
  EXPECT_EQ(result.candidates_tried, 256u);
}

TEST(RecoveryEngineTest, DoubleTraversalMatchesAlgorithm2Ordering) {
  Xoshiro256 rng(23);
  DoubleByteTables transitions(4, std::vector<double>(65536));
  for (auto& table : transitions) {
    for (double& cell : table) {
      cell = -rng.UnitDouble();
    }
  }
  const std::vector<uint8_t> alphabet = {'a', 'b', 'c', 'd'};
  const PairBoundary boundary{'=', ';'};
  const size_t n = 32;
  RecoveryOptions options;
  options.max_candidates = n;
  const RecoveryEngine engine(std::move(options));

  std::vector<Bytes> visited;
  const auto result = engine.RecoverDouble(
      transitions, boundary, alphabet, [&](const Bytes& candidate) {
        visited.push_back(candidate);
        return false;
      });
  EXPECT_FALSE(result.found);
  EXPECT_EQ(result.candidates_tried, n);

  const auto expected = GenerateCandidatesDouble(transitions, boundary.m1,
                                                 boundary.m_last, n, alphabet);
  ASSERT_EQ(visited.size(), expected.size());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(visited[i], expected[i].plaintext) << "candidate " << i;
  }
}

TEST(RecoveryEngineTest, DoubleRejectsDegenerateTables) {
  const RecoveryEngine engine(RecoveryOptions{});
  const auto result =
      engine.RecoverDouble(DoubleByteTables(1), PairBoundary{}, {},
                           [](const Bytes&) { return true; });
  EXPECT_FALSE(result.found);
  EXPECT_EQ(result.candidates_tried, 0u);
}

}  // namespace
}  // namespace rc4b::recovery
