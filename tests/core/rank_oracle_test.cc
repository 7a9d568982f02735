// The windowed rank DPs against the unwindowed ones they replaced
// (tests/core/rank_oracle.h). The floored-bin estimate must agree bit for
// bit, and the rigorous bracket must contain the oracle's floored one, on
// sampled cookie tables, tie-heavy tables, near-uniform TKIP-like rows, best
// and worst truths, and several bin counts.
#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/rank.h"
#include "src/sim/cookie_sim.h"
#include "src/sim/runner.h"
#include "tests/core/rank_oracle.h"

namespace rc4b {
namespace {

void ExpectMatchesOracle(const RankBracket& got, const OracleRankBracket& want,
                         const std::string& label) {
  EXPECT_EQ(std::bit_cast<uint64_t>(got.estimate),
            std::bit_cast<uint64_t>(want.estimate()))
      << label << ": estimate " << got.estimate << " vs " << want.estimate();
  EXPECT_LE(got.lower, want.lower) << label;
  EXPECT_GE(got.upper, want.upper) << label;
}

// Each value drawn by `draw`, one table of `size` entries per step.
template <typename Draw>
std::vector<std::vector<double>> Tables(size_t count, size_t size, Draw draw) {
  std::vector<std::vector<double>> tables(count, std::vector<double>(size));
  for (auto& table : tables) {
    for (auto& v : table) {
      v = draw();
    }
  }
  return tables;
}

// Per-position argmax (best) or argmin (worst) of independent tables.
std::vector<uint8_t> Extreme(const SingleByteTables& tables, bool best) {
  std::vector<uint8_t> out;
  for (const auto& row : tables) {
    const auto it = best ? std::max_element(row.begin(), row.end())
                         : std::min_element(row.begin(), row.end());
    out.push_back(static_cast<uint8_t>(it - row.begin()));
  }
  return out;
}

TEST(RankOracleTest, IndependentRankMatchesOracle) {
  Xoshiro256 rng(2101);
  const double uniform = -std::log(256.0);
  const std::vector<std::pair<std::string, SingleByteTables>> families = {
      {"continuous", Tables(12, 256, [&] { return -rng.UnitDouble() * 8.0; })},
      // Scores on a 1/4 grid: many candidates share every bin.
      {"tie-heavy",
       Tables(12, 256, [&] { return -std::floor(rng.UnitDouble() * 8.0) / 4; })},
      // TKIP-like: every row a slightly perturbed uniform distribution.
      {"near-uniform",
       Tables(12, 256, [&] { return uniform + 1e-3 * (rng.UnitDouble() - 0.5); })},
  };
  for (const auto& [name, tables] : families) {
    std::vector<uint8_t> random(tables.size());
    for (auto& b : random) {
      b = rng.Byte();
    }
    const std::vector<std::pair<std::string, std::vector<uint8_t>>> truths = {
        {"random", random},
        {"best", Extreme(tables, true)},
        {"worst", Extreme(tables, false)}};
    for (const auto& [truth_name, truth] : truths) {
      for (const size_t bins : {size_t{1} << 10, size_t{1} << 12, size_t{1} << 14}) {
        ExpectMatchesOracle(IndependentRank(tables, truth, bins),
                            OracleIndependentRank(tables, truth, bins),
                            name + "/" + truth_name + "/" + std::to_string(bins));
      }
    }
  }
}

TEST(RankOracleTest, MarkovRankMatchesOracleOnSmallAlphabets) {
  Xoshiro256 rng(2102);
  const std::vector<uint8_t> alphabet = {'0', '1', '2', '3', '4', '5', '6', '7',
                                         '8', '9', 'a', 'b', 'c', 'd', 'e', 'f'};
  const std::vector<std::pair<std::string, DoubleByteTables>> families = {
      {"continuous", Tables(7, 65536, [&] { return -rng.UnitDouble() * 4.0; })},
      {"tie-heavy",
       Tables(7, 65536, [&] { return -std::floor(rng.UnitDouble() * 8.0) / 4; })},
  };
  for (const auto& [name, transitions] : families) {
    Bytes random(6);
    for (auto& b : random) {
      b = alphabet[rng.Below(alphabet.size())];
    }
    DoubleByteTables negated = transitions;
    for (auto& table : negated) {
      for (auto& v : table) {
        v = -v;
      }
    }
    const std::vector<std::pair<std::string, Bytes>> truths = {
        {"random", random},
        {"best", MarkovBest(transitions, 'X', 'Y', 6, alphabet)},
        {"worst", MarkovBest(negated, 'X', 'Y', 6, alphabet)}};
    for (const auto& [truth_name, truth] : truths) {
      for (const size_t bins : {size_t{1} << 10, size_t{1} << 12, size_t{1} << 14}) {
        ExpectMatchesOracle(
            MarkovRank(transitions, 'X', 'Y', truth, alphabet, bins),
            OracleMarkovRank(transitions, 'X', 'Y', truth, alphabet, bins),
            name + "/" + truth_name + "/" + std::to_string(bins));
      }
    }
  }
}

TEST(RankOracleTest, MarkovRankMatchesOracleOnFullByteAlphabet) {
  Xoshiro256 rng(2103);
  std::vector<uint8_t> alphabet(256);
  std::iota(alphabet.begin(), alphabet.end(), 0);
  const auto transitions = Tables(4, 65536, [&] { return -rng.UnitDouble() * 4.0; });
  const Bytes truth = {rng.Byte(), rng.Byte(), rng.Byte()};
  ExpectMatchesOracle(MarkovRank(transitions, 'X', 'Y', truth, alphabet, 1 << 10),
                      OracleMarkovRank(transitions, 'X', 'Y', truth, alphabet, 1 << 10),
                      "256 symbols");
}

// Paper-scale tables: 16-character cookies over the 64-symbol alphabet,
// sampled at 3 to 10 x 2^27 requests with the Fig. 10 simulation.
TEST(RankOracleTest, MarkovRankMatchesOracleOnSampledCookies) {
  const sim::CookieSimContext context(sim::CookieSimOptions{});
  const auto& options = context.options();
  const auto& alphabet = context.alphabet();
  for (const uint64_t copies : {3, 5, 7, 10}) {
    Xoshiro256 rng = sim::TrialRng(2104, copies);
    Bytes truth(options.cookie_length);
    for (auto& b : truth) {
      b = alphabet[rng.Below(alphabet.size())];
    }
    const auto transitions =
        sim::SampleCookieTransitions(context, truth, copies << 27, rng);
    ExpectMatchesOracle(
        MarkovRank(transitions, options.m1, options.m_last, truth, alphabet),
        OracleMarkovRank(transitions, options.m1, options.m_last, truth, alphabet),
        std::to_string(copies) + " x 2^27");
  }
}

}  // namespace
}  // namespace rc4b
