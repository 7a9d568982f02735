// The Walsh–Hadamard likelihood path against the direct XOR-correlation it
// replaced (tests/core/xor_correlate_oracle.h). Every cell must agree within
// a relative 1e-12 * sum_c |w[c] * log p[c ^ mu]| and every table must have
// the oracle's argmax, on realistic rows, zero-heavy count rows, rows with
// kMinProbability-floored cells, a uniform model, and full TKIP trailer
// tables from a captured frame stream.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/likelihood.h"
#include "src/core/synthetic.h"
#include "src/sim/tkip_sim.h"
#include "src/tkip/attack.h"
#include "tests/core/xor_correlate_oracle.h"

namespace rc4b {
namespace {

constexpr double kRelativeTolerance = 1e-12;

// One correlation's terms: weights[c] against log_p[c ^ mu].
struct Term {
  std::vector<double> weights;
  std::vector<double> log_p;
};

// Checks `got` against sum over `terms` of XorCorrelate256, cell by cell,
// and the argmax.
void ExpectMatchesOracle(std::span<const double> got,
                         const std::vector<Term>& terms,
                         const std::string& label) {
  ASSERT_EQ(got.size(), 256u) << label;
  std::vector<double> want(256, 0.0);
  std::vector<double> scale(256, 0.0);
  for (const Term& term : terms) {
    XorCorrelate256(term.weights.data(), term.log_p.data(), want.data());
    std::vector<double> abs_weights(256), abs_log_p(256);
    for (size_t c = 0; c < 256; ++c) {
      abs_weights[c] = std::abs(term.weights[c]);
      abs_log_p[c] = std::abs(term.log_p[c]);
    }
    XorCorrelate256(abs_weights.data(), abs_log_p.data(), scale.data());
  }
  for (size_t mu = 0; mu < 256; ++mu) {
    EXPECT_NEAR(got[mu], want[mu], kRelativeTolerance * scale[mu])
        << label << ": mu=" << mu;
  }
  EXPECT_EQ(ArgMax(got), ArgMax(want)) << label;
}

std::vector<double> ToDoubles(std::span<const uint64_t> counts) {
  return std::vector<double>(counts.begin(), counts.end());
}

// The 256 per-TSC1 correlations summed into the trailer table at `pos`.
std::vector<Term> TkipTerms(const TkipCaptureStats& stats, const TkipTscModel& model,
                            size_t pos) {
  std::vector<Term> terms;
  for (int tsc1 = 0; tsc1 < 256; ++tsc1) {
    const auto t = static_cast<uint8_t>(tsc1);
    const double* log_row = model.LogRow(t, pos);
    terms.push_back({ToDoubles({stats.Row(t, pos), 256}),
                     std::vector<double>(log_row, log_row + 256)});
  }
  return terms;
}

// A TKIP-like keystream row: uniform up to a few percent of relative noise.
std::vector<double> RealisticLogRow(Xoshiro256& rng) {
  std::vector<double> p(256);
  for (auto& value : p) {
    value = (1.0 + 0.05 * (rng.UnitDouble() - 0.5)) / 256.0;
  }
  return LogProbabilities(p);
}

// Multinomial-like counts of `plain` XOR keystream, about `mean` per cell.
std::vector<uint64_t> CountsFor(const std::vector<double>& log_p, uint8_t plain,
                                double mean, Xoshiro256& rng) {
  std::vector<uint64_t> counts(256);
  for (size_t c = 0; c < 256; ++c) {
    counts[c] = SamplePoisson(mean * 256.0 * std::exp(log_p[c ^ plain]), rng);
  }
  return counts;
}

TEST(WalshHadamardTest, MatchesTheSignMatrix) {
  // H[k][j] = (-1)^popcount(k & j), so H applied to e_j is column j.
  for (size_t j : {0u, 1u, 2u, 3u, 17u, 128u, 200u, 255u}) {
    double a[256] = {};
    a[j] = 1.0;
    WalshHadamard256(a);
    for (size_t k = 0; k < 256; ++k) {
      const double sign = std::popcount(k & j) % 2 == 0 ? 1.0 : -1.0;
      ASSERT_EQ(a[k], sign) << "j=" << j << " k=" << k;
    }
  }
}

TEST(WalshHadamardTest, AppliedTwiceScalesBy256) {
  Xoshiro256 rng(7);
  double a[256];
  double original[256];
  for (size_t i = 0; i < 256; ++i) {
    original[i] = a[i] = static_cast<double>(rng() & 0xffff);
  }
  WalshHadamard256(a);
  WalshHadamard256(a);
  for (size_t i = 0; i < 256; ++i) {
    ASSERT_EQ(a[i], 256.0 * original[i]) << "i=" << i;  // integers: exact
  }
}

TEST(LikelihoodTransformTest, SingleByteRealisticRows) {
  Xoshiro256 rng(11);
  for (int trial = 0; trial < 32; ++trial) {
    const auto log_p = RealisticLogRow(rng);
    const auto counts = CountsFor(log_p, rng.Byte(), 4096.0, rng);
    ExpectMatchesOracle(SingleByteLogLikelihood(counts, log_p),
                        {{ToDoubles(counts), log_p}}, "trial " + std::to_string(trial));
  }
}

TEST(LikelihoodTransformTest, SingleByteZeroHeavyCounts) {
  Xoshiro256 rng(12);
  for (int trial = 0; trial < 32; ++trial) {
    const auto log_p = RealisticLogRow(rng);
    std::vector<uint64_t> counts(256, 0);
    // 1 to 4 nonzero cells; trial 0 keeps an all-zero row.
    for (int k = 0; k < trial % 5; ++k) {
      counts[rng.Byte()] += 1 + (rng() & 0xff);
    }
    ExpectMatchesOracle(SingleByteLogLikelihood(counts, log_p),
                        {{ToDoubles(counts), log_p}}, "trial " + std::to_string(trial));
  }
}

TEST(LikelihoodTransformTest, SingleByteFlooredCells) {
  // Zero-probability cells floor at log(kMinProbability) ~ -27.6, two orders
  // of magnitude below the live cells, and land under nonzero counts.
  Xoshiro256 rng(13);
  for (int trial = 0; trial < 32; ++trial) {
    std::vector<double> p(256);
    for (auto& value : p) {
      value = rng.UnitDouble() < 0.25 ? 0.0 : 1.0 / 192.0;
    }
    const auto log_p = LogProbabilities(p);
    ASSERT_NEAR(*std::min_element(log_p.begin(), log_p.end()),
                std::log(kMinProbability), 1e-9);
    std::vector<uint64_t> counts(256);
    for (auto& c : counts) {
      c = rng() & 0x3ff;
    }
    ExpectMatchesOracle(SingleByteLogLikelihood(counts, log_p),
                        {{ToDoubles(counts), log_p}}, "trial " + std::to_string(trial));
  }
}

TEST(LikelihoodTransformTest, SingleByteUniformModel) {
  // Every plaintext is equally likely: the oracle's cells are equal bit for
  // bit (argmax 0), and the transform's must be too.
  const auto log_p = LogProbabilities(std::vector<double>(256, 1.0 / 256.0));
  Xoshiro256 rng(14);
  std::vector<uint64_t> counts(256);
  for (auto& c : counts) {
    c = rng() & 0xfff;
  }
  const auto lambda = SingleByteLogLikelihood(counts, log_p);
  ExpectMatchesOracle(lambda, {{ToDoubles(counts), log_p}}, "uniform");
  for (size_t mu = 1; mu < 256; ++mu) {
    EXPECT_EQ(lambda[mu], lambda[0]) << "mu=" << mu;
  }
}

TEST(LikelihoodTransformTest, TkipUniformModel) {
  // Uniform rows: every table is flat, whatever was captured.
  const size_t first = 56, last = 67;
  TkipTscModel model(first, last);
  const auto uniform = std::vector<double>(256, 1.0 / 256.0);
  for (int tsc1 = 0; tsc1 < 256; ++tsc1) {
    for (size_t pos = first; pos <= last; ++pos) {
      model.SetRow(static_cast<uint8_t>(tsc1), pos, uniform);
    }
  }
  TkipCaptureStats stats(first, last);
  Xoshiro256 rng(15);
  for (int i = 0; i < 4096; ++i) {
    TkipFrame frame;
    frame.tsc = rng() & 0xffff;
    frame.ciphertext.resize(last);
    rng.Fill(frame.ciphertext);
    ASSERT_TRUE(stats.AddFrame(frame));
  }
  const auto tables = TkipTrailerLikelihoods(stats, model);
  ASSERT_EQ(tables.size(), last - first + 1);
  for (size_t p = 0; p < tables.size(); ++p) {
    ExpectMatchesOracle(tables[p], TkipTerms(stats, model, first + p),
                        "position " + std::to_string(p));
    for (size_t mu = 1; mu < 256; ++mu) {
      EXPECT_EQ(tables[p][mu], tables[p][0]) << "position " << p << " mu=" << mu;
    }
  }
}

TEST(LikelihoodTransformTest, TkipTablesFromCapturedFrames) {
  // The full 12-position trailer tables: a generated per-TSC1 model, shrunk
  // toward uniform as the Fig. 8 bench does, and 2^16 frames from the
  // perfect-model victim.
  const Bytes msdu = sim::InjectedPacket();
  const size_t first = msdu.size() + 1;
  const size_t last = msdu.size() + kTkipTrailerSize;
  TkipTscModel model(first, last);
  model.Generate(1024, 3, 2);
  model.ShrinkTowardUniform(0.25);

  Xoshiro256 rng(16);
  const TkipPeer peer = sim::RandomPeer(rng);
  const Bytes trailer = TkipTrailer(peer, msdu);
  sim::TrailerFrameSource source(model, /*oracle=*/true, peer, msdu, trailer,
                                 rng() & 0xffffffff, rng());
  TkipCaptureStats stats(first, last);
  for (int i = 0; i < (1 << 16); ++i) {
    ASSERT_TRUE(stats.AddFrame(source.NextFrame()));
  }

  const auto tables = TkipTrailerLikelihoods(stats, model);
  ASSERT_EQ(tables.size(), kTkipTrailerSize);
  for (size_t p = 0; p < kTkipTrailerSize; ++p) {
    ExpectMatchesOracle(tables[p], TkipTerms(stats, model, first + p),
                        "position " + std::to_string(p));
  }
}

}  // namespace
}  // namespace rc4b
