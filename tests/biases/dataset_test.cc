#include "src/biases/dataset.h"

#include <cmath>

#include <gtest/gtest.h>

#include "src/engine/accumulators.h"
#include "src/rc4/keygen.h"
#include "src/rc4/rc4.h"
#include "src/store/grid_cache.h"

namespace rc4b {
namespace {

// Grid datasets are described by a GridMeta and generated by the store.
store::StoredGrid Generate(store::GridKind kind, uint64_t rows, uint64_t keys,
                           uint64_t seed) {
  store::GridMeta meta;
  meta.kind = kind;
  meta.seed = seed;
  meta.key_end = keys;
  meta.rows = rows;
  return store::LoadOrGenerateGrid(meta, 4, "");
}

SingleByteGrid SingleByte(size_t positions, uint64_t keys, uint64_t seed) {
  return store::ToSingleByteGrid(
      Generate(store::GridKind::kSingleByte, positions, keys, seed));
}

DigraphGrid Consecutive(size_t positions, uint64_t keys, uint64_t seed) {
  return store::ToDigraphGrid(
      Generate(store::GridKind::kConsecutive, positions, keys, seed));
}

TEST(DatasetTest, SingleByteGridTotalsAndKeys) {
  const auto grid = SingleByte(8, 1 << 12, 1);
  EXPECT_EQ(grid.keys(), uint64_t{1} << 12);
  for (size_t pos = 0; pos < 8; ++pos) {
    uint64_t total = 0;
    for (uint64_t c : grid.Row(pos)) {
      total += c;
    }
    EXPECT_EQ(total, grid.keys()) << "pos " << pos;
  }
}

TEST(DatasetTest, SingleByteDetectsMantinShamirBias) {
  // 2^17 keys suffice for a >20-sigma Z2=0 signal.
  const auto grid = SingleByte(4, 1 << 17, 2);
  const double p = grid.Probability(1, 0);  // position index 1 = Z2
  EXPECT_GT(p, 1.7 / 256.0);
  EXPECT_LT(p, 2.3 / 256.0);
}

TEST(DatasetTest, SingleByteDetectsPositionValueBias) {
  // The r-bias: Pr[Z_r = r] is elevated for small r (AlFardan/Isobe). At
  // 2^19 keys each position's signal is noisy (bias ~ 2^-8 relative, noise
  // ~ 2^-5.5), so test the *pooled* deviation across positions 3..16, which
  // is a clean multi-sigma signal.
  const auto grid = SingleByte(16, 1 << 19, 3);
  double pooled = 0.0;
  int positions = 0;
  for (size_t r = 3; r <= 16; ++r) {
    pooled += grid.Probability(r - 1, static_cast<uint8_t>(r)) - 1.0 / 256.0;
    ++positions;
  }
  // Mean elevation per position must be positive and of plausible magnitude.
  const double mean_elevation = pooled / positions;
  EXPECT_GT(mean_elevation, 0.0);
  EXPECT_LT(mean_elevation, 0.01);
}

TEST(DatasetTest, DeterministicAcrossRuns) {
  const auto a = SingleByte(4, 1 << 10, 7);
  const auto b = SingleByte(4, 1 << 10, 7);
  for (size_t pos = 0; pos < 4; ++pos) {
    for (int v = 0; v < 256; ++v) {
      ASSERT_EQ(a.Count(pos, static_cast<uint8_t>(v)),
                b.Count(pos, static_cast<uint8_t>(v)));
    }
  }
}

TEST(DatasetTest, ConsecutiveGridMarginalsMatchSingleByte) {
  const uint64_t keys = 1 << 14;
  const auto digraph = Consecutive(4, keys, 5);
  const auto single = SingleByte(5, keys, 5);
  // Same seed => same keys => marginal of (Z_r, Z_{r+1}) over the second byte
  // equals the single-byte counts at r exactly.
  for (size_t pos = 0; pos < 4; ++pos) {
    for (int v = 0; v < 256; ++v) {
      uint64_t marginal = 0;
      for (int y = 0; y < 256; ++y) {
        marginal += digraph.Count(pos, static_cast<uint8_t>(v), static_cast<uint8_t>(y));
      }
      ASSERT_EQ(marginal, single.Count(pos, static_cast<uint8_t>(v)))
          << "pos=" << pos << " v=" << v;
    }
  }
}

TEST(DatasetTest, PairDatasetMatchesConsecutiveForAdjacentPairs) {
  const uint64_t keys = 1 << 12;
  const auto consecutive = Consecutive(3, keys, 9);
  store::GridMeta meta;
  meta.kind = store::GridKind::kPair;
  meta.seed = 9;
  meta.key_end = keys;
  meta.rows = 2;
  meta.pairs = {{1, 2}, {2, 3}};
  const auto pairs = store::ToDigraphGrid(store::LoadOrGenerateGrid(meta, 4, ""));
  for (int x = 0; x < 256; ++x) {
    for (int y = 0; y < 256; ++y) {
      ASSERT_EQ(pairs.Count(0, static_cast<uint8_t>(x), static_cast<uint8_t>(y)),
                consecutive.Count(0, static_cast<uint8_t>(x), static_cast<uint8_t>(y)));
      ASSERT_EQ(pairs.Count(1, static_cast<uint8_t>(x), static_cast<uint8_t>(y)),
                consecutive.Count(1, static_cast<uint8_t>(x), static_cast<uint8_t>(y)));
    }
  }
}

TEST(DatasetTest, LongTermDatasetStructure) {
  // Verifying the 2^-8 Fluhrer–McGrew magnitudes needs ~2^38 digraph samples
  // (the Table 1 bench's job); here we validate the generator's bookkeeping:
  // per-row totals, key accounting, and determinism.
  store::GridMeta meta;
  meta.kind = store::GridKind::kLongTermDigraph;
  meta.seed = 11;
  meta.key_end = 8;
  meta.rows = 256;
  meta.drop = 1024;
  meta.bytes_per_key = 1 << 16;
  const auto grid = store::ToDigraphGrid(store::LoadOrGenerateGrid(meta, 4, ""));
  EXPECT_EQ(grid.keys(), 8u * ((1 << 16) / 256));
  for (size_t row = 0; row < 256; row += 37) {
    uint64_t total = 0;
    for (uint64_t c : grid.Row(row)) {
      total += c;
    }
    EXPECT_EQ(total, grid.keys()) << "row " << row;
  }
  const auto again = store::ToDigraphGrid(store::LoadOrGenerateGrid(meta, 4, ""));
  EXPECT_EQ(again.Count(7, 0, 0), grid.Count(7, 0, 0));
  EXPECT_EQ(again.Count(200, 255, 201), grid.Count(200, 255, 201));
}

TEST(DatasetTest, AbsabAccumulatorBookkeeping) {
  // The ABSAB match rate sits within noise of 2^-16 at unit-test scale
  // (detecting the 2^-8-relative bias is the absab-gap bench's job); check
  // the counting machinery: sample totals, plausible rates, determinism.
  LongTermEngineOptions options;
  options.keys = 8;
  options.bytes_per_key = 1 << 20;
  options.workers = 4;
  options.seed = 13;
  AbsabAccumulator counts(8);
  RunLongTermEngine(options, counts);
  ASSERT_EQ(counts.matches().size(), 9u);
  EXPECT_EQ(counts.samples(), 8u << 20);
  for (uint64_t g = 0; g <= 8; ++g) {
    const double rate = static_cast<double>(counts.matches()[g]) /
                        static_cast<double>(counts.samples());
    // Within 10 sigma of uniform (sigma ~ 2^-16 / sqrt(counts)).
    EXPECT_NEAR(rate, 0x1.0p-16, 10 * std::sqrt(0x1.0p-16 / (8.0 * (1 << 20))))
        << "gap " << g;
  }
  AbsabAccumulator again(8);
  RunLongTermEngine(options, again);
  EXPECT_EQ(again.matches(), counts.matches());
}

TEST(DatasetTest, AlignedPairDatasetTotals) {
  LongTermEngineOptions options;
  options.keys = 4;
  options.bytes_per_key = 1 << 16;
  options.workers = 2;
  options.seed = 17;
  const auto counts = GenerateAlignedPairDataset(0, 2, options);
  uint64_t total = 0;
  for (uint64_t c : counts) {
    total += c;
  }
  EXPECT_EQ(total, options.keys * (options.bytes_per_key / 256));
}

TEST(DatasetTest, AlignedPairsCountPaperBlocks) {
  // Counted straight from scalar Rc4 streams, 1-based like the paper: with
  // drop a multiple of 256, the first owned block starts at Z_{drop+256}.
  LongTermEngineOptions options;
  options.keys = 3;
  options.bytes_per_key = 5 * 256 + 17;  // rounds down to 5 blocks
  options.drop = 512;
  options.workers = 2;
  options.seed = 41;
  const uint32_t a = 1;
  const uint32_t b = 200;
  std::vector<uint64_t> want(65536, 0);
  Rc4KeyGenerator keygen(options.seed);
  std::vector<uint8_t> z(options.drop + 7 * 256);  // z[i - 1] = Z_i
  for (uint64_t k = 0; k < options.keys; ++k) {
    Rc4 rc4(keygen.NextKey());
    rc4.Keystream(z);
    for (uint64_t w = options.drop + 256; w < options.drop + 6 * 256; w += 256) {
      want[static_cast<size_t>(z[w + a - 1]) * 256 + z[w + b - 1]] += 1;
    }
  }
  EXPECT_EQ(GenerateAlignedPairDataset(a, b, options), want);
}

TEST(DatasetDeathTest, AlignedPairsNeedDropOnTheBlockGrid) {
  // Any other drop mislabels every block; checked in every build type.
  LongTermEngineOptions options;
  options.keys = 1;
  options.bytes_per_key = 256;
  options.drop = 0;
  EXPECT_DEATH(GenerateAlignedPairDataset(0, 2, options), "drop 0 is not");
  options.drop = 1000;
  EXPECT_DEATH(GenerateAlignedPairDataset(0, 2, options), "drop 1000 is not");
}

}  // namespace
}  // namespace rc4b
