#include "src/engine/keystream_engine.h"

#include <gtest/gtest.h>

#include "src/biases/bias_scan.h"
#include "src/engine/accumulators.h"
#include "src/store/grid_cache.h"

namespace rc4b {
namespace {

// The engine's core guarantee: key k is key number k of one AES-CTR stream
// regardless of sharding, so merged counters are bit-identical for any
// worker count. These tests pin that with deterministic seeds.

EngineOptions Options(uint64_t keys, unsigned workers, uint64_t seed) {
  EngineOptions options;
  options.keys = keys;
  options.workers = workers;
  options.seed = seed;
  return options;
}

SingleByteGrid RunSingleByte(size_t positions, const EngineOptions& options) {
  SingleByteAccumulator accumulator(positions);
  RunKeystreamEngine(options, accumulator);
  return accumulator.TakeGrid();
}

DigraphGrid RunConsecutive(size_t positions, const EngineOptions& options) {
  ConsecutiveAccumulator accumulator(positions);
  RunKeystreamEngine(options, accumulator);
  return accumulator.TakeGrid();
}

void ExpectGridsEqual(const SingleByteGrid& a, const SingleByteGrid& b) {
  ASSERT_EQ(a.positions(), b.positions());
  ASSERT_EQ(a.keys(), b.keys());
  for (size_t pos = 0; pos < a.positions(); ++pos) {
    for (int v = 0; v < 256; ++v) {
      ASSERT_EQ(a.Count(pos, static_cast<uint8_t>(v)),
                b.Count(pos, static_cast<uint8_t>(v)))
          << "pos=" << pos << " v=" << v;
    }
  }
}

void ExpectGridsEqual(const DigraphGrid& a, const DigraphGrid& b) {
  ASSERT_EQ(a.positions(), b.positions());
  ASSERT_EQ(a.keys(), b.keys());
  for (size_t pos = 0; pos < a.positions(); ++pos) {
    const auto row_a = a.Row(pos);
    const auto row_b = b.Row(pos);
    for (size_t cell = 0; cell < row_a.size(); ++cell) {
      ASSERT_EQ(row_a[cell], row_b[cell]) << "pos=" << pos << " cell=" << cell;
    }
  }
}

TEST(KeystreamEngineTest, SingleByteShardingIsBitExact) {
  // 20001 keys do not divide evenly into 4 or 7 shards; counts must still
  // match the single-shard reference exactly.
  const auto reference = RunSingleByte(8, Options(20001, 1, 3));
  ExpectGridsEqual(reference, RunSingleByte(8, Options(20001, 4, 3)));
  ExpectGridsEqual(reference, RunSingleByte(8, Options(20001, 7, 3)));
}

TEST(KeystreamEngineTest, ConsecutiveShardingIsBitExact) {
  const auto reference = RunConsecutive(4, Options(6007, 1, 5));
  ExpectGridsEqual(reference, RunConsecutive(4, Options(6007, 3, 5)));
}

TEST(KeystreamEngineTest, PairShardingIsBitExact) {
  const std::vector<std::pair<uint32_t, uint32_t>> pairs = {{1, 2}, {3, 16}};
  PairAccumulator single(pairs);
  RunKeystreamEngine(Options(5000, 1, 7), single);
  PairAccumulator sharded(pairs);
  RunKeystreamEngine(Options(5000, 5, 7), sharded);
  ExpectGridsEqual(single.grid(), sharded.grid());
}

TEST(KeystreamEngineTest, BatchSizeDoesNotChangeCounts) {
  EngineOptions options = Options(4096, 2, 9);
  options.batch_keys = 1;
  const auto one = RunSingleByte(4, options);
  options.batch_keys = 64;
  const auto sixty_four = RunSingleByte(4, options);
  options.batch_keys = 333;
  const auto uneven = RunSingleByte(4, options);
  ExpectGridsEqual(one, sixty_four);
  ExpectGridsEqual(one, uneven);
}

TEST(KeystreamEngineTest, DropShiftsKeystreamPositions) {
  // With drop=2, engine position 0 is Z_3: its counts must equal position 2
  // of a no-drop run over the same keys.
  EngineOptions options = Options(4096, 2, 11);
  const auto plain = RunSingleByte(4, options);
  options.drop = 2;
  const auto dropped = RunSingleByte(2, options);
  for (int v = 0; v < 256; ++v) {
    ASSERT_EQ(dropped.Count(0, static_cast<uint8_t>(v)),
              plain.Count(2, static_cast<uint8_t>(v)));
    ASSERT_EQ(dropped.Count(1, static_cast<uint8_t>(v)),
              plain.Count(3, static_cast<uint8_t>(v)));
  }
}

TEST(KeystreamEngineTest, StoredGridsRideTheEngine) {
  // A grid the store generates from its GridMeta must be the engine
  // verbatim: same seed, same counts, independent of each side's worker
  // count.
  store::GridMeta meta;
  meta.kind = store::GridKind::kSingleByte;
  meta.seed = 13;
  meta.key_end = 5000;
  meta.rows = 6;
  const auto wrapped = store::ToSingleByteGrid(store::LoadOrGenerateGrid(meta, 3, ""));
  const auto direct = RunSingleByte(6, Options(5000, 1, 13));
  ExpectGridsEqual(wrapped, direct);
}

TEST(KeystreamEngineTest, EngineScansDetectKnownBiases) {
  // The scans over engine-generated grids: Z2 (Mantin–Shamir) must be
  // flagged biased and (Z1, Z2) dependent; 2^17 keys give >20-sigma signals.
  const auto single = ScanSingleBytes(RunSingleByte(4, Options(1 << 17, 0, 2)));
  ASSERT_EQ(single.size(), 4u);
  EXPECT_TRUE(single[1].biased) << "Z2 p_adj=" << single[1].p_adjusted;
  EXPECT_FALSE(single[2].biased);

  const auto pairs = ScanPairDependence(RunConsecutive(2, Options(1 << 17, 0, 2)));
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_TRUE(pairs[0].dependent) << "(Z1,Z2) p_adj=" << pairs[0].p_adjusted;
}

TEST(LongTermEngineTest, StreamingShardingIsBitExact) {
  LongTermEngineOptions options;
  options.keys = 6;
  options.bytes_per_key = 1 << 14;
  options.drop = 1024;
  options.seed = 17;

  options.workers = 1;
  LongTermDigraphAccumulator single;
  RunLongTermEngine(options, single);
  options.workers = 4;
  LongTermDigraphAccumulator sharded;
  RunLongTermEngine(options, sharded);
  ExpectGridsEqual(single.grid(), sharded.grid());

  options.workers = 1;
  AbsabAccumulator absab_single(6);
  RunLongTermEngine(options, absab_single);
  options.workers = 3;
  AbsabAccumulator absab_sharded(6);
  RunLongTermEngine(options, absab_sharded);
  EXPECT_EQ(absab_single.matches(), absab_sharded.matches());
  EXPECT_EQ(absab_single.samples(), absab_sharded.samples());

  options.workers = 1;
  AlignedPairAccumulator aligned_single(0, 2);
  RunLongTermEngine(options, aligned_single);
  options.workers = 4;
  AlignedPairAccumulator aligned_sharded(0, 2);
  RunLongTermEngine(options, aligned_sharded);
  EXPECT_EQ(aligned_single.counts(), aligned_sharded.counts());
}

// Accumulator invariants hold in every build type, not only under assert:
// a pair at position 0 would read keystream[0xFFFFFFFF].
TEST(AccumulatorDeathTest, PairAccumulatorRejectsBadPairs) {
  using Pairs = std::vector<std::pair<uint32_t, uint32_t>>;
  EXPECT_DEATH(PairAccumulator(Pairs{{0, 2}}), "pair \\(0, 2\\)");
  EXPECT_DEATH(PairAccumulator(Pairs{{3, 3}}), "pair \\(3, 3\\)");
  EXPECT_DEATH(PairAccumulator(Pairs{{1, 2}}, DigraphGrid(2)),
               "2 grid rows for 1 pairs");
}

TEST(AccumulatorDeathTest, AlignedPairAccumulatorRejectsBadOffsets) {
  EXPECT_DEATH(AlignedPairAccumulator(2, 2), "offsets \\(2, 2\\)");
  EXPECT_DEATH(AlignedPairAccumulator(3, 1), "offsets \\(3, 1\\)");
  EXPECT_DEATH(AlignedPairAccumulator(0, 256), "offsets \\(0, 256\\)");
}

}  // namespace
}  // namespace rc4b
