#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/engine/accumulators.h"
#include "src/engine/keystream_engine.h"
#include "src/rc4/keygen.h"
#include "src/rc4/rc4.h"
#include "src/rc4/rc4_multi.h"

namespace rc4b {
namespace {

// Engine-level bit-exactness of the lockstep lane kernel, for 1/2/4 workers,
// tail groups (keys % kLaneWidth != 0) and nonzero drop. Short-term grids
// must equal the scalar reference path (interleave = 1); long-term counts
// must equal an oracle that feeds each key's whole scalar Rc4 stream to the
// sink as one window. This is the golden-output guarantee that lets the
// kernel be the only long-term producer and the default short-term one.

constexpr unsigned kWorkerCounts[] = {1, 2, 4};
// Key and batch counts that leave one-lane tails after the lockstep groups.
constexpr uint64_t kShortTermKeys = 1037;
constexpr size_t kBatchKeys = 45;
static_assert(kShortTermKeys % kLaneWidth != 0 && kBatchKeys % kLaneWidth != 0);

// interleave: 0 = the lane kernel, 1 = the scalar reference path.
EngineOptions ShortTermOptions(size_t interleave, unsigned workers) {
  EngineOptions options;
  options.keys = kShortTermKeys;
  options.workers = workers;
  options.seed = 23;
  options.drop = 3;
  options.batch_keys = kBatchKeys;
  options.interleave = interleave;
  return options;
}

// Runs the lane kernel at each worker count and the scalar path on one
// worker, and compares the grids.
template <typename Accumulator, typename Make>
void ExpectShortTermMatches(Make make) {
  Accumulator reference = make();
  RunKeystreamEngine(ShortTermOptions(1, 1), reference);
  for (const unsigned workers : kWorkerCounts) {
    Accumulator lockstep = make();
    RunKeystreamEngine(ShortTermOptions(0, workers), lockstep);
    ASSERT_TRUE(reference.grid() == lockstep.grid()) << "workers=" << workers;
  }
}

TEST(EngineMultiStreamTest, SingleByteGridMatchesScalarPath) {
  ExpectShortTermMatches<SingleByteAccumulator>([] { return SingleByteAccumulator(8); });
}

TEST(EngineMultiStreamTest, ConsecutiveGridMatchesScalarPath) {
  ExpectShortTermMatches<ConsecutiveAccumulator>([] { return ConsecutiveAccumulator(4); });
}

TEST(EngineMultiStreamTest, PairGridMatchesScalarPath) {
  const std::vector<std::pair<uint32_t, uint32_t>> pairs = {{1, 2}, {3, 16}};
  ExpectShortTermMatches<PairAccumulator>([&] { return PairAccumulator(pairs); });
}

// The long-term oracle: each key's whole stream from scalar Rc4, handed to
// one shard sink as a single window, so none of the engine's windowing,
// lookahead carry, lockstep groups or remainder runs.
template <typename Accumulator>
void RunLongTermOracle(const LongTermEngineOptions& options, Accumulator& accumulator) {
  Rc4KeyGenerator keygen(options.seed);
  keygen.Seek(options.first_key);
  const uint64_t owned = options.bytes_per_key / 256 * 256;
  std::vector<uint8_t> stream(owned + accumulator.Lookahead());
  const std::unique_ptr<StreamShardSink> sink = accumulator.MakeShard();
  for (uint64_t k = 0; k < options.keys; ++k) {
    Rc4 rc4(keygen.NextKey());
    rc4.Skip(options.drop);
    rc4.Keystream(stream);
    sink->ConsumeChunk(stream, owned);
  }
  accumulator.MergeShard(*sink, options.keys, owned);
}

// At 1, 2 and 4 workers every shard runs at least one full lockstep group
// and a one-lane remainder (9 or 10 keys per shard at 4 workers).
constexpr uint64_t kLongTermKeys = 37;
static_assert(kLongTermKeys % kLaneWidth != 0 && kLongTermKeys / 4 > kLaneWidth &&
              kLongTermKeys / 4 + 1 < 2 * kLaneWidth);

// Each key has one full kLongTermChunkBytes window and a 512-byte tail.
LongTermEngineOptions LongTermRunOptions(unsigned workers) {
  LongTermEngineOptions options;
  options.keys = kLongTermKeys;
  options.bytes_per_key = kLongTermChunkBytes + 512;
  options.drop = 512;
  options.workers = workers;
  options.seed = 29;
  return options;
}

// Runs the engine at each worker count and compares it with the oracle
// using `same`.
template <typename Accumulator, typename Make, typename Same>
void ExpectLongTermMatchesOracle(Make make, Same same) {
  Accumulator reference = make();
  RunLongTermOracle(LongTermRunOptions(1), reference);
  for (const unsigned workers : kWorkerCounts) {
    Accumulator engine = make();
    RunLongTermEngine(LongTermRunOptions(workers), engine);
    ASSERT_TRUE(same(reference, engine)) << "workers=" << workers;
  }
}

TEST(EngineMultiStreamTest, LongTermDigraphGridMatchesOracle) {
  ExpectLongTermMatchesOracle<LongTermDigraphAccumulator>(
      [] { return LongTermDigraphAccumulator(); },
      [](const LongTermDigraphAccumulator& a, const LongTermDigraphAccumulator& b) {
        return a.grid() == b.grid();
      });
}

TEST(EngineMultiStreamTest, AbsabMatchesOracle) {
  // ABSAB exercises lookahead carry across windows.
  ExpectLongTermMatchesOracle<AbsabAccumulator>(
      [] { return AbsabAccumulator(6); },
      [](const AbsabAccumulator& a, const AbsabAccumulator& b) {
        return a.matches() == b.matches() && a.samples() == b.samples();
      });
}

TEST(EngineMultiStreamTest, AlignedPairsMatchOracle) {
  // AlignedPair reads 255 lookahead bytes past every block, across windows.
  ExpectLongTermMatchesOracle<AlignedPairAccumulator>(
      [] { return AlignedPairAccumulator(0, 2); },
      [](const AlignedPairAccumulator& a, const AlignedPairAccumulator& b) {
        return a.counts() == b.counts();
      });
}

}  // namespace
}  // namespace rc4b
