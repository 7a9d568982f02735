#include <gtest/gtest.h>

#include "src/engine/accumulators.h"
#include "src/engine/keystream_engine.h"
#include "src/rc4/rc4_multi.h"

namespace rc4b {
namespace {

// Engine-level bit-exactness of the lockstep lane kernel: every
// accumulator's merged grid must equal the scalar reference path
// (interleave = 1) for 1/2/4 workers, including tail groups
// (keys % kLaneWidth != 0) and nonzero drop. This is the golden-output
// guarantee that lets the kernel be the default batch producer.

constexpr unsigned kWorkerCounts[] = {1, 2, 4};
// Key and batch counts that leave scalar tails after the lockstep groups.
constexpr uint64_t kShortTermKeys = 1037;
constexpr size_t kBatchKeys = 45;
// At 4 workers every shard still runs one full lockstep group.
constexpr uint64_t kLongTermKeys = 4 * kLaneWidth + 5;
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
// worker, and compares the accumulators with `same`.
template <typename Accumulator, typename Make, typename Same, typename Run,
          typename Options>
void ExpectLockstepMatchesScalar(Make make, Same same, Run run,
                                 Options (*options)(size_t, unsigned)) {
  Accumulator reference = make();
  run(options(1, 1), reference);
  for (const unsigned workers : kWorkerCounts) {
    Accumulator lockstep = make();
    run(options(0, workers), lockstep);
    ASSERT_TRUE(same(reference, lockstep)) << "workers=" << workers;
  }
}

template <typename Accumulator, typename Make>
void ExpectShortTermMatches(Make make) {
  ExpectLockstepMatchesScalar<Accumulator>(
      make,
      [](const Accumulator& a, const Accumulator& b) { return a.grid() == b.grid(); },
      [](const EngineOptions& o, Accumulator& acc) { RunKeystreamEngine(o, acc); },
      ShortTermOptions);
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

LongTermEngineOptions LongTermOptions(size_t interleave, unsigned workers) {
  LongTermEngineOptions options;
  options.keys = kLongTermKeys;
  options.bytes_per_key = (1 << 13) + 512;  // tail window below chunk_bytes
  options.drop = 512;
  options.workers = workers;
  options.seed = 29;
  options.chunk_bytes = 1 << 12;
  options.interleave = interleave;
  return options;
}

template <typename Accumulator, typename Make, typename Same>
void ExpectLongTermMatches(Make make, Same same) {
  ExpectLockstepMatchesScalar<Accumulator>(
      make, same,
      [](const LongTermEngineOptions& o, Accumulator& acc) { RunLongTermEngine(o, acc); },
      LongTermOptions);
}

TEST(EngineMultiStreamTest, LongTermDigraphGridMatchesScalarPath) {
  ExpectLongTermMatches<LongTermDigraphAccumulator>(
      [] { return LongTermDigraphAccumulator(); },
      [](const LongTermDigraphAccumulator& a, const LongTermDigraphAccumulator& b) {
        return a.grid() == b.grid();
      });
}

TEST(EngineMultiStreamTest, AbsabMatchesScalarPath) {
  // ABSAB exercises lookahead carry across lockstep windows.
  ExpectLongTermMatches<AbsabAccumulator>(
      [] { return AbsabAccumulator(6); },
      [](const AbsabAccumulator& a, const AbsabAccumulator& b) {
        return a.matches() == b.matches() && a.samples() == b.samples();
      });
}

TEST(EngineMultiStreamTest, AlignedPairsMatchScalarPath) {
  // AlignedPair exercises the hoisted ExtraDrop() (255-byte realignment) on
  // both paths.
  ExpectLongTermMatches<AlignedPairAccumulator>(
      [] { return AlignedPairAccumulator(0, 2); },
      [](const AlignedPairAccumulator& a, const AlignedPairAccumulator& b) {
        return a.counts() == b.counts();
      });
}

}  // namespace
}  // namespace rc4b
