#include <gtest/gtest.h>

#include "src/engine/accumulators.h"
#include "src/engine/keystream_engine.h"
#include "src/rc4/rc4_multi.h"

namespace rc4b {
namespace {

// Engine-level bit-exactness of the interleaved multi-stream path: for every
// supported width, every accumulator's merged grid must equal the scalar
// (interleave = 1) reference, for 1/2/4 workers, including tail groups
// (keys % M != 0) and nonzero drop. This is the golden-output guarantee that
// lets the kernel be the default batch producer.

constexpr size_t kWidths[] = {2, 4, 8, 16, 32};

EngineOptions ShortTermOptions(size_t interleave, unsigned workers) {
  EngineOptions options;
  options.keys = 1037;  // not divisible by any width: scalar tails everywhere
  options.workers = workers;
  options.seed = 23;
  options.drop = 3;
  options.batch_keys = 48;  // not a multiple of 32: per-batch tails too
  options.interleave = interleave;
  return options;
}

TEST(EngineMultiStreamTest, SingleByteGridMatchesScalarPath) {
  SingleByteAccumulator reference(8);
  RunKeystreamEngine(ShortTermOptions(1, 1), reference);
  for (const size_t width : kWidths) {
    for (const unsigned workers : {1u, 2u, 4u}) {
      SingleByteAccumulator multi(8);
      RunKeystreamEngine(ShortTermOptions(width, workers), multi);
      ASSERT_TRUE(reference.grid() == multi.grid())
          << "interleave=" << width << " workers=" << workers;
    }
  }
}

TEST(EngineMultiStreamTest, ConsecutiveGridMatchesScalarPath) {
  ConsecutiveAccumulator reference(4);
  RunKeystreamEngine(ShortTermOptions(1, 1), reference);
  for (const size_t width : kWidths) {
    for (const unsigned workers : {1u, 2u, 4u}) {
      ConsecutiveAccumulator multi(4);
      RunKeystreamEngine(ShortTermOptions(width, workers), multi);
      ASSERT_TRUE(reference.grid() == multi.grid())
          << "interleave=" << width << " workers=" << workers;
    }
  }
}

TEST(EngineMultiStreamTest, PairGridMatchesScalarPath) {
  const std::vector<std::pair<uint32_t, uint32_t>> pairs = {{1, 2}, {3, 16}};
  PairAccumulator reference(pairs);
  RunKeystreamEngine(ShortTermOptions(1, 1), reference);
  for (const size_t width : kWidths) {
    for (const unsigned workers : {1u, 2u, 4u}) {
      PairAccumulator multi(pairs);
      RunKeystreamEngine(ShortTermOptions(width, workers), multi);
      ASSERT_TRUE(reference.grid() == multi.grid())
          << "interleave=" << width << " workers=" << workers;
    }
  }
}

LongTermEngineOptions LongTermOptions(size_t interleave, unsigned workers) {
  LongTermEngineOptions options;
  options.keys = 5;  // 5 % M != 0 for every width: scalar key remainder
  options.bytes_per_key = (1 << 13) + 512;  // tail window below chunk_bytes
  options.drop = 512;
  options.workers = workers;
  options.seed = 29;
  options.chunk_bytes = 1 << 12;
  options.interleave = interleave;
  return options;
}

TEST(EngineMultiStreamTest, LongTermDigraphGridMatchesScalarPath) {
  LongTermDigraphAccumulator reference;
  RunLongTermEngine(LongTermOptions(1, 1), reference);
  for (const size_t width : kWidths) {
    for (const unsigned workers : {1u, 2u, 4u}) {
      LongTermDigraphAccumulator multi;
      RunLongTermEngine(LongTermOptions(width, workers), multi);
      ASSERT_TRUE(reference.grid() == multi.grid())
          << "interleave=" << width << " workers=" << workers;
    }
  }
}

TEST(EngineMultiStreamTest, AbsabAndAlignedPairsMatchScalarPath) {
  // ABSAB exercises lookahead carry across lockstep windows; AlignedPair
  // exercises the hoisted ExtraDrop() (255-byte realignment) on every path.
  AbsabAccumulator absab_reference(6);
  RunLongTermEngine(LongTermOptions(1, 1), absab_reference);
  AlignedPairAccumulator aligned_reference(0, 2);
  RunLongTermEngine(LongTermOptions(1, 1), aligned_reference);
  for (const size_t width : kWidths) {
    AbsabAccumulator absab(6);
    RunLongTermEngine(LongTermOptions(width, 2), absab);
    ASSERT_EQ(absab_reference.matches(), absab.matches()) << "width=" << width;
    ASSERT_EQ(absab_reference.samples(), absab.samples()) << "width=" << width;

    AlignedPairAccumulator aligned(0, 2);
    RunLongTermEngine(LongTermOptions(width, 2), aligned);
    ASSERT_EQ(aligned_reference.counts(), aligned.counts()) << "width=" << width;
  }
}

TEST(EngineMultiStreamTest, AutoWidthEqualsResolvedDefault) {
  // interleave = 0 must behave exactly like the resolved default width.
  SingleByteAccumulator auto_width(6);
  RunKeystreamEngine(ShortTermOptions(0, 2), auto_width);
  SingleByteAccumulator pinned(6);
  RunKeystreamEngine(ShortTermOptions(kDefaultInterleave, 2), pinned);
  SingleByteAccumulator scalar(6);
  RunKeystreamEngine(ShortTermOptions(1, 1), scalar);
  EXPECT_TRUE(auto_width.grid() == pinned.grid());
  EXPECT_TRUE(auto_width.grid() == scalar.grid());
}

}  // namespace
}  // namespace rc4b
