// The BiasAccumulator merge contract: the engine merges a short-term shard at
// least once every kMaxKeysPerMerge keys, each merge flushes the 16-bit tile
// straight into the 64-bit grid, and a flush whose tile rows do not sum to
// the merged key count (a wrapped counter) aborts in every build type.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/engine/accumulators.h"
#include "src/engine/keystream_engine.h"

namespace rc4b {
namespace {

constexpr uint64_t kKeys = kMaxKeysPerMerge + 37;

// Records the key count of every merge the engine makes.
template <typename Base>
class MergeLog : public Base {
 public:
  using Base::Base;

  void MergeShard(ShardSink& shard, uint64_t keys) override {
    merges.push_back(keys);
    Base::MergeShard(shard, keys);
  }

  std::vector<uint64_t> merges;
};

EngineOptions Options(unsigned workers, size_t interleave) {
  EngineOptions options;
  options.keys = kKeys;
  options.first_key = 5;
  options.seed = 23;
  options.workers = workers;
  options.interleave = interleave;
  return options;
}

template <typename Accumulator>
void ExpectMultiMergeShardMatches(size_t positions, size_t batch_keys) {
  MergeLog<Accumulator> one(positions);
  EngineOptions options = Options(1, 0);
  options.batch_keys = batch_keys;
  RunKeystreamEngine(options, one);
  EXPECT_EQ(one.merges, (std::vector<uint64_t>{kMaxKeysPerMerge, 37}));
  EXPECT_EQ(one.grid().keys(), kKeys);

  Accumulator four(positions);
  RunKeystreamEngine(Options(4, 0), four);
  EXPECT_TRUE(one.grid() == four.grid()) << "1 worker vs 4 workers";

  Accumulator scalar(positions);
  RunKeystreamEngine(Options(4, 1), scalar);
  EXPECT_TRUE(one.grid() == scalar.grid()) << "lane kernel vs interleave = 1";
}

TEST(ShardMergeTest, SingleByteShardMergesMoreThanOnce) {
  ExpectMultiMergeShardMatches<SingleByteAccumulator>(3, 256);
}

TEST(ShardMergeTest, ConsecutiveShardMergesMoreThanOnce) {
  // 1000-key batches do not divide kMaxKeysPerMerge: the batch before the
  // merge point is cut short instead of straddling it.
  ExpectMultiMergeShardMatches<ConsecutiveAccumulator>(2, 1000);
}

TEST(ShardMergeDeathTest, WrappedTileCellAbortsMerge) {
  SingleByteAccumulator accumulator(4);
  const auto shard = accumulator.MakeShard();
  // 2^16 identical keystreams: each position's one cell reaches 2^16 and
  // wraps to 0 in the 16-bit tile.
  const std::vector<uint8_t> rows(65536 * 4, 0x2a);
  shard->Consume(KeystreamBatch{rows.data(), 65536, 4});
  EXPECT_DEATH(accumulator.MergeShard(*shard, 65536),
               "SingleByteAccumulator: counter row 0 sums to 0, expected 65536");
}

}  // namespace
}  // namespace rc4b
