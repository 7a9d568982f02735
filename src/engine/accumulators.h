// Concrete BiasAccumulator / StreamAccumulator implementations feeding the
// grids in src/stats/counters.h. These are the engine-side halves of every
// grid kind in src/store/grid_file.h and of the aligned pairs in
// src/biases/dataset.h; callers run AbsabAccumulator directly:
//
//   short-term (RunKeystreamEngine)        long-term (RunLongTermEngine)
//   ------------------------------------   ---------------------------------
//   SingleByteAccumulator   (Fig. 6)       LongTermDigraphAccumulator (Tab. 1)
//   ConsecutiveAccumulator  (Fig. 4/5)     AbsabAccumulator    (formula (1))
//   PairAccumulator         (Table 2)      AlignedPairAccumulator (form. (8))
//
// Short-term shard sinks keep one cache-aligned 16-bit tile, which
// MergeShard() flushes straight into the 64-bit grid (see kMaxKeysPerMerge);
// long-term sinks keep 32/64-bit shard-local blocks merged once per shard,
// and count each window independently of the others (the engine delivers
// the windows of a lockstep group round-robin; see StreamShardSink).
#ifndef SRC_ENGINE_ACCUMULATORS_H_
#define SRC_ENGINE_ACCUMULATORS_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/engine/keystream_engine.h"
#include "src/stats/counters.h"

namespace rc4b {

// Counts of Z_r for 1 <= r <= positions (one count per key per position).
class SingleByteAccumulator : public BiasAccumulator {
 public:
  explicit SingleByteAccumulator(size_t positions) : grid_(positions) {}
  // Counts on top of `grid` (e.g. a resumed checkpoint's cells).
  explicit SingleByteAccumulator(SingleByteGrid grid) : grid_(std::move(grid)) {}

  size_t KeystreamLength() const override { return grid_.positions(); }
  std::unique_ptr<ShardSink> MakeShard() override;
  void MergeShard(ShardSink& shard, uint64_t keys) override;

  const SingleByteGrid& grid() const { return grid_; }
  SingleByteGrid TakeGrid() { return std::move(grid_); }

 private:
  SingleByteGrid grid_;
};

// Counts of consecutive digraphs (Z_r, Z_{r+1}) for 1 <= r <= positions.
class ConsecutiveAccumulator : public BiasAccumulator {
 public:
  explicit ConsecutiveAccumulator(size_t positions) : grid_(positions) {}
  // Counts on top of `grid` (e.g. a resumed checkpoint's cells).
  explicit ConsecutiveAccumulator(DigraphGrid grid) : grid_(std::move(grid)) {}

  size_t KeystreamLength() const override { return grid_.positions() + 1; }
  std::unique_ptr<ShardSink> MakeShard() override;
  void MergeShard(ShardSink& shard, uint64_t keys) override;

  const DigraphGrid& grid() const { return grid_; }
  DigraphGrid TakeGrid() { return std::move(grid_); }

 private:
  DigraphGrid grid_;
};

// Counts of (Z_a, Z_b) for arbitrary 1-based position pairs a < b; grid row p
// corresponds to pairs[p].
class PairAccumulator : public BiasAccumulator {
 public:
  explicit PairAccumulator(std::vector<std::pair<uint32_t, uint32_t>> pairs)
      : PairAccumulator(pairs, DigraphGrid(pairs.size())) {}
  // Counts on top of `grid`, one row per pair.
  PairAccumulator(std::vector<std::pair<uint32_t, uint32_t>> pairs,
                  DigraphGrid grid);

  size_t KeystreamLength() const override { return max_position_; }
  std::unique_ptr<ShardSink> MakeShard() override;
  void MergeShard(ShardSink& shard, uint64_t keys) override;

  const DigraphGrid& grid() const { return grid_; }
  DigraphGrid TakeGrid() { return std::move(grid_); }

 private:
  std::vector<std::pair<uint32_t, uint32_t>> pairs_;
  size_t max_position_;
  DigraphGrid grid_;
};

// Long-term digraphs (Z_r, Z_{r+1}) bucketed by (r - 1) mod 256 — the row
// layout of a longterm-digraph grid (store::GridKind::kLongTermDigraph).
// grid().keys() counts digraph samples per row.
class LongTermDigraphAccumulator : public StreamAccumulator {
 public:
  LongTermDigraphAccumulator() : grid_(256) {}
  // Counts on top of `grid` (256 rows).
  explicit LongTermDigraphAccumulator(DigraphGrid grid) : grid_(std::move(grid)) {}

  size_t Lookahead() const override { return 1; }
  std::unique_ptr<StreamShardSink> MakeShard() override;
  void MergeShard(StreamShardSink& shard, uint64_t keys,
                  uint64_t owned_per_key) override;

  const DigraphGrid& grid() const { return grid_; }
  DigraphGrid TakeGrid() { return std::move(grid_); }

 private:
  DigraphGrid grid_;
};

// ABSAB match counts per gap g in [0, max_gap]: position r matches when
// Z_r = Z_{r+g+2} and Z_{r+1} = Z_{r+g+3}. Every gap is tested at every
// owned position, so all gaps share one sample count.
class AbsabAccumulator : public StreamAccumulator {
 public:
  explicit AbsabAccumulator(uint64_t max_gap)
      : max_gap_(max_gap), matches_(max_gap + 1, 0) {}

  size_t Lookahead() const override { return static_cast<size_t>(max_gap_) + 3; }
  std::unique_ptr<StreamShardSink> MakeShard() override;
  void MergeShard(StreamShardSink& shard, uint64_t keys,
                  uint64_t owned_per_key) override;

  // Indexed by gap.
  const std::vector<uint64_t>& matches() const { return matches_; }
  // Positions tested per gap.
  uint64_t samples() const { return samples_; }

 private:
  uint64_t max_gap_;
  std::vector<uint64_t> matches_;
  uint64_t samples_ = 0;
};

// 256-aligned digraphs (Z_{256w + a}, Z_{256w + b}) for one offset pair
// 0 <= a < b < 256 (checked in every build), relative to the paper's
// Z_{256w} block numbering.
class AlignedPairAccumulator : public StreamAccumulator {
 public:
  AlignedPairAccumulator(uint32_t offset_a, uint32_t offset_b);

  // Window byte p is Z_{drop+1+p} (for the first window of a key). With drop
  // a multiple of 256, byte base + 255 of each owned 256-byte block is a
  // paper Z_{256w}, so the sink reads bytes base + 255 + a and base + 255 + b,
  // at most 255 bytes past the block's last owned byte.
  size_t Lookahead() const override { return 255; }
  std::unique_ptr<StreamShardSink> MakeShard() override;
  void MergeShard(StreamShardSink& shard, uint64_t keys,
                  uint64_t owned_per_key) override;

  const std::vector<uint64_t>& counts() const { return counts_; }
  std::vector<uint64_t> TakeCounts() { return std::move(counts_); }

 private:
  uint32_t offset_a_;
  uint32_t offset_b_;
  std::vector<uint64_t> counts_;
};

}  // namespace rc4b

#endif  // SRC_ENGINE_ACCUMULATORS_H_
