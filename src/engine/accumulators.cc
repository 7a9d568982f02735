#include "src/engine/accumulators.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace rc4b {

namespace {

// Shard sink shared by all short-term accumulators: one 16-bit tile of rows
// of `row_cells` counters, which MergeShard() flushes straight into the
// accumulator's 64-bit grid (kMaxKeysPerMerge keeps its cells below 2^16).
class TileShardSink : public ShardSink {
 public:
  TileShardSink(size_t rows, size_t row_cells)
      : tile_(rows * row_cells), row_cells_(row_cells) {}

  // Adds the tile and the `keys` consumed since the last flush into `grid`.
  template <typename Grid>
  void FlushInto(Grid& grid, uint64_t keys, const char* owner) {
    tile_.FlushInto(grid.MutableCells(), row_cells_, keys, owner);
    grid.AddKeys(keys);
  }

 protected:
  WorkerTile tile_;

 private:
  size_t row_cells_;
};

class SingleByteShardSink : public TileShardSink {
 public:
  explicit SingleByteShardSink(size_t positions)
      : TileShardSink(positions, 256), positions_(positions) {}

  void Consume(const KeystreamBatch& batch) override {
    // Position-major: all rows hit one 256-cell tile region before moving
    // on, so the working set per step is a few cache lines instead of the
    // whole tile (the add order changes, the counts cannot).
    for (size_t pos = 0; pos < positions_; ++pos) {
      const uint8_t* column = batch.data + pos;
      for (size_t r = 0; r < batch.rows; ++r) {
        tile_.Add(pos * 256 + column[r * batch.length]);
      }
    }
  }

 private:
  size_t positions_;
};

class ConsecutiveShardSink : public TileShardSink {
 public:
  explicit ConsecutiveShardSink(size_t positions)
      : TileShardSink(positions, 65536), positions_(positions) {}

  void Consume(const KeystreamBatch& batch) override {
    // Position-major (see SingleByteShardSink): for a 256-position digraph
    // tile the row-major order walked ~33 MB per key; this keeps each
    // position's 128 KB region hot for the whole batch. Cells are still
    // random within the region, so prefetch a few rows ahead.
    constexpr size_t kPrefetchRows = 16;
    for (size_t pos = 0; pos < positions_; ++pos) {
      const uint8_t* column = batch.data + pos;
      for (size_t r = 0; r < batch.rows; ++r) {
        if (r + kPrefetchRows < batch.rows) {
          const uint8_t* ahead = column + (r + kPrefetchRows) * batch.length;
          tile_.Prefetch(pos * 65536 + static_cast<size_t>(ahead[0]) * 256 +
                         ahead[1]);
        }
        const uint8_t* pair = column + r * batch.length;
        tile_.Add(pos * 65536 + static_cast<size_t>(pair[0]) * 256 + pair[1]);
      }
    }
  }

 private:
  size_t positions_;
};

class PairShardSink : public TileShardSink {
 public:
  explicit PairShardSink(const std::vector<std::pair<uint32_t, uint32_t>>& pairs)
      : TileShardSink(pairs.size(), 65536), pairs_(pairs) {}

  void Consume(const KeystreamBatch& batch) override {
    // Pair-major for the same cache reasons as the other short-term sinks.
    for (size_t p = 0; p < pairs_.size(); ++p) {
      const size_t a = pairs_[p].first - 1;
      const size_t b = pairs_[p].second - 1;
      for (size_t r = 0; r < batch.rows; ++r) {
        const uint8_t* keystream = batch.data + r * batch.length;
        tile_.Add(p * 65536 + static_cast<size_t>(keystream[a]) * 256 +
                  keystream[b]);
      }
    }
  }

 private:
  const std::vector<std::pair<uint32_t, uint32_t>>& pairs_;
};

}  // namespace

std::unique_ptr<ShardSink> SingleByteAccumulator::MakeShard() {
  return std::make_unique<SingleByteShardSink>(grid_.positions());
}

void SingleByteAccumulator::MergeShard(ShardSink& shard, uint64_t keys) {
  static_cast<TileShardSink&>(shard).FlushInto(grid_, keys, "SingleByteAccumulator");
}

std::unique_ptr<ShardSink> ConsecutiveAccumulator::MakeShard() {
  return std::make_unique<ConsecutiveShardSink>(grid_.positions());
}

void ConsecutiveAccumulator::MergeShard(ShardSink& shard, uint64_t keys) {
  static_cast<TileShardSink&>(shard).FlushInto(grid_, keys, "ConsecutiveAccumulator");
}

PairAccumulator::PairAccumulator(std::vector<std::pair<uint32_t, uint32_t>> pairs,
                                 DigraphGrid grid)
    : pairs_(std::move(pairs)), max_position_(0), grid_(std::move(grid)) {
  if (grid_.positions() != pairs_.size()) {
    std::fprintf(stderr, "PairAccumulator: %zu grid rows for %zu pairs\n",
                 grid_.positions(), pairs_.size());
    std::abort();
  }
  for (const auto& [a, b] : pairs_) {
    if (a < 1 || a >= b) {
      std::fprintf(stderr,
                   "PairAccumulator: pair (%u, %u) is not 1-based with a < b\n", a, b);
      std::abort();
    }
    max_position_ = std::max<size_t>(max_position_, b);
  }
}

std::unique_ptr<ShardSink> PairAccumulator::MakeShard() {
  return std::make_unique<PairShardSink>(pairs_);
}

void PairAccumulator::MergeShard(ShardSink& shard, uint64_t keys) {
  static_cast<TileShardSink&>(shard).FlushInto(grid_, keys, "PairAccumulator");
}

// ------------------------------------------------------------------------
// Long-term sinks.

namespace {

class LongTermDigraphShardSink : public StreamShardSink {
 public:
  LongTermDigraphShardSink() : cells_(256 * 65536, 0) {}

  void ConsumeChunk(std::span<const uint8_t> chunk, size_t owned) override {
    // kLongTermChunkBytes is a 256-multiple and owned positions restart at
    // 0 each key, so owned position `off` always sits at counter class off % 256.
    for (size_t base = 0; base < owned; base += 256) {
      const uint8_t* block = chunk.data() + base;
      for (size_t off = 0; off < 256; ++off) {
        cells_[off * 65536 + static_cast<size_t>(block[off]) * 256 +
               block[off + 1]] += 1;
      }
    }
  }

  std::span<const uint32_t> cells() const { return cells_; }

 private:
  // 32-bit shard-local block (67 MB instead of 134 MB), mirroring the
  // paper's counter-size optimization; per-cell shard counts stay < 2^32.
  AlignedVector<uint32_t> cells_;
};

class AbsabShardSink : public StreamShardSink {
 public:
  explicit AbsabShardSink(uint64_t max_gap) : matches_(max_gap + 1, 0) {}

  void ConsumeChunk(std::span<const uint8_t> chunk, size_t owned) override {
    const uint8_t* c = chunk.data();
    const size_t gaps = matches_.size();
    for (size_t r = 0; r < owned; ++r) {
      const uint8_t a = c[r];
      const uint8_t b = c[r + 1];
      for (size_t g = 0; g < gaps; ++g) {
        matches_[g] += (a == c[r + g + 2] && b == c[r + g + 3]) ? 1 : 0;
      }
    }
  }

  std::span<const uint64_t> matches() const { return matches_; }

 private:
  AlignedVector<uint64_t> matches_;
};

class AlignedPairShardSink : public StreamShardSink {
 public:
  AlignedPairShardSink(uint32_t offset_a, uint32_t offset_b)
      : offset_a_(offset_a), offset_b_(offset_b), cells_(65536, 0) {}

  void ConsumeChunk(std::span<const uint8_t> chunk, size_t owned) override {
    for (size_t base = 0; base < owned; base += 256) {
      // The block's Z_{256w} (see AlignedPairAccumulator::Lookahead()).
      const uint8_t* block = chunk.data() + base + 255;
      cells_[static_cast<size_t>(block[offset_a_]) * 256 + block[offset_b_]] += 1;
    }
  }

  std::span<const uint64_t> cells() const { return cells_; }

 private:
  uint32_t offset_a_;
  uint32_t offset_b_;
  AlignedVector<uint64_t> cells_;
};

}  // namespace

std::unique_ptr<StreamShardSink> LongTermDigraphAccumulator::MakeShard() {
  return std::make_unique<LongTermDigraphShardSink>();
}

void LongTermDigraphAccumulator::MergeShard(StreamShardSink& shard, uint64_t keys,
                                            uint64_t owned_per_key) {
  grid_.MergeCounts32(static_cast<LongTermDigraphShardSink&>(shard).cells(),
                      keys * (owned_per_key / 256), "LongTermDigraphAccumulator");
}

std::unique_ptr<StreamShardSink> AbsabAccumulator::MakeShard() {
  return std::make_unique<AbsabShardSink>(max_gap_);
}

void AbsabAccumulator::MergeShard(StreamShardSink& shard, uint64_t keys,
                                  uint64_t owned_per_key) {
  const auto local = static_cast<AbsabShardSink&>(shard).matches();
  for (size_t g = 0; g < matches_.size(); ++g) {
    matches_[g] += local[g];
  }
  samples_ += keys * owned_per_key;
}

AlignedPairAccumulator::AlignedPairAccumulator(uint32_t offset_a, uint32_t offset_b)
    : offset_a_(offset_a), offset_b_(offset_b), counts_(65536, 0) {
  if (offset_a >= offset_b || offset_b >= 256) {
    std::fprintf(stderr,
                 "AlignedPairAccumulator: offsets (%u, %u) need a < b < 256\n",
                 offset_a, offset_b);
    std::abort();
  }
}

std::unique_ptr<StreamShardSink> AlignedPairAccumulator::MakeShard() {
  return std::make_unique<AlignedPairShardSink>(offset_a_, offset_b_);
}

void AlignedPairAccumulator::MergeShard(StreamShardSink& shard, uint64_t keys,
                                        uint64_t owned_per_key) {
  (void)keys;
  (void)owned_per_key;
  const auto local = static_cast<AlignedPairShardSink&>(shard).cells();
  for (size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += local[i];
  }
}

}  // namespace rc4b
