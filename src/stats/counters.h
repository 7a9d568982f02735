// Counter grids for keystream statistics.
//
// Mirrors the paper's dataset-generation optimizations (Sect. 3.2): workers
// accumulate into 16-bit counters (cache friendly; the merge cadence that
// keeps them from wrapping is argued once, at kMaxKeysPerMerge in
// src/engine/keystream_engine.h) and flush them straight into 64-bit merge
// grids, checking on every flush that no counter wrapped. Grids are indexed
// (position, value) for single-byte statistics and (position, value1,
// value2) for digraph statistics.
#ifndef SRC_STATS_COUNTERS_H_
#define SRC_STATS_COUNTERS_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <span>
#include <utility>
#include <vector>

namespace rc4b {

// Cache-line alignment for shard-local counter blocks: engine shards write
// their counters lock-free from one thread each, and aligning every shard's
// block to its own cache lines keeps false sharing out of the hot loop.
inline constexpr size_t kCacheLineBytes = 64;

template <typename T>
class CacheAlignedAllocator {
 public:
  using value_type = T;

  CacheAlignedAllocator() noexcept = default;
  template <typename U>
  CacheAlignedAllocator(const CacheAlignedAllocator<U>&) noexcept {}

  T* allocate(size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{kCacheLineBytes}));
  }
  void deallocate(T* p, size_t) noexcept {
    ::operator delete(p, std::align_val_t{kCacheLineBytes});
  }

  template <typename U>
  bool operator==(const CacheAlignedAllocator<U>&) const noexcept {
    return true;
  }
};

template <typename T>
using AlignedVector = std::vector<T, CacheAlignedAllocator<T>>;

// `positions` rows of kRowCells 64-bit counters, row-major, plus the keys
// (or samples) they count: the one cell layout shared by the engine's
// grids, checkpoints and grid files (src/store/grid_file.h).
template <size_t kRowCells>
class CounterGrid {
 public:
  explicit CounterGrid(size_t positions)
      : positions_(positions), counts_(positions * kRowCells, 0) {}
  // Adopts a finished cell block (e.g. a stored grid's) and its key count
  // without copying it.
  CounterGrid(AlignedVector<uint64_t> cells, uint64_t keys)
      : positions_(cells.size() / kRowCells), counts_(std::move(cells)), keys_(keys) {}

  // All kRowCells counts at `pos`.
  std::span<const uint64_t> Row(size_t pos) const {
    return std::span<const uint64_t>(counts_).subspan(pos * kRowCells, kRowCells);
  }

  size_t positions() const { return positions_; }
  uint64_t keys() const { return keys_; }
  void AddKeys(uint64_t n) { keys_ += n; }

  // Raw cell storage (pos-major) for worker-tile flushes.
  std::span<uint64_t> MutableCells() { return counts_; }
  // Read-only view of all cells (pos-major) — the grid store serializes this
  // block verbatim.
  std::span<const uint64_t> Cells() const { return counts_; }
  // Moves the cell block out without copying it; the grid is spent.
  AlignedVector<uint64_t> TakeCells() && { return std::move(counts_); }

  // Merges another grid (e.g. a worker shard) into this one.
  void Merge(const CounterGrid& other) {
    assert(positions_ == other.positions_);
    for (size_t i = 0; i < counts_.size(); ++i) {
      counts_[i] += other.counts_[i];
    }
    keys_ += other.keys_;
  }

  // Exact equality of positions, key count and every cell (merge
  // bit-exactness checks).
  friend bool operator==(const CounterGrid&, const CounterGrid&) = default;

 protected:
  size_t positions_;
  AlignedVector<uint64_t> counts_;
  uint64_t keys_ = 0;
};

// counts[pos * 256 + value] over `positions` keystream positions.
class SingleByteGrid : public CounterGrid<256> {
 public:
  using CounterGrid::CounterGrid;

  void Add(size_t pos, uint8_t value, uint64_t n = 1) {
    counts_[pos * 256 + value] += n;
  }

  uint64_t Count(size_t pos, uint8_t value) const { return counts_[pos * 256 + value]; }

  // Empirical probability estimate Pr[Z_pos = value].
  double Probability(size_t pos, uint8_t value) const {
    return static_cast<double>(Count(pos, value)) / static_cast<double>(keys_);
  }
};

// counts[pos * 65536 + v1 * 256 + v2] for consecutive-byte (digraph)
// statistics: pair (Z_{pos+1}, Z_{pos+2}) in 1-based paper numbering.
class DigraphGrid : public CounterGrid<65536> {
 public:
  using CounterGrid::CounterGrid;

  void Add(size_t pos, uint8_t v1, uint8_t v2, uint64_t n = 1) {
    counts_[pos * 65536 + static_cast<size_t>(v1) * 256 + v2] += n;
  }

  uint64_t Count(size_t pos, uint8_t v1, uint8_t v2) const {
    return counts_[pos * 65536 + static_cast<size_t>(v1) * 256 + v2];
  }

  // Adds a long-term shard's 32-bit counts, `samples` per row, into this
  // grid. Every row of `local` must sum to `samples`, or the merge aborts
  // as WorkerTile::FlushInto() does.
  void MergeCounts32(std::span<const uint32_t> local, uint64_t samples,
                     const char* owner);

  double Probability(size_t pos, uint8_t v1, uint8_t v2) const {
    return static_cast<double>(Count(pos, v1, v2)) / static_cast<double>(keys_);
  }

  // Marginal Pr[Z_{pos(first)} = v] obtained by summing the second byte,
  // i.e. formula (6) in the paper.
  double MarginalFirst(size_t pos, uint8_t v) const;
  double MarginalSecond(size_t pos, uint8_t v) const;
};

// 16-bit worker-local tile, flushed straight into a 64-bit grid. The worker
// may call Add() at most 2^16 - 1 times per cell between FlushInto() calls
// (kMaxKeysPerMerge, src/engine/keystream_engine.h); FlushInto() checks.
class WorkerTile {
 public:
  explicit WorkerTile(size_t cells) : counts_(cells, 0) {}

  void Add(size_t cell) { ++counts_[cell]; }

  // Hints the prefetcher at a cell that Add() will touch shortly. Counter
  // cells are data-dependent random accesses, so a short software-prefetch
  // pipeline hides most of their cache/TLB latency in the consume loops.
  void Prefetch(size_t cell) const { __builtin_prefetch(&counts_[cell], 1); }

  // Adds all counts into `out[cell]` and zeroes the tile. Each key adds one
  // count per row of `row_cells` cells, so every row must sum to `keys`; in
  // the same pass, a row that does not (a wrapped counter) prints `owner`,
  // the row and both sums to stderr and aborts, in every build type.
  void FlushInto(std::span<uint64_t> out, size_t row_cells, uint64_t keys,
                 const char* owner);

 private:
  AlignedVector<uint16_t> counts_;
};

}  // namespace rc4b

#endif  // SRC_STATS_COUNTERS_H_
