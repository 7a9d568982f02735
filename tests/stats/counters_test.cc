#include "src/stats/counters.h"

#include <gtest/gtest.h>

namespace rc4b {
namespace {

TEST(SingleByteGridTest, AddAndCount) {
  SingleByteGrid grid(4);
  grid.Add(0, 7);
  grid.Add(0, 7);
  grid.Add(3, 255, 5);
  EXPECT_EQ(grid.Count(0, 7), 2u);
  EXPECT_EQ(grid.Count(3, 255), 5u);
  EXPECT_EQ(grid.Count(1, 7), 0u);
}

TEST(SingleByteGridTest, MergeAddsCountsAndKeys) {
  SingleByteGrid a(2), b(2);
  a.Add(0, 1, 3);
  a.AddKeys(10);
  b.Add(0, 1, 4);
  b.Add(1, 2, 1);
  b.AddKeys(20);
  a.Merge(b);
  EXPECT_EQ(a.Count(0, 1), 7u);
  EXPECT_EQ(a.Count(1, 2), 1u);
  EXPECT_EQ(a.keys(), 30u);
}

TEST(SingleByteGridTest, ProbabilityNormalizesByKeys) {
  SingleByteGrid grid(1);
  grid.Add(0, 0, 50);
  grid.AddKeys(200);
  EXPECT_DOUBLE_EQ(grid.Probability(0, 0), 0.25);
}

TEST(DigraphGridTest, AddAndRow) {
  DigraphGrid grid(2);
  grid.Add(1, 3, 4, 6);
  EXPECT_EQ(grid.Count(1, 3, 4), 6u);
  EXPECT_EQ(grid.Row(1)[3 * 256 + 4], 6u);
  EXPECT_EQ(grid.Count(0, 3, 4), 0u);
}

TEST(DigraphGridTest, MarginalsSumCorrectly) {
  DigraphGrid grid(1);
  grid.Add(0, 10, 0, 3);
  grid.Add(0, 10, 200, 7);
  grid.Add(0, 99, 200, 10);
  grid.AddKeys(100);
  EXPECT_DOUBLE_EQ(grid.MarginalFirst(0, 10), 0.10);
  EXPECT_DOUBLE_EQ(grid.MarginalSecond(0, 200), 0.17);
  EXPECT_DOUBLE_EQ(grid.MarginalSecond(0, 0), 0.03);
}

TEST(DigraphGridTest, MergeConsistent) {
  DigraphGrid a(1), b(1);
  a.Add(0, 1, 2, 5);
  a.AddKeys(5);
  b.Add(0, 1, 2, 2);
  b.AddKeys(2);
  a.Merge(b);
  EXPECT_EQ(a.Count(0, 1, 2), 7u);
  EXPECT_EQ(a.keys(), 7u);
}

TEST(DigraphGridTest, AdoptedCellsMoveBackOut) {
  AlignedVector<uint64_t> cells(2 * 65536, 0);
  cells[65536 + 5] = 9;
  const uint64_t* block = cells.data();
  DigraphGrid grid(std::move(cells), 9);
  EXPECT_EQ(grid.positions(), 2u);
  EXPECT_EQ(grid.Count(1, 0, 5), 9u);
  EXPECT_EQ(grid.keys(), 9u);
  const AlignedVector<uint64_t> out = std::move(grid).TakeCells();
  EXPECT_EQ(out.data(), block);  // moved, never copied
}

TEST(DigraphGridTest, MergeCounts32AddsSamplesPerRow) {
  DigraphGrid grid(1);
  std::vector<uint32_t> local(65536, 0);
  local[7] = 3;
  local[9] = 1;
  grid.MergeCounts32(local, 4, "test");
  EXPECT_EQ(grid.Count(0, 0, 7), 3u);
  EXPECT_EQ(grid.keys(), 4u);
}

TEST(DigraphGridDeathTest, MergeCounts32AbortsOnShortRow) {
  DigraphGrid grid(2);
  std::vector<uint32_t> local(2 * 65536, 0);
  local[0] = 4;
  local[65536] = 3;  // row 1 lost a count
  EXPECT_DEATH(grid.MergeCounts32(local, 4, "LongTermTest"),
               "LongTermTest: counter row 1 sums to 3, expected 4");
}

TEST(WorkerTileTest, FlushAddsAndZeroes) {
  WorkerTile tile(8);
  tile.Add(3);
  tile.Add(3);
  tile.Add(5);
  std::vector<uint64_t> out(8, 100);
  tile.FlushInto(out, 8, 3, "test");
  EXPECT_EQ(out[3], 102u);
  EXPECT_EQ(out[5], 101u);
  EXPECT_EQ(out[0], 100u);
  // Second flush adds nothing: the tile was reset.
  tile.FlushInto(out, 8, 0, "test");
  EXPECT_EQ(out[3], 102u);
}

TEST(WorkerTileTest, ManyIncrementsBelowCap) {
  WorkerTile tile(1);
  for (int i = 0; i < 60000; ++i) {
    tile.Add(0);
  }
  std::vector<uint64_t> out(1, 0);
  tile.FlushInto(out, 1, 60000, "test");
  EXPECT_EQ(out[0], 60000u);
}

TEST(WorkerTileDeathTest, WrappedCellAbortsFlush) {
  WorkerTile tile(4);
  for (int i = 0; i < 65536; ++i) {
    tile.Add(2);  // the 65536th add wraps the 16-bit cell to 0
  }
  std::vector<uint64_t> out(4, 0);
  EXPECT_DEATH(tile.FlushInto(out, 4, 65536, "TileTest"),
               "TileTest: counter row 0 sums to 0, expected 65536");
}

}  // namespace
}  // namespace rc4b
