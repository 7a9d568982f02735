#include "src/store/merge.h"

#include <algorithm>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "src/store/shard_runner.h"

namespace rc4b::store {
namespace {

std::string TempDir(const char* name) {
  const std::string dir = std::string(::testing::TempDir()) + "/" + name;
  MakeDirs(dir);
  return dir;
}

GridMeta SmallMeta(GridKind kind) {
  GridMeta meta;
  meta.kind = kind;
  meta.seed = 21;
  meta.key_begin = 0;
  meta.key_end = 2048;
  switch (kind) {
    case GridKind::kSingleByte:
    case GridKind::kConsecutive:
      meta.rows = 6;
      break;
    case GridKind::kPair:
      meta.pairs = {{1, 2}, {3, 260}};
      meta.rows = meta.pairs.size();
      break;
    case GridKind::kLongTermDigraph:
      meta.rows = 256;
      meta.key_end = 6;
      meta.drop = 256;
      meta.bytes_per_key = 2048;
      break;
  }
  return meta;
}

// Generates each shard independently (separate GenerateStoredGrid calls, as
// separate processes would) and writes the shard files.
Manifest WriteShards(const GridMeta& grid, uint32_t shards,
                     const std::string& dir) {
  const Manifest manifest = PlanShards(grid, shards, dir + "/part");
  for (const ShardEntry& shard : manifest.shards) {
    GridMeta slice = grid;
    slice.key_begin = shard.key_begin;
    slice.key_end = shard.key_end;
    const StoredGrid partial = GenerateStoredGrid(slice, 2, 0);
    EXPECT_TRUE(WriteGridFile(shard.path, partial.meta, partial.cells).ok());
  }
  return manifest;
}

TEST(MergeTest, ShardedMergeMatchesSingleProcessForEveryKind) {
  for (const GridKind kind :
       {GridKind::kSingleByte, GridKind::kConsecutive, GridKind::kPair,
        GridKind::kLongTermDigraph}) {
    SCOPED_TRACE(GridKindName(kind));
    const std::string dir = TempDir("merge");
    const GridMeta grid = SmallMeta(kind);
    const Manifest manifest =
        WriteShards(grid, kind == GridKind::kLongTermDigraph ? 2 : 3, dir);

    StoredGrid merged;
    ASSERT_TRUE(
        MergeShardGridsEx(manifest, dir + "/x.manifest", {}, &merged, nullptr).ok());
    const StoredGrid reference = GenerateStoredGrid(grid, 2, 0);
    EXPECT_TRUE(
        CheckGridsEqual(reference, merged, "reference", "merged").ok());
    for (const ShardEntry& shard : manifest.shards) {
      std::remove(shard.path.c_str());
    }
  }
}

TEST(MergeTest, RejectsShardFromADifferentDataset) {
  const std::string dir = TempDir("merge-mismatch");
  const GridMeta grid = SmallMeta(GridKind::kSingleByte);
  const Manifest manifest = WriteShards(grid, 2, dir);

  // Overwrite shard 1 with a grid of the right range but the wrong seed.
  GridMeta wrong = grid;
  wrong.seed = 999;
  wrong.key_begin = manifest.shards[1].key_begin;
  wrong.key_end = manifest.shards[1].key_end;
  const StoredGrid bad = GenerateStoredGrid(wrong, 1, 0);
  ASSERT_TRUE(WriteGridFile(manifest.shards[1].path, bad.meta, bad.cells).ok());

  StoredGrid merged;
  const IoStatus status =
      MergeShardGridsEx(manifest, dir + "/x.manifest", {}, &merged, nullptr);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("seed"), std::string::npos);
  EXPECT_NE(status.message().find(manifest.shards[1].path), std::string::npos);
}

TEST(MergeTest, RejectsShardCoveringTheWrongRange) {
  const std::string dir = TempDir("merge-range");
  const GridMeta grid = SmallMeta(GridKind::kSingleByte);
  Manifest manifest = WriteShards(grid, 2, dir);

  // Swap the two shard files: provenance matches but ranges do not.
  std::swap(manifest.shards[0].path, manifest.shards[1].path);
  StoredGrid merged;
  const IoStatus status =
      MergeShardGridsEx(manifest, dir + "/x.manifest", {}, &merged, nullptr);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("manifest assigns"), std::string::npos);
}

TEST(MergeTest, RejectsMissingShardFile) {
  const std::string dir = TempDir("merge-missing");
  const GridMeta grid = SmallMeta(GridKind::kSingleByte);
  const Manifest manifest = WriteShards(grid, 2, dir);
  std::remove(manifest.shards[0].path.c_str());

  StoredGrid merged;
  const IoStatus status =
      MergeShardGridsEx(manifest, dir + "/x.manifest", {}, &merged, nullptr);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find(manifest.shards[0].path), std::string::npos);
}

TEST(MergeTest, RejectsCorruptShard) {
  const std::string dir = TempDir("merge-corrupt");
  const GridMeta grid = SmallMeta(GridKind::kSingleByte);
  const Manifest manifest = WriteShards(grid, 2, dir);
  {
    std::FILE* file = std::fopen(manifest.shards[0].path.c_str(), "r+b");
    ASSERT_NE(file, nullptr);
    std::fseek(file, -3, SEEK_END);
    std::fputc('X', file);
    std::fclose(file);
  }
  StoredGrid merged;
  const IoStatus status =
      MergeShardGridsEx(manifest, dir + "/x.manifest", {}, &merged, nullptr);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("checksum"), std::string::npos);
}

TEST(MergeTest, IncrementalMergeFromBaseMatchesFullMerge) {
  const std::string dir = TempDir("merge-incremental");
  const GridMeta grid = SmallMeta(GridKind::kConsecutive);
  const Manifest manifest = WriteShards(grid, 4, dir);

  // The base is a previous merge covering the first two shards. Once it
  // exists their files can be deleted — the incremental merge must not
  // touch them.
  GridMeta prefix = grid;
  prefix.key_end = manifest.shards[1].key_end;
  StoredGrid base = GenerateStoredGrid(prefix, 2, 0);
  std::remove(manifest.shards[0].path.c_str());
  std::remove(manifest.shards[1].path.c_str());

  MergeOptions options;
  options.base = &base;
  StoredGrid merged;
  MergeOutcome outcome;
  ASSERT_TRUE(
      MergeShardGridsEx(manifest, dir + "/x.manifest", options, &merged, &outcome)
          .ok());
  EXPECT_EQ(outcome.skipped.size(), 2u);
  EXPECT_EQ(outcome.merged.size(), 2u);
  const StoredGrid reference = GenerateStoredGrid(grid, 2, 0);
  EXPECT_TRUE(CheckGridsEqual(reference, merged, "reference", "merged").ok());
}

TEST(MergeTest, RejectsBaseEndingOffAShardBoundary) {
  const std::string dir = TempDir("merge-base-boundary");
  const GridMeta grid = SmallMeta(GridKind::kConsecutive);
  const Manifest manifest = WriteShards(grid, 2, dir);

  GridMeta prefix = grid;
  prefix.key_end = manifest.shards[0].key_end - 1;  // straddles shard 1
  StoredGrid base = GenerateStoredGrid(prefix, 1, 0);
  MergeOptions options;
  options.base = &base;
  StoredGrid merged;
  const IoStatus status =
      MergeShardGridsEx(manifest, dir + "/x.manifest", options, &merged, nullptr);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("boundary"), std::string::npos);
}

TEST(MergeTest, RejectsBaseFromADifferentDataset) {
  const std::string dir = TempDir("merge-base-foreign");
  const GridMeta grid = SmallMeta(GridKind::kConsecutive);
  const Manifest manifest = WriteShards(grid, 2, dir);

  GridMeta foreign = grid;
  foreign.seed = 999;
  foreign.key_end = manifest.shards[0].key_end;
  StoredGrid base = GenerateStoredGrid(foreign, 1, 0);
  MergeOptions options;
  options.base = &base;
  StoredGrid merged;
  const IoStatus status =
      MergeShardGridsEx(manifest, dir + "/x.manifest", options, &merged, nullptr);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("seed"), std::string::npos);
}

TEST(MergeTest, AllowMissingRecordsTheGapInsteadOfFailing) {
  const std::string dir = TempDir("merge-allow-missing");
  const GridMeta grid = SmallMeta(GridKind::kConsecutive);
  const Manifest manifest = WriteShards(grid, 3, dir);
  std::remove(manifest.shards[1].path.c_str());

  MergeOptions options;
  options.allow_missing = true;
  StoredGrid merged;
  MergeOutcome outcome;
  ASSERT_TRUE(
      MergeShardGridsEx(manifest, dir + "/x.manifest", options, &merged, &outcome)
          .ok());
  ASSERT_EQ(outcome.missing.size(), 1u);
  EXPECT_EQ(outcome.missing[0].index, 1u);
  EXPECT_EQ(outcome.missing[0].path, manifest.shards[1].path);
  EXPECT_FALSE(outcome.missing[0].error.empty());
  EXPECT_EQ(outcome.merged.size(), 2u);
  // `samples` honestly reports the merged subset, not the declared range.
  EXPECT_EQ(merged.meta.samples,
            grid.keys() - (manifest.shards[1].key_end -
                           manifest.shards[1].key_begin));
}

TEST(MergeTest, RejectsShardWhoseRowDoesNotSumToItsSamples) {
  const std::string dir = TempDir("merge-row-sum");
  const GridMeta grid = SmallMeta(GridKind::kConsecutive);
  const Manifest manifest = WriteShards(grid, 2, dir);

  // One bumped cell, rewritten through WriteGridFile: both CRCs are valid,
  // only the counts are wrong.
  const std::string path = manifest.shards[1].path;
  StoredGrid shard;
  ASSERT_TRUE(ReadGridFile(path, &shard).ok());
  shard.cells[3 * CellsPerRow(grid.kind) + 7] += 1;
  ASSERT_TRUE(WriteGridFile(path, shard.meta, shard.cells).ok());

  StoredGrid merged;
  IoStatus status =
      MergeShardGridsEx(manifest, dir + "/x.manifest", {}, &merged, nullptr);
  ASSERT_FALSE(status.ok());
  EXPECT_FALSE(status.transient());  // a data error: retrying cannot help
  const std::string& message = status.message();
  EXPECT_NE(message.find(path), std::string::npos) << message;
  EXPECT_NE(message.find("row 3"), std::string::npos) << message;
  EXPECT_NE(message.find(std::to_string(shard.meta.samples)), std::string::npos)
      << message;
  EXPECT_NE(message.find(std::to_string(shard.meta.samples + 1)), std::string::npos)
      << message;

  // A degraded merge records the shard as missing and keeps none of its rows.
  MergeOptions options;
  options.allow_missing = true;
  MergeOutcome outcome;
  status = MergeShardGridsEx(manifest, dir + "/x.manifest", options, &merged, &outcome);
  ASSERT_TRUE(status.ok()) << status.message();
  ASSERT_EQ(outcome.missing.size(), 1u);
  EXPECT_EQ(outcome.missing[0].index, 1u);
  StoredGrid first;
  ASSERT_TRUE(ReadGridFile(manifest.shards[0].path, &first).ok());
  EXPECT_EQ(merged.meta.samples, first.meta.samples);
  EXPECT_TRUE(std::equal(merged.cells.begin(), merged.cells.end(),
                         first.cells.begin(), first.cells.end()));
}

TEST(MergeTest, RejectsShardWhoseSamplesDisagreeWithItsKeyRange) {
  const std::string dir = TempDir("merge-samples-range");
  const GridMeta grid = SmallMeta(GridKind::kSingleByte);
  const Manifest manifest = WriteShards(grid, 2, dir);
  const std::string path = manifest.shards[0].path;
  StoredGrid shard;
  ASSERT_TRUE(ReadGridFile(path, &shard).ok());
  shard.meta.samples += 1;
  ASSERT_TRUE(WriteGridFile(path, shard.meta, shard.cells).ok());

  StoredGrid merged;
  const IoStatus status =
      MergeShardGridsEx(manifest, dir + "/x.manifest", {}, &merged, nullptr);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find(path), std::string::npos) << status.message();
  EXPECT_NE(status.message().find("implies"), std::string::npos) << status.message();
}

TEST(MergeTest, RejectsBaseWhoseRowDoesNotSumToItsSamples) {
  const std::string dir = TempDir("merge-base-row-sum");
  const GridMeta grid = SmallMeta(GridKind::kConsecutive);
  const Manifest manifest = WriteShards(grid, 2, dir);
  GridMeta prefix = grid;
  prefix.key_end = manifest.shards[0].key_end;
  StoredGrid base = GenerateStoredGrid(prefix, 1, 0);
  base.cells[0] += 1;
  MergeOptions options;
  options.base = &base;
  StoredGrid merged;
  const IoStatus status =
      MergeShardGridsEx(manifest, dir + "/x.manifest", options, &merged, nullptr);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("incremental base: row 0"), std::string::npos)
      << status.message();
}

TEST(MergeTest, MergedSamplesAreTheShardSum) {
  const std::string dir = TempDir("merge-samples");
  const GridMeta grid = SmallMeta(GridKind::kConsecutive);
  const Manifest manifest = WriteShards(grid, 4, dir);
  StoredGrid merged;
  ASSERT_TRUE(
      MergeShardGridsEx(manifest, dir + "/x.manifest", {}, &merged, nullptr).ok());
  EXPECT_EQ(merged.meta.samples, grid.keys());
}

}  // namespace
}  // namespace rc4b::store
