// The resume contract of docs/store.md: a shard killed between checkpoints
// and rerun produces a final grid byte-identical to an uninterrupted run,
// for every generator family; corrupt state is a loud error.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "src/store/merge.h"
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
  meta.seed = 31;
  meta.key_begin = 0;
  meta.key_end = 4096;
  switch (kind) {
    case GridKind::kSingleByte:
    case GridKind::kConsecutive:
      meta.rows = 5;
      break;
    case GridKind::kPair:
      meta.pairs = {{2, 4}};
      meta.rows = 1;
      break;
    case GridKind::kLongTermDigraph:
      meta.rows = 256;
      meta.key_end = 8;
      meta.drop = 256;
      meta.bytes_per_key = 2048;
      break;
  }
  return meta;
}

TEST(ShardResumeTest, KilledShardResumesBitExactlyForEveryKind) {
  for (const GridKind kind :
       {GridKind::kSingleByte, GridKind::kConsecutive, GridKind::kPair,
        GridKind::kLongTermDigraph}) {
    SCOPED_TRACE(GridKindName(kind));
    const std::string dir = TempDir("resume");
    const GridMeta grid = SmallMeta(kind);
    const Manifest manifest = PlanShards(grid, 1, dir + "/solo");
    const std::string manifest_path = dir + "/x.manifest";
    const std::string shard_path = manifest.shards[0].path;
    // The temp dir persists across suite runs; start from a clean slate.
    std::remove(shard_path.c_str());
    std::remove(CheckpointPath(shard_path).c_str());

    ShardRunOptions options;
    options.workers = 2;
    options.checkpoint_keys = grid.keys() / 4;
    options.stop_after_keys = grid.keys() / 4;  // "crash" after one step

    ShardRunResult result;
    ASSERT_TRUE(RunShard(manifest, manifest_path, 0, options, &result).ok());
    EXPECT_FALSE(result.finished);
    StoredGrid ignored;
    EXPECT_TRUE(ReadGridFile(CheckpointPath(shard_path), &ignored).ok());

    options.stop_after_keys = 0;  // run the rest to completion
    ASSERT_TRUE(RunShard(manifest, manifest_path, 0, options, &result).ok());
    EXPECT_TRUE(result.finished);
    EXPECT_TRUE(result.resumed);
    EXPECT_EQ(result.keys_completed, grid.keys());
    // The checkpoint is cleaned up once the final grid lands.
    EXPECT_FALSE(ReadGridFile(CheckpointPath(shard_path), &ignored).ok());

    StoredGrid resumed;
    ASSERT_TRUE(ReadGridFile(shard_path, &resumed).ok());
    const StoredGrid straight = GenerateStoredGrid(grid, 2, 0);
    EXPECT_TRUE(
        CheckGridsEqual(straight, resumed, "uninterrupted", "resumed").ok());
    std::remove(shard_path.c_str());
  }
}

TEST(ShardResumeTest, ScalarReferencePathStoresIdenticalCells) {
  // interleave survives below the CLI only as this oracle switch: the
  // scalar path (1) and the lane kernel (0) must store the same cells, with
  // tail groups on both workers (2 * kLaneWidth + 3 long-term keys).
  for (const GridKind kind :
       {GridKind::kSingleByte, GridKind::kConsecutive, GridKind::kPair,
        GridKind::kLongTermDigraph}) {
    SCOPED_TRACE(GridKindName(kind));
    GridMeta meta = SmallMeta(kind);
    if (kind == GridKind::kLongTermDigraph) {
      meta.key_end = 19;
    }
    const StoredGrid scalar = GenerateStoredGrid(meta, 2, 1);
    const StoredGrid lockstep = GenerateStoredGrid(meta, 2, 0);
    EXPECT_EQ(scalar.meta.samples, lockstep.meta.samples);
    EXPECT_EQ(scalar.meta.interleave, 1u);
    EXPECT_EQ(lockstep.meta.interleave, 8u);
    ASSERT_EQ(scalar.cells.size(), meta.cell_count());
    EXPECT_TRUE(std::equal(scalar.cells.begin(), scalar.cells.end(),
                           lockstep.cells.begin(), lockstep.cells.end()));
  }
}

TEST(ShardResumeTest, FinishedShardIsIdempotent) {
  const std::string dir = TempDir("idempotent");
  const Manifest manifest =
      PlanShards(SmallMeta(GridKind::kSingleByte), 1, dir + "/solo");
  // The temp dir persists across suite runs; start from a clean slate.
  std::remove(manifest.shards[0].path.c_str());
  std::remove(CheckpointPath(manifest.shards[0].path).c_str());
  ShardRunResult result;
  ASSERT_TRUE(
      RunShard(manifest, dir + "/x.manifest", 0, ShardRunOptions{}, &result).ok());
  EXPECT_TRUE(result.finished);
  const uint64_t keys_first = result.keys_done;
  EXPECT_GT(keys_first, 0u);

  // Rerunning the same shard touches nothing and generates nothing.
  ASSERT_TRUE(
      RunShard(manifest, dir + "/x.manifest", 0, ShardRunOptions{}, &result).ok());
  EXPECT_TRUE(result.finished);
  EXPECT_EQ(result.keys_done, 0u);
}

TEST(ShardResumeTest, CorruptCheckpointIsALoudError) {
  const std::string dir = TempDir("bad-ckpt");
  const GridMeta grid = SmallMeta(GridKind::kSingleByte);
  const Manifest manifest = PlanShards(grid, 1, dir + "/solo");
  const std::string ckpt = CheckpointPath(manifest.shards[0].path);
  {
    std::ofstream out(ckpt, std::ios::binary);
    out << "garbage checkpoint";
  }
  ShardRunResult result;
  const IoStatus status =
      RunShard(manifest, dir + "/x.manifest", 0, ShardRunOptions{}, &result);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("checkpoint is corrupt"), std::string::npos);
  EXPECT_NE(status.message().find("remove it"), std::string::npos);
  std::remove(ckpt.c_str());
}

TEST(ShardResumeTest, ForeignFinalFileIsALoudError) {
  const std::string dir = TempDir("bad-final");
  const GridMeta grid = SmallMeta(GridKind::kSingleByte);
  const Manifest manifest = PlanShards(grid, 1, dir + "/solo");

  // A valid grid file, but from a different dataset (other seed).
  GridMeta foreign = grid;
  foreign.seed = 777;
  const StoredGrid other = GenerateStoredGrid(foreign, 1, 0);
  ASSERT_TRUE(
      WriteGridFile(manifest.shards[0].path, other.meta, other.cells).ok());

  ShardRunResult result;
  const IoStatus status =
      RunShard(manifest, dir + "/x.manifest", 0, ShardRunOptions{}, &result);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("seed"), std::string::npos);
  std::remove(manifest.shards[0].path.c_str());
}

TEST(ShardResumeTest, ShardIndexOutOfRangeIsAnError) {
  const std::string dir = TempDir("bad-index");
  const Manifest manifest =
      PlanShards(SmallMeta(GridKind::kSingleByte), 2, dir + "/solo");
  ShardRunResult result;
  const IoStatus status =
      RunShard(manifest, dir + "/x.manifest", 5, ShardRunOptions{}, &result);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("out of range"), std::string::npos);
}

}  // namespace
}  // namespace rc4b::store
