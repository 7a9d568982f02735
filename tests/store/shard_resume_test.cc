// The resume contract of docs/store.md: a shard killed between checkpoints
// and rerun produces a final grid byte-identical to an uninterrupted run,
// for every generator family; corrupt state is a loud error.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/rc4/keygen.h"
#include "src/rc4/rc4.h"
#include "src/rc4/rc4_multi.h"
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

// Longterm-digraph cells counted straight from scalar Rc4 streams, with no
// engine, sink or window in between: row (r - 1) mod 256 counts (Z_r, Z_{r+1})
// for the owned positions r after the drop.
AlignedVector<uint64_t> ScalarLongTermDigraphCells(const GridMeta& meta) {
  AlignedVector<uint64_t> cells(meta.cell_count(), 0);
  Rc4KeyGenerator keygen(meta.seed);
  keygen.Seek(meta.key_begin);
  const uint64_t owned = meta.bytes_per_key / 256 * 256;
  std::vector<uint8_t> z(owned + 1);
  for (uint64_t k = meta.key_begin; k < meta.key_end; ++k) {
    Rc4 rc4(keygen.NextKey());
    rc4.Skip(meta.drop);
    rc4.Keystream(z);
    for (uint64_t r = 0; r < owned; ++r) {
      cells[r % 256 * 65536 + static_cast<size_t>(z[r]) * 256 + z[r + 1]] += 1;
    }
  }
  return cells;
}

TEST(ShardResumeTest, ScalarReferencePathStoresIdenticalCells) {
  // For short-term kinds interleave survives below the CLI only as this
  // oracle switch: the scalar path (1) and the lane kernel (0) must store the
  // same cells, with tail groups on both workers. The long-term kind has one
  // engine path, which must store the cells of a direct scalar count, with a
  // lockstep group and a one-lane remainder on both workers
  // (2 * kLaneWidth + 3 keys).
  for (const GridKind kind :
       {GridKind::kSingleByte, GridKind::kConsecutive, GridKind::kPair}) {
    SCOPED_TRACE(GridKindName(kind));
    const GridMeta meta = SmallMeta(kind);
    const StoredGrid scalar = GenerateStoredGrid(meta, 2, 1);
    const StoredGrid lockstep = GenerateStoredGrid(meta, 2, 0);
    EXPECT_EQ(scalar.meta.samples, lockstep.meta.samples);
    EXPECT_EQ(scalar.meta.interleave, 1u);
    EXPECT_EQ(lockstep.meta.interleave, kLaneWidth);
    ASSERT_EQ(scalar.cells.size(), meta.cell_count());
    EXPECT_TRUE(std::equal(scalar.cells.begin(), scalar.cells.end(),
                           lockstep.cells.begin(), lockstep.cells.end()));
  }
  GridMeta meta = SmallMeta(GridKind::kLongTermDigraph);
  meta.key_end = 2 * kLaneWidth + 3;
  const StoredGrid lockstep = GenerateStoredGrid(meta, 2, 0);
  EXPECT_EQ(lockstep.meta.samples, meta.keys() * (meta.bytes_per_key / 256));
  EXPECT_EQ(lockstep.meta.interleave, kLaneWidth);
  EXPECT_TRUE(lockstep.cells == ScalarLongTermDigraphCells(meta));
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

TEST(ShardResumeTest, CheckpointOutsideTheShardIsALoudError) {
  const std::string dir = TempDir("range-ckpt");
  const GridMeta grid = SmallMeta(GridKind::kSingleByte);
  const Manifest manifest = PlanShards(grid, 2, dir + "/duo");
  const ShardEntry& shard = manifest.shards[1];  // keys [2048, 4096)
  const std::string ckpt = CheckpointPath(shard.path);
  std::remove(shard.path.c_str());
  // Same dataset, wrong slice: one checkpoint starts off the shard's first
  // key, the other ends past its last.
  const std::pair<uint64_t, uint64_t> ranges[] = {
      {shard.key_begin + 1, shard.key_begin + 1024},
      {shard.key_begin, shard.key_end + 1}};
  for (const auto& [begin, end] : ranges) {
    GridMeta slice = grid;
    slice.key_begin = begin;
    slice.key_end = end;
    const StoredGrid stale = GenerateStoredGrid(slice, 1, 0);
    ASSERT_TRUE(WriteGridFile(ckpt, stale.meta, stale.cells).ok());

    ShardRunResult result;
    const IoStatus status =
        RunShard(manifest, dir + "/x.manifest", 1, ShardRunOptions{}, &result);
    ASSERT_FALSE(status.ok());
    const std::string& message = status.message();
    EXPECT_NE(message.find(ckpt), std::string::npos) << message;
    const std::string range = std::to_string(begin) + ", " + std::to_string(end) + ")";
    EXPECT_NE(message.find(range), std::string::npos) << message;
    EXPECT_NE(message.find("[2048, 4096)"), std::string::npos) << message;
    EXPECT_FALSE(result.finished);
    EXPECT_FALSE(PathExists(shard.path));
  }
  std::remove(ckpt.c_str());
}

TEST(ShardResumeTest, FinalFileCoveringTheWrongRangeIsALoudError) {
  const std::string dir = TempDir("range-final");
  const GridMeta grid = SmallMeta(GridKind::kSingleByte);
  const Manifest manifest = PlanShards(grid, 2, dir + "/duo");
  // Shard 0's output holds shard 1's slice of the same dataset.
  GridMeta slice = grid;
  slice.key_begin = manifest.shards[1].key_begin;
  slice.key_end = manifest.shards[1].key_end;
  const StoredGrid other = GenerateStoredGrid(slice, 1, 0);
  const std::string path = manifest.shards[0].path;
  ASSERT_TRUE(WriteGridFile(path, other.meta, other.cells).ok());

  ShardRunResult result;
  const IoStatus status =
      RunShard(manifest, dir + "/x.manifest", 0, ShardRunOptions{}, &result);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find(path), std::string::npos) << status.message();
  EXPECT_NE(status.message().find("[2048, 4096)"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("[0, 2048)"), std::string::npos) << status.message();
  EXPECT_FALSE(result.finished);
  std::remove(path.c_str());
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
