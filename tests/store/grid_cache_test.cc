// Grid cache warm-start contract (docs/store.md): a cached grid is loaded
// only when its provenance matches exactly and is bit-identical to
// regenerating; anything else regenerates — never a silent wrong answer.
#include "src/store/grid_cache.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "src/recovery/scenario.h"
#include "src/store/manifest.h"
#include "src/store/merge.h"
#include "src/store/shard_runner.h"

namespace rc4b::store {
namespace {

// An empty directory: a cache left by an earlier run of the test would turn
// its misses into hits.
std::string FreshDir(const char* name) {
  const std::string dir = std::string(::testing::TempDir()) + "/" + name;
  std::filesystem::remove_all(dir);
  MakeDirs(dir);
  return dir;
}

GridMeta SmallMeta(GridKind kind, uint64_t rows) {
  GridMeta meta;
  meta.kind = kind;
  meta.seed = 41;
  meta.key_end = 1024;
  meta.rows = rows;
  return meta;
}

constexpr unsigned kWorkers = 2;

// The probe LoadOrGenerateGrid accepts as a hit: the file at GridCachePath
// holds exactly `want`'s slice. Never generates.
IoStatus Probe(const std::string& dir, const GridMeta& want, StoredGrid* out) {
  const std::string path = GridCachePath(dir, want);
  if (IoStatus status = ReadGridFile(path, out); !status.ok()) {
    return status;
  }
  return CheckSlice(want, out->meta, Coverage::kExact, path);
}

void ExpectSameGrid(const StoredGrid& a, const StoredGrid& b) {
  EXPECT_EQ(a.meta.samples, b.meta.samples);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  EXPECT_TRUE(std::equal(a.cells.begin(), a.cells.end(), b.cells.begin()));
}

// Cached and uncached requests for `meta` agree, twice: the first call may
// fill the cache, the second must be a hit.
void ExpectWarmStartIsBitExact(const GridMeta& meta, const std::string& dir) {
  const StoredGrid fresh = LoadOrGenerateGrid(meta, kWorkers, "");
  ExpectSameGrid(LoadOrGenerateGrid(meta, kWorkers, dir), fresh);
  StoredGrid probe;
  EXPECT_TRUE(Probe(dir, meta, &probe).ok());
  ExpectSameGrid(LoadOrGenerateGrid(meta, kWorkers, dir), fresh);
}

TEST(GridCacheTest, SingleByteWarmStartIsBitExact) {
  const std::string dir = FreshDir("cache-sb");
  const GridMeta meta = SmallMeta(GridKind::kSingleByte, 12);
  ExpectWarmStartIsBitExact(meta, dir);
  // The miss stored a grid file in the cache directory.
  StoredGrid stored;
  EXPECT_TRUE(ReadGridFile(GridCachePath(dir, meta), &stored).ok());
}

TEST(GridCacheTest, EveryDigraphFamilyWarmStartsBitExactly) {
  const std::string dir = FreshDir("cache-digraph");
  ExpectWarmStartIsBitExact(SmallMeta(GridKind::kConsecutive, 4), dir);

  GridMeta pairs = SmallMeta(GridKind::kPair, 2);
  pairs.pairs = {{1, 2}, {2, 300}};
  ExpectWarmStartIsBitExact(pairs, dir);

  GridMeta long_term;
  long_term.kind = GridKind::kLongTermDigraph;
  long_term.seed = 41;
  long_term.key_end = 4;
  long_term.rows = 256;
  long_term.drop = 256;
  long_term.bytes_per_key = 2048;
  ExpectWarmStartIsBitExact(long_term, dir);
}

TEST(GridCacheTest, DistinctProvenanceGetsDistinctFiles) {
  const GridMeta meta = SmallMeta(GridKind::kSingleByte, 12);
  // The name scheme is what lets an existing cache directory stay valid.
  EXPECT_EQ(GridCachePath("/cache", meta),
            "/cache/singlebyte-r12-s41-k0-1024-d0-b0.grid");
  GridMeta other = meta;
  other.seed = 42;
  EXPECT_NE(GridCachePath("/cache", meta), GridCachePath("/cache", other));
  EXPECT_NE(GridCachePath("/cache", meta),
            GridCachePath("/cache", SmallMeta(GridKind::kSingleByte, 13)));
  GridMeta pair_a = SmallMeta(GridKind::kPair, 1);
  pair_a.pairs = {{1, 2}};
  GridMeta pair_b = pair_a;
  pair_b.pairs = {{1, 3}};
  EXPECT_NE(GridCachePath("/cache", pair_a), GridCachePath("/cache", pair_b));
}

TEST(GridCacheTest, CorruptCacheFileIsRegeneratedCorrectly) {
  const std::string dir = FreshDir("cache-corrupt");
  const GridMeta meta = SmallMeta(GridKind::kSingleByte, 6);

  LoadOrGenerateGrid(meta, kWorkers, dir);  // populate
  {
    std::ofstream out(GridCachePath(dir, meta), std::ios::binary | std::ios::trunc);
    out << "scribbled over";
  }
  StoredGrid probe;
  EXPECT_FALSE(Probe(dir, meta, &probe).ok());

  // The corrupt file is rejected, regenerated and re-stored.
  ExpectSameGrid(LoadOrGenerateGrid(meta, kWorkers, dir),
                 LoadOrGenerateGrid(meta, kWorkers, ""));
  EXPECT_TRUE(Probe(dir, meta, &probe).ok());
}

TEST(GridCacheTest, TruncatedCacheFileIsRegeneratedCorrectly) {
  const std::string dir = FreshDir("cache-truncated");
  const GridMeta meta = SmallMeta(GridKind::kSingleByte, 6);

  LoadOrGenerateGrid(meta, kWorkers, dir);  // populate
  const std::string path = GridCachePath(dir, meta);
  // Cut the file mid-payload: a torn copy or a disk that filled up. The
  // header still parses, so only the length/checksum validation catches it.
  StoredGrid stored;
  ASSERT_TRUE(ReadGridFile(path, &stored).ok());
  {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  StoredGrid probe;
  EXPECT_FALSE(Probe(dir, meta, &probe).ok());

  ExpectSameGrid(LoadOrGenerateGrid(meta, kWorkers, dir),
                 LoadOrGenerateGrid(meta, kWorkers, ""));
  EXPECT_TRUE(Probe(dir, meta, &probe).ok());
}

TEST(GridCacheTest, ForeignProvenanceEntryIsRejectedAndReplaced) {
  const std::string dir = FreshDir("cache-foreign");
  const GridMeta meta = SmallMeta(GridKind::kSingleByte, 6);

  LoadOrGenerateGrid(meta, kWorkers, dir);  // populate

  // Overwrite the entry with a structurally valid grid file generated under
  // a different seed — checksums pass, provenance must not.
  GridMeta foreign_meta = meta;
  foreign_meta.seed = meta.seed + 1;
  const StoredGrid foreign = GenerateStoredGrid(foreign_meta, 1, 0);
  ASSERT_TRUE(
      WriteGridFile(GridCachePath(dir, meta), foreign.meta, foreign.cells).ok());

  StoredGrid probe;
  const IoStatus status = Probe(dir, meta, &probe);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("seed"), std::string::npos);

  // The poisoned entry is never used: the next request regenerates the true
  // grid and stores it back over the impostor.
  ExpectSameGrid(LoadOrGenerateGrid(meta, kWorkers, dir),
                 LoadOrGenerateGrid(meta, kWorkers, ""));
  EXPECT_TRUE(Probe(dir, meta, &probe).ok());
  EXPECT_EQ(probe.meta.seed, meta.seed);
}

TEST(GridCacheTest, MissingFileIsAQuietMiss) {
  const std::string dir = FreshDir("cache-miss");
  const GridMeta meta = SmallMeta(GridKind::kSingleByte, 6);
  StoredGrid probe;
  const IoStatus status = Probe(dir, meta, &probe);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find(dir), std::string::npos);

  // A miss is not a warning: the grid is generated and stored silently.
  ::testing::internal::CaptureStderr();
  LoadOrGenerateGrid(meta, kWorkers, dir);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
  EXPECT_TRUE(Probe(dir, meta, &probe).ok());
}

TEST(GridCacheTest, ShardSlicesAreCachedUnderTheirOwnRange) {
  const std::string dir = FreshDir("cache-shard");
  const GridMeta full = SmallMeta(GridKind::kSingleByte, 6);
  GridMeta slice = full;  // a distributed slice of another key range
  slice.key_begin = 512;
  slice.key_end = 512 + full.keys();

  ExpectSameGrid(LoadOrGenerateGrid(slice, kWorkers, dir),
                 GenerateStoredGrid(slice, kWorkers, 0));
  StoredGrid probe;
  EXPECT_TRUE(Probe(dir, slice, &probe).ok());
  EXPECT_NE(GridCachePath(dir, slice), GridCachePath(dir, full));
  // The slice never answers the full-range request.
  EXPECT_FALSE(Probe(dir, full, &probe).ok());
  ExpectSameGrid(LoadOrGenerateGrid(full, kWorkers, dir),
                 GenerateStoredGrid(full, kWorkers, 0));
}

TEST(GridCacheTest, MergedDistributedGridIsAWarmHit) {
  // docs/store.md: a merged grid_plan / grid_gen / grid_merge result drops
  // straight into a cache directory under GridCachePath.
  const std::string dir = FreshDir("cache-merged");
  const std::string manifest_path = dir + "/plan.manifest";
  const Manifest manifest =
      PlanShards(SmallMeta(GridKind::kConsecutive, 3), 3, dir + "/plan");
  ASSERT_TRUE(WriteManifest(manifest_path, manifest).ok());
  ShardRunOptions options;
  options.workers = kWorkers;
  for (uint32_t s = 0; s < manifest.shards.size(); ++s) {
    ShardRunResult result;
    ASSERT_TRUE(RunShard(manifest, manifest_path, s, options, &result).ok());
  }
  StoredGrid merged;
  ASSERT_TRUE(
      MergeShardGridsEx(manifest, manifest_path, {}, &merged, nullptr).ok());

  const std::string cache = FreshDir("cache-merged/cache");
  const std::string path = GridCachePath(cache, manifest.grid);
  ASSERT_TRUE(WriteGridFile(path, merged.meta, merged.cells).ok());
  struct stat before {};
  ASSERT_EQ(stat(path.c_str(), &before), 0);

  ::testing::internal::CaptureStderr();
  const StoredGrid loaded = LoadOrGenerateGrid(manifest.grid, kWorkers, cache);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
  ExpectSameGrid(loaded, merged);

  // Loaded, not regenerated: the file was never rewritten.
  struct stat after {};
  ASSERT_EQ(stat(path.c_str(), &after), 0);
  EXPECT_EQ(after.st_ino, before.st_ino);
  EXPECT_EQ(after.st_size, before.st_size);
  EXPECT_EQ(after.st_mtim.tv_sec, before.st_mtim.tv_sec);
  EXPECT_EQ(after.st_mtim.tv_nsec, before.st_mtim.tv_nsec);
}

TEST(GridCacheTest, ScenarioWarmStartMatchesColdRun) {
  const recovery::Scenario* scenario =
      recovery::FindScenario(recovery::BuiltinScenarios(), "singlebyte-beyond256");
  ASSERT_NE(scenario, nullptr);

  recovery::ScenarioParams params;
  params.trials = 2;
  params.workers = 2;
  params.seed = 5;
  params.model_keys = 1 << 10;
  params.samples = 1 << 8;
  params.budget = 1 << 8;
  const auto cold = recovery::RunScenario(*scenario, params);

  params.grid_cache = FreshDir("cache-scenario");
  const auto first = recovery::RunScenario(*scenario, params);  // populates the cache
  const auto warm = recovery::RunScenario(*scenario, params);   // loads the stored grid
  EXPECT_EQ(first, cold);
  EXPECT_EQ(warm, cold);
}

}  // namespace
}  // namespace rc4b::store
