// GridCache warm-start contract (docs/store.md): a cached grid is loaded
// only when its provenance matches exactly and is bit-identical to
// regenerating; anything else regenerates — never a silent wrong answer.
#include "src/store/grid_cache.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "src/recovery/scenario.h"
#include "src/store/shard_runner.h"

namespace rc4b::store {
namespace {

std::string FreshDir(const char* name) {
  const std::string dir = std::string(::testing::TempDir()) + "/" + name;
  MakeDirs(dir);
  return dir;
}

DatasetOptions SmallOptions(const std::string& cache_dir) {
  DatasetOptions options;
  options.keys = 1024;
  options.seed = 41;
  options.workers = 2;
  options.cache_dir = cache_dir;
  return options;
}

template <typename Grid>
void ExpectSameGrid(const Grid& a, const Grid& b) {
  EXPECT_EQ(a.keys(), b.keys());
  ASSERT_EQ(a.Cells().size(), b.Cells().size());
  EXPECT_TRUE(std::equal(a.Cells().begin(), a.Cells().end(), b.Cells().begin()));
}

TEST(GridCacheTest, SingleByteWarmStartIsBitExact) {
  const std::string dir = FreshDir("cache-sb");
  const DatasetOptions cached = SmallOptions(dir);
  DatasetOptions fresh = cached;
  fresh.cache_dir.clear();

  const SingleByteGrid first = GenerateSingleByteDataset(12, cached);
  // The miss stored a grid file in the cache directory.
  const std::string path = GridCache(dir).PathFor(MetaForSingleByte(12, cached));
  StoredGrid stored;
  EXPECT_TRUE(ReadGridFile(path, &stored).ok());

  const SingleByteGrid warm = GenerateSingleByteDataset(12, cached);
  const SingleByteGrid reference = GenerateSingleByteDataset(12, fresh);
  ExpectSameGrid(warm, first);
  ExpectSameGrid(warm, reference);
}

TEST(GridCacheTest, EveryDigraphFamilyWarmStartsBitExactly) {
  const std::string dir = FreshDir("cache-digraph");
  const DatasetOptions cached = SmallOptions(dir);
  DatasetOptions fresh = cached;
  fresh.cache_dir.clear();

  ExpectSameGrid(GenerateConsecutiveDataset(4, cached),
                 GenerateConsecutiveDataset(4, fresh));
  ExpectSameGrid(GenerateConsecutiveDataset(4, cached),  // now a cache hit
                 GenerateConsecutiveDataset(4, fresh));

  const std::vector<std::pair<uint32_t, uint32_t>> pairs = {{1, 2}, {2, 300}};
  ExpectSameGrid(GeneratePairDataset(pairs, cached),
                 GeneratePairDataset(pairs, fresh));
  ExpectSameGrid(GeneratePairDataset(pairs, cached),
                 GeneratePairDataset(pairs, fresh));

  LongTermOptions lt;
  lt.keys = 4;
  lt.bytes_per_key = 2048;
  lt.drop = 256;
  lt.seed = 41;
  lt.workers = 2;
  LongTermOptions lt_cached = lt;
  lt_cached.cache_dir = dir;
  ExpectSameGrid(GenerateLongTermDigraphDataset(lt_cached),
                 GenerateLongTermDigraphDataset(lt));
  ExpectSameGrid(GenerateLongTermDigraphDataset(lt_cached),
                 GenerateLongTermDigraphDataset(lt));
}

TEST(GridCacheTest, DistinctProvenanceGetsDistinctFiles) {
  const GridCache cache("/cache");
  const DatasetOptions options = SmallOptions("/cache");
  DatasetOptions other = options;
  other.seed = 42;
  EXPECT_NE(cache.PathFor(MetaForSingleByte(12, options)),
            cache.PathFor(MetaForSingleByte(12, other)));
  EXPECT_NE(cache.PathFor(MetaForSingleByte(12, options)),
            cache.PathFor(MetaForSingleByte(13, options)));
  EXPECT_NE(cache.PathFor(MetaForPair({{1, 2}}, options)),
            cache.PathFor(MetaForPair({{1, 3}}, options)));
}

TEST(GridCacheTest, CorruptCacheFileIsRegeneratedCorrectly) {
  const std::string dir = FreshDir("cache-corrupt");
  const DatasetOptions cached = SmallOptions(dir);
  DatasetOptions fresh = cached;
  fresh.cache_dir.clear();

  GenerateSingleByteDataset(6, cached);  // populate
  const std::string path = GridCache(dir).PathFor(MetaForSingleByte(6, cached));
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "scribbled over";
  }
  StoredGrid probe;
  EXPECT_FALSE(GridCache(dir).TryLoad(MetaForSingleByte(6, cached), &probe).ok());

  // The corrupt file is rejected, regenerated and re-stored.
  ExpectSameGrid(GenerateSingleByteDataset(6, cached),
                 GenerateSingleByteDataset(6, fresh));
  EXPECT_TRUE(GridCache(dir).TryLoad(MetaForSingleByte(6, cached), &probe).ok());
}

TEST(GridCacheTest, TruncatedCacheFileIsRegeneratedCorrectly) {
  const std::string dir = FreshDir("cache-truncated");
  const DatasetOptions cached = SmallOptions(dir);
  DatasetOptions fresh = cached;
  fresh.cache_dir.clear();

  GenerateSingleByteDataset(6, cached);  // populate
  const std::string path = GridCache(dir).PathFor(MetaForSingleByte(6, cached));
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
  EXPECT_FALSE(GridCache(dir).TryLoad(MetaForSingleByte(6, cached), &probe).ok());

  ExpectSameGrid(GenerateSingleByteDataset(6, cached),
                 GenerateSingleByteDataset(6, fresh));
  EXPECT_TRUE(GridCache(dir).TryLoad(MetaForSingleByte(6, cached), &probe).ok());
}

TEST(GridCacheTest, ForeignProvenanceEntryIsRejectedAndReplaced) {
  const std::string dir = FreshDir("cache-foreign");
  const DatasetOptions cached = SmallOptions(dir);
  DatasetOptions fresh = cached;
  fresh.cache_dir.clear();

  GenerateSingleByteDataset(6, cached);  // populate
  const std::string path = GridCache(dir).PathFor(MetaForSingleByte(6, cached));

  // Overwrite the entry with a structurally valid grid file generated under
  // a different seed — checksums pass, provenance must not.
  DatasetOptions other = cached;
  other.seed = cached.seed + 1;
  other.cache_dir.clear();
  GridMeta foreign_meta = MetaForSingleByte(6, other);
  const StoredGrid foreign = GenerateStoredGrid(foreign_meta, 1, 0);
  ASSERT_TRUE(WriteGridFile(path, foreign.meta, foreign.cells).ok());

  StoredGrid probe;
  const IoStatus status =
      GridCache(dir).TryLoad(MetaForSingleByte(6, cached), &probe);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("seed"), std::string::npos);

  // The poisoned entry is never used: the next request regenerates the true
  // grid and stores it back over the impostor.
  ExpectSameGrid(GenerateSingleByteDataset(6, cached),
                 GenerateSingleByteDataset(6, fresh));
  EXPECT_TRUE(GridCache(dir).TryLoad(MetaForSingleByte(6, cached), &probe).ok());
  EXPECT_EQ(probe.meta.seed, cached.seed);
}

TEST(GridCacheTest, MissingFileReportsPath) {
  const GridCache cache(FreshDir("cache-miss"));
  StoredGrid probe;
  const IoStatus status =
      cache.TryLoad(MetaForSingleByte(6, SmallOptions(cache.dir())), &probe);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find(cache.dir()), std::string::npos);
}

TEST(GridCacheTest, ShardSlicesBypassTheCache) {
  const std::string dir = FreshDir("cache-shard");
  DatasetOptions options = SmallOptions(dir);
  options.first_key = 512;  // a distributed slice, not a cacheable dataset
  GenerateSingleByteDataset(6, options);
  // Nothing was stored: the probe for the full-range dataset still misses.
  StoredGrid probe;
  GridMeta want = MetaForSingleByte(6, options);
  EXPECT_FALSE(GridCache(dir).TryLoad(want, &probe).ok());
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
