// Concurrency stress for the store + engine stack, sized for the TSan CI
// leg: many in-shard workers x many small shards running in parallel
// threads, plus grid cache readers and writers racing on one cache entry.
// Every phase ends with a bit-exactness check against a single-threaded
// reference, so a race that corrupts counters fails loudly even on builds
// without ThreadSanitizer.
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/store/grid_cache.h"
#include "src/store/grid_file.h"
#include "src/store/manifest.h"
#include "src/store/merge.h"
#include "src/store/shard_runner.h"

namespace rc4b::store {
namespace {

std::string TempDirFor(const char* name) {
  const std::string dir = std::string(::testing::TempDir()) + "/" + name;
  MakeDirs(dir);
  return dir;
}

GridMeta StressMeta() {
  GridMeta meta;
  meta.kind = GridKind::kSingleByte;
  meta.seed = 7;
  meta.key_begin = 0;
  meta.key_end = 1 << 10;
  meta.rows = 8;
  return meta;
}

TEST(ConcurrencyStressTest, ManyWorkersManySmallShardsMergeBitExactly) {
  const std::string dir = TempDirFor("stress-shards");
  const GridMeta meta = StressMeta();
  const std::string manifest_path = dir + "/stress.manifest";
  const Manifest manifest = PlanShards(meta, 8, dir + "/stress");
  ASSERT_TRUE(WriteManifest(manifest_path, manifest).ok());

  // Every shard in its own thread, every thread with in-shard workers and a
  // tiny checkpoint cadence: maximum churn through the lock-free counter
  // tiles, the merge mutex, and the checkpoint writer.
  std::vector<std::thread> threads;
  std::vector<IoStatus> results(manifest.shards.size());
  for (size_t s = 0; s < manifest.shards.size(); ++s) {
    threads.emplace_back([&, s] {
      ShardRunOptions options;
      options.workers = 4;
      options.checkpoint_keys = 32;
      ShardRunResult result;
      results[s] = RunShard(manifest, manifest_path, static_cast<uint32_t>(s),
                            options, &result);
      if (results[s].ok() && !result.finished) {
        results[s] = IoStatus::Fail("shard did not finish");
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (size_t s = 0; s < results.size(); ++s) {
    EXPECT_TRUE(results[s].ok()) << "shard " << s << ": "
                                 << results[s].message();
  }

  StoredGrid merged;
  const IoStatus merge_status =
      MergeShardGridsEx(manifest, manifest_path, {}, &merged, nullptr);
  ASSERT_TRUE(merge_status.ok()) << merge_status.message();

  const StoredGrid reference = GenerateStoredGrid(meta, 1, 1);
  ASSERT_EQ(merged.cells.size(), reference.cells.size());
  EXPECT_TRUE(std::equal(merged.cells.begin(), merged.cells.end(),
                         reference.cells.begin()));
}

TEST(ConcurrencyStressTest, ConcurrentCacheReadersSeeOneBitExactGrid) {
  const std::string dir = TempDirFor("stress-cache-read");
  GridMeta meta;
  meta.kind = GridKind::kSingleByte;
  meta.seed = 13;
  meta.key_end = 1 << 9;
  meta.rows = 8;
  const SingleByteGrid reference = ToSingleByteGrid(LoadOrGenerateGrid(meta, 2, dir));

  std::vector<std::thread> threads;
  std::vector<int> matches(8, 0);
  for (size_t t = 0; t < matches.size(); ++t) {
    threads.emplace_back([&, t] {
      const SingleByteGrid grid = ToSingleByteGrid(LoadOrGenerateGrid(meta, 2, dir));
      matches[t] = grid.keys() == reference.keys() &&
                   std::equal(grid.Cells().begin(), grid.Cells().end(),
                              reference.Cells().begin());
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (size_t t = 0; t < matches.size(); ++t) {
    EXPECT_TRUE(matches[t]) << "reader " << t << " loaded a different grid";
  }
}

TEST(ConcurrencyStressTest, RacingCacheFillsNeverPublishATornFile) {
  const std::string dir = TempDirFor("stress-cache-fill");
  GridMeta meta;
  meta.kind = GridKind::kSingleByte;
  meta.seed = 17;
  meta.key_end = 1 << 9;
  meta.rows = 8;

  // No cache file exists yet: every thread generates and stores the same
  // entry concurrently. Writer-unique temp files (src/common/io.cc) are what
  // keep the final rename from ever publishing interleaved bytes.
  std::vector<std::thread> threads;
  std::vector<int> matches(8, 0);
  const StoredGrid reference = GenerateStoredGrid(meta, 1, 1);
  for (size_t t = 0; t < matches.size(); ++t) {
    threads.emplace_back([&, t] {
      const SingleByteGrid grid = ToSingleByteGrid(LoadOrGenerateGrid(meta, 2, dir));
      matches[t] = std::equal(reference.cells.begin(), reference.cells.end(),
                              grid.Cells().begin(), grid.Cells().end());
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (size_t t = 0; t < matches.size(); ++t) {
    EXPECT_TRUE(matches[t]) << "filler " << t << " produced a different grid";
  }

  // Whatever the race left on disk must be a fully valid cache entry.
  const std::string path = GridCachePath(dir, meta);
  StoredGrid cached;
  IoStatus status = ReadGridFile(path, &cached);
  if (status.ok()) {
    status = CheckSlice(meta, cached.meta, Coverage::kExact, path);
  }
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_TRUE(std::equal(cached.cells.begin(), cached.cells.end(),
                         reference.cells.begin()));
}

}  // namespace
}  // namespace rc4b::store
