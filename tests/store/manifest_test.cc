#include "src/store/manifest.h"

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

namespace rc4b::store {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

GridMeta PairMeta() {
  GridMeta grid;
  grid.kind = GridKind::kPair;
  grid.seed = 3;
  grid.key_begin = 0;
  grid.key_end = 1000;
  grid.pairs = {{1, 2}, {1, 257}};
  grid.rows = 2;
  return grid;
}

TEST(ManifestTest, PlanShardsTilesTheRangeExactly) {
  GridMeta grid = PairMeta();
  const Manifest manifest = PlanShards(grid, 3, "out/pair");
  ASSERT_EQ(manifest.shards.size(), 3u);
  EXPECT_EQ(manifest.shards[0].path, "out/pair-shard0.grid");
  uint64_t covered = 0;
  uint64_t next = grid.key_begin;
  for (const ShardEntry& shard : manifest.shards) {
    EXPECT_EQ(shard.key_begin, next);
    next = shard.key_end;
    covered += shard.key_end - shard.key_begin;
  }
  EXPECT_EQ(next, grid.key_end);
  EXPECT_EQ(covered, grid.keys());
  EXPECT_TRUE(ValidateManifest(manifest, "plan").ok());
}

TEST(ManifestTest, ValidateRejectsGapsAndOverlaps) {
  Manifest manifest = PlanShards(PairMeta(), 2, "p");
  manifest.shards[1].key_begin += 1;  // gap
  IoStatus status = ValidateManifest(manifest, "ctx");
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("gap"), std::string::npos);

  manifest = PlanShards(PairMeta(), 2, "p");
  manifest.shards[1].key_begin -= 1;  // overlap
  status = ValidateManifest(manifest, "ctx");
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("overlap"), std::string::npos);
}

TEST(ManifestTest, WriteReadRoundTrip) {
  const std::string path = TempPath("roundtrip.manifest");
  const Manifest manifest = PlanShards(PairMeta(), 4, "pair");
  ASSERT_TRUE(WriteManifest(path, manifest).ok());

  Manifest loaded;
  ASSERT_TRUE(ReadManifest(path, &loaded).ok());
  EXPECT_EQ(loaded.grid, manifest.grid);
  ASSERT_EQ(loaded.shards.size(), manifest.shards.size());
  for (size_t i = 0; i < manifest.shards.size(); ++i) {
    EXPECT_EQ(loaded.shards[i].key_begin, manifest.shards[i].key_begin);
    EXPECT_EQ(loaded.shards[i].key_end, manifest.shards[i].key_end);
    EXPECT_EQ(loaded.shards[i].path, manifest.shards[i].path);
  }
  std::remove(path.c_str());
}

TEST(ManifestTest, ReadRejectsUnknownKeywordWithLineNumber) {
  const std::string path = TempPath("unknown.manifest");
  ASSERT_TRUE(WriteFileAtomic(path,
                              "rc4b-grid-manifest 1\n"
                              "kind singlebyte\n"
                              "banana 7\n")
                  .ok());
  Manifest loaded;
  const IoStatus status = ReadManifest(path, &loaded);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("banana"), std::string::npos);
  EXPECT_NE(status.message().find(path + ":3"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ManifestTest, ReadRejectsWrongHeader) {
  const std::string path = TempPath("header.manifest");
  ASSERT_TRUE(WriteFileAtomic(path, "some-other-format 9\n").ok());
  Manifest loaded;
  const IoStatus status = ReadManifest(path, &loaded);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find(path), std::string::npos);
  std::remove(path.c_str());
}

TEST(ManifestTest, ValidateRejectsPairsOutsideOneToB) {
  // Pair positions are 1-based with a < b. A 0 would make the pair sink
  // index row -1 (a wrapped u32), and b <= a reads past a short keystream
  // row; both must fail validation, not reach the engine.
  for (const auto& pair : {std::pair<uint32_t, uint32_t>{0, 2},
                           std::pair<uint32_t, uint32_t>{5, 3},
                           std::pair<uint32_t, uint32_t>{4, 4}}) {
    Manifest manifest = PlanShards(PairMeta(), 2, "p");
    manifest.grid.pairs[1] = pair;
    const IoStatus status = ValidateManifest(manifest, "ctx");
    EXPECT_FALSE(status.ok()) << pair.first << ":" << pair.second;
    EXPECT_NE(status.message().find("1 <= a < b"), std::string::npos)
        << status.message();
  }
}

TEST(ManifestTest, RejectsLongTermDropOffTheRowGrid) {
  // A long-term digraph shard files keystream offset `off` under row
  // off mod 256, which is (r - 1) mod 256 only when drop is a multiple of
  // 256; any other drop would mislabel every row of every shard.
  GridMeta grid;
  grid.kind = GridKind::kLongTermDigraph;
  grid.seed = 1;
  grid.key_end = 4;
  grid.rows = 256;
  grid.drop = 1000;
  grid.bytes_per_key = 0x1000;
  const std::string path = TempPath("longterm-drop.manifest");
  const IoStatus status = WriteManifest(path, PlanShards(grid, 1, "lt"));
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("drop 1000"), std::string::npos)
      << status.message();

  grid.drop = 1024;
  EXPECT_TRUE(ValidateManifest(PlanShards(grid, 1, "lt"), "ctx").ok());
  grid.drop = 0;
  EXPECT_TRUE(ValidateManifest(PlanShards(grid, 1, "lt"), "ctx").ok());
  std::remove(path.c_str());
}

TEST(ManifestTest, ReadRejectsLongTermGridWithoutAllRows) {
  // The long-term accumulator writes all 256 counter-class rows; a manifest
  // declaring fewer made grid_gen write past the end of the shard grid.
  const std::string path = TempPath("longterm-rows.manifest");
  ASSERT_TRUE(WriteFileAtomic(path,
                              "rc4b-grid-manifest 1\n"
                              "kind longterm-digraph\n"
                              "key_begin 0\n"
                              "key_end 2\n"
                              "rows 16\n"
                              "drop 256\n"
                              "bytes_per_key 4096\n"
                              "shard 0 2 s0.grid\n")
                  .ok());
  Manifest loaded;
  const IoStatus status = ReadManifest(path, &loaded);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("16 rows"), std::string::npos) << status.message();
  std::remove(path.c_str());
}

TEST(ManifestTest, ReadRejectsPairZero) {
  const std::string path = TempPath("pair-zero.manifest");
  ASSERT_TRUE(WriteFileAtomic(path,
                              "rc4b-grid-manifest 1\n"
                              "kind pair\n"
                              "key_begin 0\n"
                              "key_end 64\n"
                              "rows 1\n"
                              "pairs 0:2\n"
                              "shard 0 64 s0.grid\n")
                  .ok());
  Manifest loaded;
  const IoStatus status = ReadManifest(path, &loaded);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("0:2"), std::string::npos) << status.message();
  std::remove(path.c_str());
}

TEST(ManifestTest, ParsePairsIsStrictDecimal) {
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  ASSERT_TRUE(ParsePairs("1:2,3:16", "ctx", &pairs).ok());
  EXPECT_EQ(pairs, (std::vector<std::pair<uint32_t, uint32_t>>{{1, 2}, {3, 16}}));
  ASSERT_TRUE(ParsePairs("", "ctx", &pairs).ok());
  EXPECT_TRUE(pairs.empty());
  for (const char* bad : {"x:2", "1:", ":2", "1-2", "0x1:2", "1:2:3", "-1:2",
                          "1:4294967296", "1:2,"}) {
    const IoStatus status = ParsePairs(bad, "ctx", &pairs);
    EXPECT_FALSE(status.ok()) << bad;
    EXPECT_EQ(status.message().rfind("ctx", 0), 0u) << status.message();
  }
}

TEST(ManifestTest, ResolvesShardPathsAgainstManifestDirectory) {
  EXPECT_EQ(ResolveManifestPath("/data/run/grid.manifest", "s0.grid"),
            "/data/run/s0.grid");
  EXPECT_EQ(ResolveManifestPath("grid.manifest", "s0.grid"), "s0.grid");
  EXPECT_EQ(ResolveManifestPath("/data/run/grid.manifest", "/abs/s0.grid"),
            "/abs/s0.grid");
}

TEST(ManifestTest, DefaultShardPrefixIsTheManifestFileStem) {
  EXPECT_EQ(DefaultShardPrefix("c.manifest"), "c");
  EXPECT_EQ(DefaultShardPrefix("sub/x.manifest"), "x");
  EXPECT_EQ(DefaultShardPrefix("/data/run.d/consec.v2.manifest"), "consec.v2");
  EXPECT_EQ(DefaultShardPrefix("run.d/grid"), "grid");
  EXPECT_EQ(DefaultShardPrefix("runs/.manifest"), ".manifest");
  // The shards it names resolve next to the manifest, not one level deeper.
  const Manifest manifest =
      PlanShards(PairMeta(), 2, DefaultShardPrefix("sub/x.manifest"));
  EXPECT_EQ(ResolveManifestPath("sub/x.manifest", manifest.shards[1].path),
            "sub/x-shard1.grid");
}

TEST(ManifestTest, CheckpointPathAppendsSuffix) {
  EXPECT_EQ(CheckpointPath("a/b.grid"), "a/b.grid.ckpt");
}

}  // namespace
}  // namespace rc4b::store
