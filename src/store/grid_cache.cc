#include "src/store/grid_cache.h"

#include <cstdio>

#include <sys/stat.h>

#include "src/crypto/crc32.h"
#include "src/store/shard_runner.h"

namespace rc4b::store {

namespace {

bool PathExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

GridMeta BaseMeta(GridKind kind, uint64_t keys, uint64_t first_key,
                  uint64_t seed) {
  GridMeta meta;
  meta.kind = kind;
  meta.seed = seed;
  meta.key_begin = first_key;
  meta.key_end = first_key + keys;
  return meta;
}

}  // namespace

GridMeta MetaForSingleByte(size_t positions, const DatasetOptions& options) {
  GridMeta meta = BaseMeta(GridKind::kSingleByte, options.keys,
                           options.first_key, options.seed);
  meta.rows = positions;
  return meta;
}

GridMeta MetaForConsecutive(size_t positions, const DatasetOptions& options) {
  GridMeta meta = BaseMeta(GridKind::kConsecutive, options.keys,
                           options.first_key, options.seed);
  meta.rows = positions;
  return meta;
}

GridMeta MetaForPair(const std::vector<std::pair<uint32_t, uint32_t>>& pairs,
                     const DatasetOptions& options) {
  GridMeta meta =
      BaseMeta(GridKind::kPair, options.keys, options.first_key, options.seed);
  meta.rows = pairs.size();
  meta.pairs = pairs;
  return meta;
}

GridMeta MetaForLongTermDigraph(const LongTermOptions& options) {
  GridMeta meta = BaseMeta(GridKind::kLongTermDigraph, options.keys,
                           options.first_key, options.seed);
  meta.rows = 256;
  meta.drop = options.drop;
  meta.bytes_per_key = options.bytes_per_key;
  return meta;
}

std::string GridCache::PathFor(const GridMeta& want) const {
  std::string name = std::string(GridKindName(want.kind)) + "-r" +
                     std::to_string(want.rows) + "-s" +
                     std::to_string(want.seed) + "-k" +
                     std::to_string(want.key_begin) + "-" +
                     std::to_string(want.key_end) + "-d" +
                     std::to_string(want.drop) + "-b" +
                     std::to_string(want.bytes_per_key);
  if (!want.pairs.empty()) {
    // The pair list is too long for a file name; fingerprint it. TryLoad
    // still compares the full list from the stored metadata.
    std::vector<uint8_t> bytes;
    bytes.reserve(want.pairs.size() * 8);
    for (const auto& [a, b] : want.pairs) {
      for (const uint32_t v : {a, b}) {
        bytes.push_back(static_cast<uint8_t>(v));
        bytes.push_back(static_cast<uint8_t>(v >> 8));
        bytes.push_back(static_cast<uint8_t>(v >> 16));
        bytes.push_back(static_cast<uint8_t>(v >> 24));
      }
    }
    name += "-p" + std::to_string(Crc32(bytes));
  }
  return dir_ + "/" + name + ".grid";
}

IoStatus GridCache::TryLoad(const GridMeta& want, StoredGrid* out) const {
  const std::string path = PathFor(want);
  if (IoStatus status = ReadGridFile(path, out); !status.ok()) {
    return status;
  }
  if (IoStatus status = CheckSameDataset(want, out->meta, path); !status.ok()) {
    return status;
  }
  if (out->meta.key_begin != want.key_begin ||
      out->meta.key_end != want.key_end) {
    return IoStatus::Fail(path + ": cached grid covers keys [" +
                          std::to_string(out->meta.key_begin) + ", " +
                          std::to_string(out->meta.key_end) +
                          "), request wants [" +
                          std::to_string(want.key_begin) + ", " +
                          std::to_string(want.key_end) + ")");
  }
  return IoStatus::Ok();
}

StoredGrid GridCache::LoadOrGenerate(const GridMeta& want, unsigned workers) {
  const std::string path = PathFor(want);
  StoredGrid stored;
  IoStatus status = TryLoad(want, &stored);
  if (status.ok()) {
    return stored;
  }
  if (PathExists(path)) {
    // Present but unusable (corrupt or different provenance): report, then
    // fall through to regeneration — never use a mismatched grid silently.
    std::fprintf(stderr, "grid cache: regenerating: %s\n",
                 status.message().c_str());
  }
  stored = GenerateStoredGrid(want, workers, 0);
  if (IoStatus made = MakeDirs(dir_); !made.ok()) {
    std::fprintf(stderr, "grid cache: %s (grid not stored)\n",
                 made.message().c_str());
    return stored;
  }
  if (IoStatus wrote = WriteGridFile(path, stored.meta, stored.cells);
      !wrote.ok()) {
    std::fprintf(stderr, "grid cache: %s (grid not stored)\n",
                 wrote.message().c_str());
  }
  return stored;
}

SingleByteGrid GridCache::LoadOrGenerateSingleByte(size_t positions,
                                                   DatasetOptions options) {
  const GridMeta want = MetaForSingleByte(positions, options);
  options.cache_dir.clear();  // the generate path must not re-enter the cache
  return ToSingleByteGrid(LoadOrGenerate(want, options.workers));
}

DigraphGrid GridCache::LoadOrGenerateConsecutive(size_t positions,
                                                 DatasetOptions options) {
  const GridMeta want = MetaForConsecutive(positions, options);
  options.cache_dir.clear();
  return ToDigraphGrid(LoadOrGenerate(want, options.workers));
}

DigraphGrid GridCache::LoadOrGeneratePair(
    const std::vector<std::pair<uint32_t, uint32_t>>& pairs,
    DatasetOptions options) {
  const GridMeta want = MetaForPair(pairs, options);
  options.cache_dir.clear();
  return ToDigraphGrid(LoadOrGenerate(want, options.workers));
}

DigraphGrid GridCache::LoadOrGenerateLongTermDigraph(LongTermOptions options) {
  const GridMeta want = MetaForLongTermDigraph(options);
  options.cache_dir.clear();
  return ToDigraphGrid(LoadOrGenerate(want, options.workers));
}

}  // namespace rc4b::store
