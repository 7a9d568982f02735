#include "src/store/grid_cache.h"

#include <cstdio>
#include <vector>

#include "src/crypto/crc32.h"
#include "src/store/shard_runner.h"

namespace rc4b::store {

std::string GridCachePath(const std::string& dir, const GridMeta& meta) {
  std::string name = std::string(GridKindName(meta.kind)) + "-r" +
                     std::to_string(meta.rows) + "-s" +
                     std::to_string(meta.seed) + "-k" +
                     std::to_string(meta.key_begin) + "-" +
                     std::to_string(meta.key_end) + "-d" +
                     std::to_string(meta.drop) + "-b" +
                     std::to_string(meta.bytes_per_key);
  if (!meta.pairs.empty()) {
    // The pair list is too long for a file name; fingerprint it. A load
    // still compares the full list from the stored metadata.
    std::vector<uint8_t> bytes;
    bytes.reserve(meta.pairs.size() * 8);
    for (const auto& [a, b] : meta.pairs) {
      for (const uint32_t v : {a, b}) {
        bytes.push_back(static_cast<uint8_t>(v));
        bytes.push_back(static_cast<uint8_t>(v >> 8));
        bytes.push_back(static_cast<uint8_t>(v >> 16));
        bytes.push_back(static_cast<uint8_t>(v >> 24));
      }
    }
    name += "-p" + std::to_string(Crc32(bytes));
  }
  return dir + "/" + name + ".grid";
}

StoredGrid LoadOrGenerateGrid(const GridMeta& meta, unsigned workers,
                              const std::string& cache_dir) {
  if (cache_dir.empty()) {
    return GenerateStoredGrid(meta, workers, 0);
  }
  const std::string path = GridCachePath(cache_dir, meta);
  StoredGrid stored;
  IoStatus status = ReadGridFile(path, &stored);
  if (status.ok()) {
    status = CheckSlice(meta, stored.meta, Coverage::kExact, path);
    if (status.ok()) {
      return stored;
    }
  }
  if (PathExists(path)) {
    // Present but unusable (corrupt or different provenance): report, then
    // fall through to regeneration — never use a mismatched grid silently.
    std::fprintf(stderr, "grid cache: regenerating: %s\n",
                 status.message().c_str());
  }
  stored = GenerateStoredGrid(meta, workers, 0);
  if (IoStatus made = MakeDirs(cache_dir); !made.ok()) {
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

}  // namespace rc4b::store
