// Shard manifests for distributed grid generation (docs/store.md).
//
// A manifest splits one logical dataset — a GridMeta covering the global key
// range [key_begin, key_end) — into N independent shards, each owning a
// contiguous sub-range and an output path. Separate processes (or hosts
// sharing a filesystem) run one shard each through store::RunShard; because
// the engine indexes keys globally (EngineOptions::first_key), the merged
// partial grids are bit-identical to a single-process run over the whole
// range. The format is a line-based text file so operators can read, edit
// and template it:
//
//   rc4b-grid-manifest 1
//   kind consecutive
//   seed 42
//   key_begin 0
//   key_end 1048576
//   rows 256
//   drop 0
//   bytes_per_key 0
//   pairs 1:2,1:257          # kind pair only
//   shard 0 262144 grid-shard0.grid
//   shard 262144 524288 grid-shard1.grid
//   ...
//
// Shard paths are relative to the manifest's directory (absolute paths pass
// through), so a manifest plus its shard files relocate as a unit.
#ifndef SRC_STORE_MANIFEST_H_
#define SRC_STORE_MANIFEST_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/store/grid_file.h"

namespace rc4b::store {

struct ShardEntry {
  uint64_t key_begin = 0;  // global key sub-range [key_begin, key_end)
  uint64_t key_end = 0;
  std::string path;  // shard grid file, relative to the manifest
};

struct Manifest {
  GridMeta grid;  // full-range provenance; samples/interleave stay 0
  std::vector<ShardEntry> shards;
};

// Splits grid.keys() into `shard_count` contiguous near-equal shards with
// paths "<prefix>-shard<i>.grid". The exact split does not affect the merged
// counts — any tiling of the range merges bit-exactly.
Manifest PlanShards(const GridMeta& grid, uint32_t shard_count,
                    const std::string& prefix);

// Grows `manifest` to cover [grid.key_begin, new_key_end): appends
// `added_shards` near-equal shards over the new tail [old key_end,
// new_key_end), numbered after the existing ones with paths
// "<prefix>-shard<i>.grid". Existing shard entries are untouched, so their
// finished grid files — and a previous merge ending at the old key_end —
// stay valid; an incrementally grown campaign only runs and merges the new
// shards (see MergeShardGridsEx base in merge.h). Fails if new_key_end does
// not extend the current range or added_shards is 0.
IoStatus ExtendManifestPlan(Manifest* manifest, uint64_t new_key_end,
                            uint32_t added_shards, const std::string& prefix);

// Validates shard coverage: shards must tile [grid.key_begin, grid.key_end)
// exactly — sorted, no gaps, no overlaps, none empty.
IoStatus ValidateManifest(const Manifest& manifest, const std::string& context);

// The provenance shard `index`'s files must carry: the manifest's dataset
// over the shard's key range (check them with CheckSlice).
GridMeta ShardMeta(const Manifest& manifest, uint32_t index);

// Serializes atomically / parses with field-level diagnostics.
IoStatus WriteManifest(const std::string& path, const Manifest& manifest);
IoStatus ReadManifest(const std::string& path, Manifest* out);

// Parses the manifest's pair syntax, "a:b,c:d,..." with decimal positions,
// into `out`; empty text yields an empty list. Anything else fails with a
// diagnostic prefixed by `context`. Position ranges are checked later, by
// ValidateMeta.
IoStatus ParsePairs(std::string_view text, const std::string& context,
                    std::vector<std::pair<uint32_t, uint32_t>>* out);

// Resolves a manifest-relative shard path against the manifest's directory.
std::string ResolveManifestPath(const std::string& manifest_path,
                                const std::string& shard_path);

// The default shard-file prefix for a manifest: its file name minus the
// extension ("runs/consec.manifest" -> "consec"). Shard paths are relative
// to the manifest, so the prefix never repeats the manifest's directory.
std::string DefaultShardPrefix(const std::string& manifest_path);

// Where a shard checkpoints partial progress (shard output path + ".ckpt").
std::string CheckpointPath(const std::string& shard_path);

}  // namespace rc4b::store

#endif  // SRC_STORE_MANIFEST_H_
