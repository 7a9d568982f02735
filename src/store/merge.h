// Bit-exact combination of partial shard grids (docs/store.md).
//
// Merging extends the engine's thread-invariance contract to processes and
// machines: because every shard counts a disjoint slice of one globally
// indexed key stream, summing the 64-bit counter cells reproduces exactly
// the grid a single process would have produced over the whole range.
// Each shard is validated before its cells are added — checksums, format
// version, and the slice rule (CheckSlice: the same dataset, exactly the
// manifest's key range) — and its counts are checked while they are added:
// `samples` must be what the key range implies and every row must sum to it.
// A corrupt, foreign, miscounted or missing shard is always a loud,
// path-qualified error; partial grids are never merged silently.
#ifndef SRC_STORE_MERGE_H_
#define SRC_STORE_MERGE_H_

#include <string>
#include <vector>

#include "src/store/grid_file.h"
#include "src/store/manifest.h"

namespace rc4b::store {

struct MergeOptions {
  // Incremental re-merge: a previously merged grid over a prefix of the
  // manifest's key range. Its cells are the starting sum and every shard it
  // already covers is skipped — so after ExtendManifestPlan grows a
  // campaign, only the new shards' files need to exist (or be regenerated).
  // The base must hold a prefix of the manifest's slice (CheckSlice) that
  // ends exactly on a shard boundary, and its counts are checked like a
  // shard's.
  const StoredGrid* base = nullptr;
  // Degraded (partial) merge: a shard whose file is missing or fails
  // validation is recorded in MergeOutcome::missing instead of failing the
  // merge. The output meta still declares the full key range but `samples`
  // honestly counts only what was merged — callers must surface the outcome
  // loudly (the campaign tool writes a quarantine report and exits nonzero).
  bool allow_missing = false;
};

struct MergeOutcome {
  struct MissingShard {
    uint32_t index = 0;
    std::string path;
    std::string error;
  };
  std::vector<uint32_t> merged;   // shard indices summed into the output
  std::vector<uint32_t> skipped;  // already covered by MergeOptions::base
  std::vector<MissingShard> missing;  // only with allow_missing
};

// Validates every shard file listed in `manifest` (resolved relative to
// `manifest_path`) and sums them into *out. The output meta covers the full
// key range; samples is the sum over shards (and the base); interleave is
// the shards' width when unanimous, 0 otherwise. Default `options` merge
// every shard and fail on the first bad one; `outcome` may be null.
IoStatus MergeShardGridsEx(const Manifest& manifest,
                           const std::string& manifest_path,
                           const MergeOptions& options, StoredGrid* out,
                           MergeOutcome* outcome);

// Same slice (CheckSlice, exact coverage) + identical samples and cells
// (merge and kill/resume round-trip checks; the informational interleave
// width is ignored). Returns a diagnostic naming the first difference.
IoStatus CheckGridsEqual(const StoredGrid& a, const StoredGrid& b,
                         const std::string& a_name, const std::string& b_name);

}  // namespace rc4b::store

#endif  // SRC_STORE_MERGE_H_
