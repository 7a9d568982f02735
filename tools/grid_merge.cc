// Merges the shard grids of a manifest into one full-range grid file
// (docs/store.md). Every shard is fully validated first — checksums, format
// version, provenance, exact key-range tiling — so a truncated download or a
// shard from a different run is a loud error, never a silently wrong merge.
//
//   tools/grid_merge --manifest consec.manifest --out consec.grid
//       --verify-against consec-ref.grid   # optional bit-exactness check
//
// After grid_plan --extend true grows a manifest's key range, an incremental
// merge starts from the previous merged grid and opens only the new shards
// (the already-merged shard files may be long gone):
//
//   tools/grid_merge --manifest consec.manifest --out consec-v2.grid
//       --incremental-from consec.grid
#include <cstdio>
#include <string>

#include "src/common/flags.h"
#include "src/common/retry.h"
#include "src/store/merge.h"

namespace rc4b {
namespace {

int Run(int argc, char** argv) {
  FlagSet flags(
      "Validates a manifest's shard grids and merges them into one "
      "full-range grid file (docs/store.md). Exit codes "
      "(docs/orchestrate.md): 0 ok; 75 retryable (transient I/O) — rerun "
      "the same command; 1 fatal (corrupt shard, bad provenance, failed "
      "verification) — retrying cannot help.");
  flags.Define("manifest", "grid.manifest", "manifest written by grid_plan")
      .Define("out", "", "merged grid output path (required)")
      .Define("incremental-from", "",
              "previous merged grid covering a prefix of the key range; "
              "only shards past its end are opened and summed on top")
      .Define("verify-against", "",
              "optional reference grid; fail unless the merge is "
              "bit-identical to it");
  if (!flags.Parse(argc, argv)) {
    return 0;
  }

  const std::string out = flags.GetString("out");
  if (out.empty()) {
    std::fprintf(stderr, "grid_merge: --out is required\n");
    return kExitFatal;
  }

  const std::string manifest_path = flags.GetString("manifest");
  store::Manifest manifest;
  if (IoStatus status = store::ReadManifest(manifest_path, &manifest);
      !status.ok()) {
    std::fprintf(stderr, "grid_merge: %s\n", status.message().c_str());
    return ExitCodeForStatus(status);
  }

  store::MergeOptions options;
  store::StoredGrid base;
  const std::string incremental_from = flags.GetString("incremental-from");
  if (!incremental_from.empty()) {
    if (IoStatus status = store::ReadGridFile(incremental_from, &base);
        !status.ok()) {
      std::fprintf(stderr, "grid_merge: %s\n", status.message().c_str());
      return ExitCodeForStatus(status);
    }
    options.base = &base;
  }

  store::StoredGrid merged;
  store::MergeOutcome outcome;
  if (IoStatus status = store::MergeShardGridsEx(manifest, manifest_path,
                                                 options, &merged, &outcome);
      !status.ok()) {
    std::fprintf(stderr, "grid_merge: %s\n", status.message().c_str());
    return ExitCodeForStatus(status);
  }

  const std::string reference = flags.GetString("verify-against");
  if (!reference.empty()) {
    store::StoredGrid ref;
    if (IoStatus status = store::ReadGridFile(reference, &ref); !status.ok()) {
      std::fprintf(stderr, "grid_merge: %s\n", status.message().c_str());
      return ExitCodeForStatus(status);
    }
    if (IoStatus status =
            store::CheckGridsEqual(ref, merged, reference, "merge");
        !status.ok()) {
      std::fprintf(stderr, "grid_merge: verification failed: %s\n",
                   status.message().c_str());
      return kExitFatal;
    }
    std::printf("merge is bit-identical to %s\n", reference.c_str());
  }

  if (IoStatus status =
          store::WriteGridFileDurable(out, merged.meta, merged.cells);
      !status.ok()) {
    std::fprintf(stderr, "grid_merge: %s\n", status.message().c_str());
    return ExitCodeForStatus(status);
  }
  std::printf("wrote %s: %s grid, %zu shards merged (%zu from base), keys "
              "[%llu, %llu), %llu samples\n",
              out.c_str(), store::GridKindName(merged.meta.kind),
              outcome.merged.size(), outcome.skipped.size(),
              static_cast<unsigned long long>(merged.meta.key_begin),
              static_cast<unsigned long long>(merged.meta.key_end),
              static_cast<unsigned long long>(merged.meta.samples));
  return kExitOk;
}

}  // namespace
}  // namespace rc4b

int main(int argc, char** argv) { return rc4b::Run(argc, argv); }
