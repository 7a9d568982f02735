// Generates grid data for a manifest written by grid_plan (docs/store.md).
//
// Shard mode (the normal distributed path) runs one manifest shard with
// checkpointing — kill it at any point and rerun the same command line to
// resume from the last snapshot:
//
//   tools/grid_gen --manifest consec.manifest --shard 2
//
// Reference mode generates the manifest's full key range in this process and
// writes one grid file — byte-identical to merging the shards, which is what
// the CI round-trip job asserts:
//
//   tools/grid_gen --manifest consec.manifest --reference consec-ref.grid
#include <cstdio>
#include <string>

#include "src/common/flags.h"
#include "src/common/retry.h"
#include "src/store/shard_runner.h"

namespace rc4b {
namespace {

int Run(int argc, char** argv) {
  FlagSet flags(
      "Generates one manifest shard (checkpointed, resumable) or a "
      "full-range reference grid (docs/store.md). Exit codes "
      "(docs/orchestrate.md): 0 ok; 75 retryable (transient I/O, lost "
      "lease) — rerun the same command; 1 fatal (corrupt input, bad "
      "provenance) — retrying cannot help.");
  flags.Define("manifest", "grid.manifest", "manifest written by grid_plan")
      .Define("shard", "0", "shard index to run")
      .Define("reference", "",
              "instead of a shard: generate the manifest's full key range "
              "in-process and write it to this path")
      .Define("workers", "0", "worker threads (0 = all cores)")
      .Define("checkpoint-keys", "0x10000",
              "shard mode: keys between checkpoint snapshots (0 = none)")
      .Define("stop-after-keys", "0",
              "shard mode test hook: exit (leaving a checkpoint) after this "
              "many newly generated keys (0 = run to completion)");
  if (!flags.Parse(argc, argv)) {
    return 0;
  }

  const std::string manifest_path = flags.GetString("manifest");
  store::Manifest manifest;
  if (IoStatus status = store::ReadManifest(manifest_path, &manifest);
      !status.ok()) {
    std::fprintf(stderr, "grid_gen: %s\n", status.message().c_str());
    return ExitCodeForStatus(status);
  }

  const unsigned workers = static_cast<unsigned>(flags.GetUint("workers"));

  const std::string reference = flags.GetString("reference");
  if (!reference.empty()) {
    const store::StoredGrid grid =
        store::GenerateStoredGrid(manifest.grid, workers, 0);
    if (IoStatus status =
            store::WriteGridFile(reference, grid.meta, grid.cells);
        !status.ok()) {
      std::fprintf(stderr, "grid_gen: %s\n", status.message().c_str());
      return ExitCodeForStatus(status);
    }
    std::printf("wrote %s: full range [%llu, %llu)\n", reference.c_str(),
                static_cast<unsigned long long>(grid.meta.key_begin),
                static_cast<unsigned long long>(grid.meta.key_end));
    return 0;
  }

  store::ShardRunOptions options;
  options.workers = workers;
  options.checkpoint_keys = flags.GetUint("checkpoint-keys");
  options.stop_after_keys = flags.GetUint("stop-after-keys");
  const uint32_t shard = static_cast<uint32_t>(flags.GetUint("shard"));

  store::ShardRunResult result;
  if (IoStatus status = store::RunShard(manifest, manifest_path, shard,
                                        options, &result);
      !status.ok()) {
    std::fprintf(stderr, "grid_gen: %s\n", status.message().c_str());
    return ExitCodeForStatus(status);
  }
  std::printf(
      "shard %u: %s%s — %llu keys this run, %llu of %llu total\n", shard,
      result.finished ? "finished" : "stopped at checkpoint",
      result.resumed ? " (resumed)" : "",
      static_cast<unsigned long long>(result.keys_done),
      static_cast<unsigned long long>(result.keys_completed),
      static_cast<unsigned long long>(manifest.shards[shard].key_end -
                                      manifest.shards[shard].key_begin));
  return 0;
}

}  // namespace
}  // namespace rc4b

int main(int argc, char** argv) { return rc4b::Run(argc, argv); }
