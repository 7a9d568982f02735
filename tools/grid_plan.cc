// Plans a distributed grid-generation run (docs/store.md): describes one
// logical dataset, splits its key range into N shards and writes the shard
// manifest that grid_gen / grid_merge consume. Example:
//
//   tools/grid_plan --kind consecutive --keys 0x100000 --rows 256
//       --shards 4 --out /data/consec.manifest
//   for i in 0 1 2 3; do tools/grid_gen --manifest ... --shard $i & done; wait
//   tools/grid_merge --manifest /data/consec.manifest --out /data/consec.grid
#include <cstdio>
#include <string>

#include "src/common/flags.h"
#include "src/common/retry.h"
#include "src/store/manifest.h"

namespace rc4b {
namespace {

int Run(int argc, char** argv) {
  FlagSet flags(
      "Plans a sharded grid generation: writes the manifest that grid_gen "
      "workers and grid_merge consume (docs/store.md). Exit codes "
      "(docs/orchestrate.md): 0 ok; 75 retryable (transient I/O) — rerun "
      "the same command; 1 fatal (bad arguments, corrupt manifest) — "
      "retrying cannot help.");
  flags.Define("kind", "singlebyte",
               "dataset family: singlebyte | consecutive | pair | "
               "longterm-digraph")
      .Define("keys", "0x100000", "total RC4 keys across all shards")
      .Define("seed", "1", "AES-CTR key-generator seed")
      .Define("first-key", "0", "global index of the first key")
      .Define("rows", "256", "keystream positions (ignored for pair/longterm)")
      .Define("pairs", "", "kind pair only: decimal position pairs \"a:b,c:d,...\" "
              "with 1 <= a < b")
      .Define("drop", "1024", "longterm only: initial bytes dropped per key")
      .Define("bytes-per-key", "0x1000000", "longterm only: bytes kept per key")
      .Define("shards", "4", "number of independent shards")
      .Define("out", "grid.manifest", "manifest output path")
      .Define("extend", "false",
              "grow an existing manifest instead of planning a new one: "
              "append --shards new shards covering --keys additional keys "
              "to the manifest at --out (finished shard files and previous "
              "merges stay valid; see grid_merge --incremental-from)")
      .Define("prefix", "",
              "shard file prefix, relative to the manifest's directory "
              "(default: the --out file name minus its extension)");
  if (!flags.Parse(argc, argv)) {
    return 0;
  }

  const std::string out = flags.GetString("out");
  std::string prefix = flags.GetString("prefix");
  if (prefix.empty()) {
    prefix = store::DefaultShardPrefix(out);
  }

  if (flags.GetBool("extend")) {
    store::Manifest manifest;
    if (IoStatus status = store::ReadManifest(out, &manifest); !status.ok()) {
      std::fprintf(stderr, "grid_plan: %s\n", status.message().c_str());
      return ExitCodeForStatus(status);
    }
    const uint64_t new_end = manifest.grid.key_end + flags.GetUint("keys");
    if (IoStatus status = store::ExtendManifestPlan(
            &manifest, new_end,
            static_cast<uint32_t>(flags.GetUint("shards")), prefix);
        !status.ok()) {
      std::fprintf(stderr, "grid_plan: %s\n", status.message().c_str());
      return ExitCodeForStatus(status);
    }
    if (IoStatus status = store::WriteManifest(out, manifest); !status.ok()) {
      std::fprintf(stderr, "grid_plan: %s\n", status.message().c_str());
      return ExitCodeForStatus(status);
    }
    std::printf("extended %s: key range now [%llu, %llu), %zu shards\n",
                out.c_str(),
                static_cast<unsigned long long>(manifest.grid.key_begin),
                static_cast<unsigned long long>(manifest.grid.key_end),
                manifest.shards.size());
    return kExitOk;
  }

  store::GridMeta grid;
  const std::string kind = flags.GetString("kind");
  if (!store::ParseGridKind(kind, &grid.kind)) {
    std::fprintf(stderr, "unknown --kind %s\n", kind.c_str());
    return kExitFatal;
  }
  grid.seed = flags.GetUint("seed");
  grid.key_begin = flags.GetUint("first-key");
  grid.key_end = grid.key_begin + flags.GetUint("keys");
  switch (grid.kind) {
    case store::GridKind::kSingleByte:
    case store::GridKind::kConsecutive:
      grid.rows = flags.GetUint("rows");
      break;
    case store::GridKind::kPair:
      if (IoStatus status = store::ParsePairs(flags.GetString("pairs"),
                                              "grid_plan: --pairs", &grid.pairs);
          !status.ok()) {
        std::fprintf(stderr, "%s\n", status.message().c_str());
        return kExitFatal;
      }
      if (grid.pairs.empty()) {
        std::fprintf(stderr, "kind pair requires --pairs \"a:b,c:d,...\"\n");
        return kExitFatal;
      }
      grid.rows = grid.pairs.size();
      break;
    case store::GridKind::kLongTermDigraph:
      grid.rows = 256;
      grid.drop = flags.GetUint("drop");
      grid.bytes_per_key = flags.GetUint("bytes-per-key");
      break;
  }

  const store::Manifest manifest = store::PlanShards(
      grid, static_cast<uint32_t>(flags.GetUint("shards")), prefix);
  // A new plan may name a directory that does not exist yet.
  const size_t slash = out.find_last_of('/');
  IoStatus status =
      slash == std::string::npos ? IoStatus::Ok() : MakeDirs(out.substr(0, slash));
  if (status.ok()) {
    status = store::WriteManifest(out, manifest);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "grid_plan: %s\n", status.message().c_str());
    return ExitCodeForStatus(status);
  }

  std::printf("wrote %s: %s grid, %llu keys [%llu, %llu), %zu shards\n",
              out.c_str(), store::GridKindName(grid.kind),
              static_cast<unsigned long long>(grid.keys()),
              static_cast<unsigned long long>(grid.key_begin),
              static_cast<unsigned long long>(grid.key_end),
              manifest.shards.size());
  for (size_t i = 0; i < manifest.shards.size(); ++i) {
    const store::ShardEntry& shard = manifest.shards[i];
    std::printf("  shard %zu: keys [%llu, %llu) -> %s\n", i,
                static_cast<unsigned long long>(shard.key_begin),
                static_cast<unsigned long long>(shard.key_end),
                shard.path.c_str());
  }
  return kExitOk;
}

}  // namespace
}  // namespace rc4b

int main(int argc, char** argv) { return rc4b::Run(argc, argv); }
