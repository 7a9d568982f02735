// Fault-tolerant campaign driver: runs every shard of a manifest to
// completion against a pool of worker processes, then merges the results
// (docs/orchestrate.md). Workers hold lease files with heartbeat timestamps,
// failures retry under capped exponential backoff, and a shard that keeps
// failing is quarantined — the campaign degrades to a partial merge with a
// loud report instead of aborting.
//
//   tools/grid_plan --kind consecutive --keys 0x100000 --shards 8 --out c.manifest
//   tools/grid_campaign --manifest c.manifest --out c.grid --parallel 4
//
// Growing a finished campaign reruns only the new shards:
//
//   tools/grid_plan --extend true --keys 0x100000 --shards 8 --out c.manifest
//   tools/grid_campaign --manifest c.manifest --out c2.grid --incremental-from c.grid
#include <cstdio>
#include <string>

#include "src/common/flags.h"
#include "src/common/retry.h"
#include "src/orchestrate/scheduler.h"
#include "src/store/merge.h"

namespace rc4b {
namespace {

int Run(int argc, char** argv) {
  FlagSet flags(
      "Drives a whole manifest to completion with leased, checkpointed, "
      "retried worker processes, then merges the shard grids "
      "(docs/orchestrate.md). Exit codes: 0 campaign complete and merged; "
      "3 degraded — quarantined shards were excluded, a partial grid and a "
      "quarantine report were written; 75 retryable environment failure — "
      "rerun the same command to resume; 1 fatal (corrupt input, bad "
      "provenance, failed verification).");
  flags.Define("manifest", "grid.manifest", "manifest written by grid_plan")
      .Define("out", "", "merged grid output path (required unless --status true)")
      .Define("status", "false",
              "report per-shard progress from on-disk checkpoint/final "
              "provenance and exit (runs nothing)")
      .Define("incremental-from", "",
              "previous merged grid covering a prefix of the key range; "
              "shards it covers are skipped outright and the merge starts "
              "from its cells (use after grid_plan --extend true)")
      .Define("verify-against", "",
              "optional reference grid; fail unless the merge is "
              "bit-identical to it")
      .Define("parallel", "2", "concurrent worker processes")
      .Define("max-attempts", "4",
              "worker launches per shard before it is quarantined")
      .Define("base-delay-ms", "100", "retry backoff after the first failure")
      .Define("max-delay-ms", "5000", "retry backoff cap")
      .Define("lease-ttl-ms", "10000",
              "heartbeat staleness bound; a worker quieter than this is "
              "presumed dead and its shard is reassigned")
      .Define("poll-ms", "25", "scheduler reap/launch cadence")
      .Define("checkpoint-keys", "0x10000",
              "keys between checkpoint snapshots (also the heartbeat "
              "cadence; keep the per-step time well under the lease TTL)")
      .Define("workers", "1", "threads inside each worker process");
  if (!flags.Parse(argc, argv)) {
    return 0;
  }

  const std::string manifest_path = flags.GetString("manifest");
  store::Manifest manifest;
  if (IoStatus status = store::ReadManifest(manifest_path, &manifest);
      !status.ok()) {
    std::fprintf(stderr, "grid_campaign: %s\n", status.message().c_str());
    return ExitCodeForStatus(status);
  }

  if (flags.GetBool("status")) {
    const std::vector<uint64_t> progress =
        orchestrate::CampaignProgress(manifest, manifest_path);
    uint64_t total = 0;
    uint64_t done = 0;
    for (size_t i = 0; i < progress.size(); ++i) {
      const store::ShardEntry& shard = manifest.shards[i];
      const uint64_t keys = shard.key_end - shard.key_begin;
      total += keys;
      done += progress[i];
      std::printf("shard %zu: %llu / %llu keys -> %s\n", i,
                  static_cast<unsigned long long>(progress[i]),
                  static_cast<unsigned long long>(keys), shard.path.c_str());
    }
    std::printf("campaign: %llu / %llu keys complete\n",
                static_cast<unsigned long long>(done),
                static_cast<unsigned long long>(total));
    return kExitOk;
  }

  const std::string out = flags.GetString("out");
  if (out.empty()) {
    std::fprintf(stderr, "grid_campaign: --out is required\n");
    return kExitFatal;
  }

  orchestrate::CampaignOptions options;
  options.shard.workers = static_cast<unsigned>(flags.GetUint("workers"));
  options.shard.checkpoint_keys = flags.GetUint("checkpoint-keys");
  options.retry.max_attempts =
      static_cast<uint32_t>(flags.GetUint("max-attempts"));
  options.retry.base_delay_ms = flags.GetUint("base-delay-ms");
  options.retry.max_delay_ms = flags.GetUint("max-delay-ms");
  options.lease_ttl_ms = flags.GetUint("lease-ttl-ms");
  options.poll_ms = flags.GetUint("poll-ms");
  options.max_parallel = static_cast<uint32_t>(flags.GetUint("parallel"));

  store::MergeOptions merge_options;
  store::StoredGrid base;
  const std::string incremental_from = flags.GetString("incremental-from");
  if (!incremental_from.empty()) {
    if (IoStatus status = store::ReadGridFile(incremental_from, &base);
        !status.ok()) {
      std::fprintf(stderr, "grid_campaign: %s\n", status.message().c_str());
      return ExitCodeForStatus(status);
    }
    merge_options.base = &base;
    options.merged_through_key = base.meta.key_end;
  }

  orchestrate::CampaignScheduler scheduler(manifest, manifest_path, options);
  orchestrate::CampaignReport report;
  if (IoStatus status = scheduler.Run(&report); !status.ok()) {
    std::fprintf(stderr, "grid_campaign: %s\n", status.message().c_str());
    return ExitCodeForStatus(status);
  }
  std::fputs(report.Summary().c_str(), stdout);

  const bool degraded = !report.complete();
  merge_options.allow_missing = degraded;
  // A degraded campaign writes "<out>.partial" so an unattended script can
  // never mistake an incomplete grid for the real artifact.
  const std::string merged_path = degraded ? out + ".partial" : out;
  store::StoredGrid merged;
  store::MergeOutcome outcome;
  if (IoStatus status = store::MergeShardGridsEx(manifest, manifest_path,
                                                 merge_options, &merged,
                                                 &outcome);
      !status.ok()) {
    std::fprintf(stderr, "grid_campaign: merge failed: %s\n",
                 status.message().c_str());
    return ExitCodeForStatus(status);
  }

  const std::string reference = flags.GetString("verify-against");
  if (!degraded && !reference.empty()) {
    store::StoredGrid ref;
    if (IoStatus status = store::ReadGridFile(reference, &ref); !status.ok()) {
      std::fprintf(stderr, "grid_campaign: %s\n", status.message().c_str());
      return ExitCodeForStatus(status);
    }
    if (IoStatus status =
            store::CheckGridsEqual(ref, merged, reference, "merge");
        !status.ok()) {
      std::fprintf(stderr, "grid_campaign: verification failed: %s\n",
                   status.message().c_str());
      return kExitFatal;
    }
    std::printf("merge is bit-identical to %s\n", reference.c_str());
  }

  if (IoStatus status =
          store::WriteGridFileDurable(merged_path, merged.meta, merged.cells);
      !status.ok()) {
    std::fprintf(stderr, "grid_campaign: %s\n", status.message().c_str());
    return ExitCodeForStatus(status);
  }

  if (degraded) {
    // Loud report: which shards are missing from the partial grid and why.
    const std::string report_path = out + ".quarantine.txt";
    std::string text = report.Summary();
    for (const store::MergeOutcome::MissingShard& missing : outcome.missing) {
      text += "missing from merge: shard " + std::to_string(missing.index) +
              " (" + missing.path + "): " + missing.error + "\n";
    }
    if (IoStatus status = WriteFileAtomic(report_path, text); !status.ok()) {
      std::fprintf(stderr, "grid_campaign: %s\n", status.message().c_str());
      return ExitCodeForStatus(status);
    }
    std::fprintf(stderr,
                 "grid_campaign: DEGRADED — %zu shard(s) quarantined; "
                 "partial grid %s (%llu samples), report %s\n",
                 report.quarantined(), merged_path.c_str(),
                 static_cast<unsigned long long>(merged.meta.samples),
                 report_path.c_str());
    return kExitDegraded;
  }

  std::printf("wrote %s: %s grid, %zu shards merged (%zu from base), keys "
              "[%llu, %llu), %llu samples\n",
              merged_path.c_str(), store::GridKindName(merged.meta.kind),
              outcome.merged.size(), outcome.skipped.size(),
              static_cast<unsigned long long>(merged.meta.key_begin),
              static_cast<unsigned long long>(merged.meta.key_end),
              static_cast<unsigned long long>(merged.meta.samples));
  return kExitOk;
}

}  // namespace
}  // namespace rc4b

int main(int argc, char** argv) { return rc4b::Run(argc, argv); }
