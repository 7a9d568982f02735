// Fault-tolerant campaign scheduler: drives every shard of a manifest to
// completion against a pool of worker processes (docs/orchestrate.md).
//
// Cluster-in-a-box: the process boundary stands in for the host boundary.
// Each worker forks, takes the shard's lease (lease.h), runs the
// checkpointed ShardRunner with the lease heartbeat renewed at every
// checkpoint, and exits with the shared exit-code contract
// (src/common/retry.h). The parent reaps exits, validates the artifacts a
// "successful" worker left behind against the store's slice rule
// (store::CheckSlice through the mmap view, no copy; a CRC flip after
// commit must not survive), retries failures under the RetryPolicy, kills
// workers whose heartbeats go stale, and quarantines a shard — campaign
// degraded, not aborted — once its attempt budget is spent.
#ifndef SRC_ORCHESTRATE_SCHEDULER_H_
#define SRC_ORCHESTRATE_SCHEDULER_H_

#include <cstdint>
#include <string>
#include <vector>

#include <sys/types.h>

#include "src/common/retry.h"
#include "src/store/manifest.h"
#include "src/store/shard_runner.h"

namespace rc4b::orchestrate {

struct CampaignOptions {
  store::ShardRunOptions shard;  // checkpoint cadence == heartbeat cadence
  RetryPolicy retry;             // attempt budget + backoff per shard
  // A lease whose heartbeat is older than this is a dead or stalled worker;
  // must comfortably exceed the time one checkpoint step takes.
  uint64_t lease_ttl_ms = 10000;
  uint64_t poll_ms = 25;      // scheduler reap/launch cadence
  uint32_t max_parallel = 2;  // concurrent worker processes
  // Incremental campaigns: shards ending at or below this global key are
  // already covered by a previous merged grid and are skipped outright
  // (their files may no longer exist). See MergeOptions::base.
  uint64_t merged_through_key = 0;
};

enum class ShardState : uint8_t {
  kPending = 0,
  kRunning,
  kDone,
  kSkipped,      // covered by a previous merge (incremental campaign)
  kQuarantined,  // attempt budget spent; excluded from the merge
};

const char* ShardStateName(ShardState state);

struct ShardStatus {
  ShardState state = ShardState::kPending;
  uint32_t attempts = 0;         // worker launches so far
  uint64_t keys_completed = 0;   // from checkpoint/final provenance
  std::string note;              // last failure / quarantine reason
  std::vector<std::string> quarantined_files;  // invalid artifacts set aside
};

struct CampaignReport {
  std::vector<ShardStatus> shards;

  bool complete() const;        // every shard done or skipped
  size_t quarantined() const;   // shards excluded from the merge
  std::string Summary() const;  // human-readable, one line per shard
};

// Reads campaign progress from on-disk provenance without running anything:
// per shard, the keys completed according to its final grid or checkpoint.
// Artifacts that are missing or fail the slice rule (a checkpoint from
// another seed, or outside the shard's range) count as zero progress.
std::vector<uint64_t> CampaignProgress(const store::Manifest& manifest,
                                       const std::string& manifest_path);

class CampaignScheduler {
 public:
  CampaignScheduler(store::Manifest manifest, std::string manifest_path,
                    CampaignOptions options);

  // Runs the campaign to the end: returns only when every shard is done,
  // skipped, or quarantined. Fails (fatal) only for campaign-level errors —
  // an invalid manifest; per-shard failure degrades the report, it never
  // aborts the campaign. Callers inspect report->quarantined() and merge
  // with MergeOptions::allow_missing accordingly.
  IoStatus Run(CampaignReport* report);

 private:
  struct Slot {
    ShardStatus status;
    pid_t pid = -1;
    uint64_t launched_ms = 0;
    uint64_t not_before_ms = 0;  // backoff gate for the next launch
    bool kill_sent = false;
  };

  void InitialScan();
  void Launch(uint32_t index, uint64_t now_ms);
  void HandleExit(uint32_t index, int wait_status, uint64_t now_ms);
  void AttemptFailed(uint32_t index, const std::string& reason, uint64_t now_ms);
  // Moves final/checkpoint artifacts that fail the slice rule to
  // "<path>.quarantined<N>"; returns how many were set aside. Valid
  // checkpoints are kept (resume).
  size_t QuarantineInvalidArtifacts(uint32_t index);
  void RecordProgress(uint32_t index);
  std::string FinalPath(uint32_t index) const;

  store::Manifest manifest_;
  std::string manifest_path_;
  CampaignOptions options_;
  std::vector<Slot> slots_;
};

}  // namespace rc4b::orchestrate

#endif  // SRC_ORCHESTRATE_SCHEDULER_H_
