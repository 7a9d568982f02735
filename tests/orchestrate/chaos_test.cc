// Campaign chaos suite (docs/orchestrate.md): every injected fault class —
// killed workers, torn final writes, silent CRC corruption, stalled I/O —
// must leave the campaign able to finish, and the merged grid must be
// byte-identical to the single-process reference. Persistent corruption must
// quarantine, not hang and not abort.
//
// The scheduler forks real worker processes, so these tests exercise the
// actual host-failure recovery path end to end; they are excluded from the
// TSan leg (fork) but run under the plain and ASan builds and as a dedicated
// CI job via tools/grid_campaign.
#include "src/orchestrate/scheduler.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "src/common/fault_injector.h"
#include "src/store/merge.h"
#include "src/store/shard_runner.h"

namespace rc4b::orchestrate {
namespace {

// Fresh per invocation: campaigns resume from whatever artifacts exist, so
// leftovers from a previous run would silently skip the faulted work.
std::string FreshDir(const std::string& name) {
  const std::string dir = std::string(::testing::TempDir()) + "/" + name;
  std::filesystem::remove_all(dir);
  MakeDirs(dir);
  return dir;
}

// Arms RC4B_FAULTS for the scope of one test. Workers inherit the
// environment and re-parse it after fork, so the guard only needs setenv +
// a reload in this process.
class FaultGuard {
 public:
  FaultGuard(const std::string& spec, const std::string& state_dir) {
    ::setenv("RC4B_FAULTS", spec.c_str(), 1);
    ::setenv("RC4B_FAULT_STATE_DIR", state_dir.c_str(), 1);
    FaultInjector::Instance().ReloadFromEnv();
  }
  ~FaultGuard() {
    ::unsetenv("RC4B_FAULTS");
    ::unsetenv("RC4B_FAULT_STATE_DIR");
    FaultInjector::Instance().ReloadFromEnv();
  }
  FaultGuard(const FaultGuard&) = delete;
  FaultGuard& operator=(const FaultGuard&) = delete;
};

store::GridMeta SmallGrid(uint64_t keys) {
  store::GridMeta grid;
  grid.kind = store::GridKind::kConsecutive;
  grid.seed = 33;
  grid.key_begin = 0;
  grid.key_end = keys;
  grid.rows = 8;
  return grid;
}

struct Campaign {
  store::Manifest manifest;
  std::string manifest_path;
  CampaignOptions options;
};

Campaign PlanCampaign(const std::string& dir, uint64_t keys, uint32_t shards) {
  Campaign campaign;
  campaign.manifest = store::PlanShards(SmallGrid(keys), shards, dir + "/c");
  campaign.manifest_path = dir + "/c.manifest";
  EXPECT_TRUE(
      store::WriteManifest(campaign.manifest_path, campaign.manifest).ok());
  campaign.options.shard.checkpoint_keys = 0x400;
  campaign.options.shard.workers = 1;
  campaign.options.retry.max_attempts = 6;  // headroom for compound faults
  campaign.options.retry.base_delay_ms = 10;
  campaign.options.retry.max_delay_ms = 50;
  campaign.options.poll_ms = 5;
  campaign.options.max_parallel = 2;
  return campaign;
}

// Runs the campaign and, when it completes, checks the merged grid against
// the single-process reference — the whole point of the recovery machinery.
CampaignReport RunAndVerify(const Campaign& campaign, bool expect_complete) {
  CampaignScheduler scheduler(campaign.manifest, campaign.manifest_path,
                              campaign.options);
  CampaignReport report;
  EXPECT_TRUE(scheduler.Run(&report).ok());
  EXPECT_EQ(report.complete(), expect_complete) << report.Summary();
  if (report.complete()) {
    store::StoredGrid merged;
    EXPECT_TRUE(store::MergeShardGridsEx(campaign.manifest,
                                         campaign.manifest_path, {}, &merged,
                                         nullptr)
                    .ok());
    const store::StoredGrid reference =
        store::GenerateStoredGrid(campaign.manifest.grid, 1, 0);
    EXPECT_TRUE(
        store::CheckGridsEqual(reference, merged, "reference", "merged").ok());
  }
  return report;
}

uint32_t TotalAttempts(const CampaignReport& report) {
  uint32_t attempts = 0;
  for (const ShardStatus& shard : report.shards) {
    attempts += shard.attempts;
  }
  return attempts;
}

TEST(ChaosTest, CleanCampaignMergesBitIdentically) {
  const std::string dir = FreshDir("chaos-clean");
  const Campaign campaign = PlanCampaign(dir, 0x2000, 2);
  const CampaignReport report = RunAndVerify(campaign, true);
  for (const ShardStatus& shard : report.shards) {
    EXPECT_EQ(shard.state, ShardState::kDone);
    EXPECT_EQ(shard.attempts, 1u);
  }
}

TEST(ChaosTest, RerunningAFinishedCampaignLaunchesNothing) {
  const std::string dir = FreshDir("chaos-rerun");
  const Campaign campaign = PlanCampaign(dir, 0x2000, 2);
  RunAndVerify(campaign, true);
  const CampaignReport again = RunAndVerify(campaign, true);
  EXPECT_EQ(TotalAttempts(again), 0u) << again.Summary();
}

TEST(ChaosTest, KilledWorkerResumesFromCheckpointBitIdentically) {
  const std::string dir = FreshDir("chaos-kill");
  const Campaign campaign = PlanCampaign(dir, 0x2000, 2);
  // SIGKILL one worker right after its second durable checkpoint; the retry
  // must resume from that checkpoint, not recompute or corrupt.
  const FaultGuard faults("kill-at-checkpoint=2", FreshDir("chaos-kill-state"));
  const CampaignReport report = RunAndVerify(campaign, true);
  EXPECT_GE(TotalAttempts(report), 3u) << report.Summary();
}

TEST(ChaosTest, TornFinalWriteIsQuarantinedAndRetried) {
  const std::string dir = FreshDir("chaos-torn");
  const Campaign campaign = PlanCampaign(dir, 0x2000, 2);
  // The worker dies mid-"rename", leaving a truncated final grid. The next
  // attempt must detect it, set it aside and rewrite it from scratch.
  const FaultGuard faults("torn-final-write@c-shard1.grid$",
                          FreshDir("chaos-torn-state"));
  const CampaignReport report = RunAndVerify(campaign, true);
  EXPECT_GE(report.shards[1].attempts, 2u) << report.Summary();
}

TEST(ChaosTest, SilentCrcFlipOnAcceptedFinalIsCaught) {
  const std::string dir = FreshDir("chaos-flip");
  const Campaign campaign = PlanCampaign(dir, 0x2000, 2);
  // The worker commits, the fault flips one byte after the commit, and the
  // worker exits 0 — only the scheduler's trust-but-verify validation of
  // "successful" artifacts can catch this class.
  const FaultGuard faults("crc-flip@c-shard0.grid$",
                          FreshDir("chaos-flip-state"));
  const CampaignReport report = RunAndVerify(campaign, true);
  EXPECT_GE(report.shards[0].attempts, 2u) << report.Summary();
  EXPECT_FALSE(report.shards[0].quarantined_files.empty()) << report.Summary();
}

TEST(ChaosTest, StalledWorkerLosesItsLeaseAndTheShardIsReassigned) {
  const std::string dir = FreshDir("chaos-stall");
  Campaign campaign = PlanCampaign(dir, 0x2000, 2);
  campaign.options.lease_ttl_ms = 400;
  // On a saturated box a healthy worker can also blow a sub-second TTL and
  // get reaped; progress is monotone across retries (checkpoints persist),
  // so extra attempts are the right headroom — the assertion below is about
  // recovery, not about the attempt count staying minimal.
  campaign.options.retry.max_attempts = 12;
  // One checkpoint write sleeps far past the lease TTL; the scheduler must
  // declare the worker dead, kill it and rerun the shard.
  const FaultGuard faults("delay-io-ms=2000@.ckpt",
                          FreshDir("chaos-stall-state"));
  const CampaignReport report = RunAndVerify(campaign, true);
  EXPECT_GE(TotalAttempts(report), 3u) << report.Summary();
}

TEST(ChaosTest, EveryFaultClassAtOnceStillMergesBitIdentically) {
  const std::string dir = FreshDir("chaos-all");
  const Campaign campaign = PlanCampaign(dir, 0x2000, 2);
  const FaultGuard faults(
      "kill-at-checkpoint=2;torn-final-write@c-shard1.grid$;"
      "crc-flip@c-shard0.grid$",
      FreshDir("chaos-all-state"));
  RunAndVerify(campaign, true);
}

TEST(ChaosTest, PersistentCorruptionQuarantinesInsteadOfHanging) {
  const std::string dir = FreshDir("chaos-quarantine");
  Campaign campaign = PlanCampaign(dir, 0x2000, 2);
  campaign.options.retry.max_attempts = 2;
  // '*0' = unlimited budget: shard 0's final grid is corrupted on every
  // attempt. The campaign must spend the budget, quarantine the shard, and
  // still deliver shard 1.
  const FaultGuard faults("crc-flip@c-shard0.grid$*0",
                          FreshDir("chaos-quarantine-state"));
  const CampaignReport report = RunAndVerify(campaign, false);
  EXPECT_EQ(report.quarantined(), 1u) << report.Summary();
  EXPECT_EQ(report.shards[0].state, ShardState::kQuarantined);
  EXPECT_EQ(report.shards[0].attempts, 2u);
  EXPECT_EQ(report.shards[1].state, ShardState::kDone);

  // Graceful degradation: the partial merge carries the healthy shard and
  // names the missing one.
  store::MergeOptions merge_options;
  merge_options.allow_missing = true;
  store::StoredGrid merged;
  store::MergeOutcome outcome;
  ASSERT_TRUE(store::MergeShardGridsEx(campaign.manifest,
                                       campaign.manifest_path, merge_options,
                                       &merged, &outcome)
                  .ok());
  ASSERT_EQ(outcome.missing.size(), 1u);
  EXPECT_EQ(outcome.missing[0].index, 0u);
  EXPECT_EQ(outcome.merged.size(), 1u);
}

TEST(ChaosTest, IncrementalExtensionRerunsOnlyNewShards) {
  const std::string dir = FreshDir("chaos-extend");
  Campaign campaign = PlanCampaign(dir, 0x2000, 2);
  RunAndVerify(campaign, true);

  // Merge the finished prefix, then grow the plan and delete the old shard
  // files — exactly the state after shipping a merged grid and reclaiming
  // worker disk space.
  store::StoredGrid base;
  ASSERT_TRUE(store::MergeShardGridsEx(campaign.manifest,
                                       campaign.manifest_path, {}, &base, nullptr)
                  .ok());
  ASSERT_TRUE(
      store::ExtendManifestPlan(&campaign.manifest, 0x4000, 2, dir + "/c").ok());
  ASSERT_TRUE(
      store::WriteManifest(campaign.manifest_path, campaign.manifest).ok());
  for (uint32_t i = 0; i < 2; ++i) {
    std::remove(campaign.manifest.shards[i].path.c_str());
  }

  campaign.options.merged_through_key = base.meta.key_end;
  CampaignScheduler scheduler(campaign.manifest, campaign.manifest_path,
                              campaign.options);
  CampaignReport report;
  ASSERT_TRUE(scheduler.Run(&report).ok());
  EXPECT_TRUE(report.complete()) << report.Summary();
  EXPECT_EQ(report.shards[0].state, ShardState::kSkipped);
  EXPECT_EQ(report.shards[1].state, ShardState::kSkipped);
  EXPECT_EQ(report.shards[2].state, ShardState::kDone);
  EXPECT_EQ(report.shards[3].state, ShardState::kDone);

  store::MergeOptions merge_options;
  merge_options.base = &base;
  store::StoredGrid merged;
  store::MergeOutcome outcome;
  ASSERT_TRUE(store::MergeShardGridsEx(campaign.manifest,
                                       campaign.manifest_path, merge_options,
                                       &merged, &outcome)
                  .ok());
  EXPECT_EQ(outcome.skipped.size(), 2u);
  const store::StoredGrid reference =
      store::GenerateStoredGrid(SmallGrid(0x4000), 1, 0);
  EXPECT_TRUE(
      store::CheckGridsEqual(reference, merged, "reference", "merged").ok());
}

TEST(ChaosTest, CampaignProgressReadsCheckpointProvenance) {
  const std::string dir = FreshDir("chaos-progress");
  const Campaign campaign = PlanCampaign(dir, 0x2000, 2);
  const std::vector<uint64_t> before =
      CampaignProgress(campaign.manifest, campaign.manifest_path);
  ASSERT_EQ(before.size(), 2u);
  EXPECT_EQ(before[0] + before[1], 0u);

  RunAndVerify(campaign, true);
  const std::vector<uint64_t> after =
      CampaignProgress(campaign.manifest, campaign.manifest_path);
  EXPECT_EQ(after[0], 0x1000u);
  EXPECT_EQ(after[1], 0x1000u);
}

// Writes a checkpoint for `shard` that holds keys [begin, end) of `grid`.
void WriteCheckpoint(const store::ShardEntry& shard, store::GridMeta grid,
                     uint64_t begin, uint64_t end) {
  grid.key_begin = begin;
  grid.key_end = end;
  const store::StoredGrid partial = store::GenerateStoredGrid(grid, 1, 0);
  ASSERT_TRUE(store::WriteGridFile(store::CheckpointPath(shard.path), partial.meta,
                                   partial.cells)
                  .ok());
}

TEST(ChaosTest, CampaignProgressIgnoresForeignAndOutOfRangeCheckpoints) {
  const std::string dir = FreshDir("chaos-progress-foreign");
  const Campaign campaign = PlanCampaign(dir, 0x2000, 2);
  const store::Manifest& manifest = campaign.manifest;
  store::GridMeta foreign = manifest.grid;
  foreign.seed = 7;
  WriteCheckpoint(manifest.shards[0], foreign, 0, 0x400);
  WriteCheckpoint(manifest.shards[1], manifest.grid, 0x1400, 0x1800);
  std::vector<uint64_t> progress = CampaignProgress(manifest, campaign.manifest_path);
  EXPECT_EQ(progress[0], 0u);
  EXPECT_EQ(progress[1], 0u);

  // The same shard with an in-range prefix does count.
  WriteCheckpoint(manifest.shards[1], manifest.grid, 0x1000, 0x1400);
  progress = CampaignProgress(manifest, campaign.manifest_path);
  EXPECT_EQ(progress[1], 0x400u);
}

TEST(ChaosTest, ForeignCheckpointIsSetAsideNeverTrusted) {
  const std::string dir = FreshDir("chaos-foreign-ckpt");
  const Campaign campaign = PlanCampaign(dir, 0x2000, 2);
  store::GridMeta foreign = campaign.manifest.grid;
  foreign.seed = 7;
  WriteCheckpoint(campaign.manifest.shards[0], foreign, 0, 0x400);

  // The first worker refuses the checkpoint (fatal); the scheduler sets it
  // aside and the retry starts the shard from scratch.
  const CampaignReport report = RunAndVerify(campaign, true);
  EXPECT_EQ(report.shards[0].attempts, 2u) << report.Summary();
  const std::string aside =
      store::CheckpointPath(campaign.manifest.shards[0].path) + ".quarantined1";
  ASSERT_EQ(report.shards[0].quarantined_files.size(), 1u) << report.Summary();
  EXPECT_EQ(report.shards[0].quarantined_files[0], aside);
  EXPECT_TRUE(PathExists(aside));
  EXPECT_EQ(report.shards[1].attempts, 1u) << report.Summary();
}

}  // namespace
}  // namespace rc4b::orchestrate
