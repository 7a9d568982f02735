// singlebyte-grid and digraph-campaign: keystream statistics into finished,
// validated grid files, in-process and through a sharded campaign.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "perfbench/stats.h"
#include "perfbench/workloads.h"
#include "src/common/io.h"
#include "src/engine/accumulators.h"
#include "src/engine/keystream_engine.h"
#include "src/orchestrate/scheduler.h"
#include "src/rc4/kernel_registry.h"
#include "src/rc4/keygen.h"
#include "src/rc4/rc4.h"
#include "src/store/grid_file.h"
#include "src/store/manifest.h"
#include "src/store/merge.h"
#include "src/store/shard_runner.h"

namespace perfbench {
namespace {

namespace store = rc4b::store;

constexpr size_t kKeySize = rc4b::Rc4KeyGenerator::kRc4KeySize;
constexpr uint64_t kMinJobs = 2;

rc4b::EngineOptions EngineRange(uint64_t seed, uint64_t first_key,
                                uint64_t keys, unsigned workers) {
  rc4b::EngineOptions options;
  options.seed = seed;
  options.first_key = first_key;
  options.keys = keys;
  options.workers = workers;
  return options;
}

// Replays RunKeystreamEngine's per-shard loop over keys [first_key,
// first_key + keys) through the public pieces, with a span per call: key
// generation, KSA and PRGA per lockstep group, Consume per batch, MakeShard
// and MergeShard once. The kernel, width and batch size are the ones the
// engine resolves for the same options, so the accumulator ends up with the
// same counts as RunKeystreamEngine would give it.
void ReplayShard(const rc4b::EngineOptions& options,
                 rc4b::BiasAccumulator& accumulator, TraceBuffer* trace) {
  const size_t length = accumulator.KeystreamLength();
  const rc4b::KernelChoice choice =
      rc4b::ResolveKernelChoice(options.kernel, options.interleave);
  const size_t batch_keys = std::max<size_t>(
      options.batch_keys == 0 ? 256 : options.batch_keys, choice.width);
  rc4b::Rc4KeyGenerator keygen(options.seed);
  keygen.Seek(options.first_key);
  std::unique_ptr<rc4b::ShardSink> sink;
  {
    ScopedSpan span(trace, "engine.BiasAccumulator::MakeShard");
    sink = accumulator.MakeShard();
  }
  const std::unique_ptr<rc4b::Rc4LaneKernel> kernel =
      choice.width > 1 ? choice.kernel->make(choice.width) : nullptr;
  const size_t lanes = kernel != nullptr ? choice.width : 1;
  std::vector<uint8_t> keys(lanes * kKeySize);
  rc4b::AlignedVector<uint8_t> buffer(batch_keys * length, 0);
  for (uint64_t k = 0; k < options.keys;) {
    const auto rows =
        static_cast<size_t>(std::min<uint64_t>(batch_keys, options.keys - k));
    size_t r = 0;
    for (; kernel != nullptr && r + lanes <= rows; r += lanes) {
      {
        ScopedSpan span(trace, "crypto.Rc4KeyGenerator::NextKey");
        span.set_work(lanes);
        for (size_t m = 0; m < lanes; ++m) {
          const auto key = keygen.NextKey();
          std::copy(key.begin(), key.end(), keys.begin() + m * kKeySize);
        }
      }
      {
        ScopedSpan span(trace, "rc4.Rc4LaneKernel::Init");
        span.set_work(lanes);
        kernel->Init(keys, kKeySize);
        if (options.drop != 0) {
          kernel->Skip(options.drop);
        }
      }
      {
        ScopedSpan span(trace, "rc4.Rc4LaneKernel::Keystream");
        span.set_work(lanes * length);
        kernel->Keystream(buffer.data() + r * length, length, length);
      }
    }
    // The engine's scalar tail (every row when the width resolves to 1).
    for (; r < rows; ++r) {
      std::array<uint8_t, kKeySize> key;
      {
        ScopedSpan span(trace, "crypto.Rc4KeyGenerator::NextKey");
        span.set_work(1);
        key = keygen.NextKey();
      }
      std::unique_ptr<rc4b::Rc4> rc4;
      {
        ScopedSpan span(trace, "rc4.Rc4LaneKernel::Init");
        span.set_work(1);
        rc4 = std::make_unique<rc4b::Rc4>(key);
        if (options.drop != 0) {
          rc4->Skip(options.drop);
        }
      }
      {
        ScopedSpan span(trace, "rc4.Rc4LaneKernel::Keystream");
        span.set_work(length);
        rc4->Keystream(std::span<uint8_t>(buffer.data() + r * length, length));
      }
    }
    {
      ScopedSpan span(trace, "engine.ShardSink::Consume");
      span.set_work(rows);
      sink->Consume(rc4b::KeystreamBatch{buffer.data(), rows, length});
    }
    k += rows;
  }
  ScopedSpan span(trace, "engine.BiasAccumulator::MergeShard");
  accumulator.MergeShard(*sink, options.keys);
}

// The replay's per-layer metrics: key generation, KSA, PRGA, Consume,
// MakeShard and MergeShard.
void SetReplayMetrics(const CallMap& stats,
                      WorkloadResult* result) {
  const uint64_t batches = Calls(stats, "engine.ShardSink::Consume");
  result->SetLayer("crypto.keygen_ns_per_key",
                   NsPerWork(stats, "crypto.Rc4KeyGenerator::NextKey"), batches);
  result->SetLayer("rc4.ksa_ns_per_key",
                   NsPerWork(stats, "rc4.Rc4LaneKernel::Init"), batches);
  result->SetLayer("rc4.prga_ns_per_byte",
                   NsPerWork(stats, "rc4.Rc4LaneKernel::Keystream"), batches);
  result->SetLayer("engine.consume_ns_per_key",
                   NsPerWork(stats, "engine.ShardSink::Consume"), batches);
  result->SetLayer("engine.shard_setup_ms",
                   MedianMs(stats, "engine.BiasAccumulator::MakeShard"),
                   Calls(stats, "engine.BiasAccumulator::MakeShard"));
  result->SetLayer("engine.shard_merge_ms",
                   MedianMs(stats, "engine.BiasAccumulator::MergeShard"),
                   Calls(stats, "engine.BiasAccumulator::MergeShard"));
}

// ---------------------------------------------------------------------------
// singlebyte-grid

class SinglebyteGrid final : public Workload {
 public:
  static constexpr size_t kPositions = 256;
  // Keys per grid: ~1 s of one worker.
  static constexpr uint64_t kJobKeys = uint64_t{1} << 19;
  static constexpr uint64_t kWarmupKeys = uint64_t{1} << 16;

  explicit SinglebyteGrid(const RunConfig& config) : config_(config) {}

  void Setup(TraceBuffer* trace) override {
    ScopedSpan root(trace, "request.setup", kSetupRequest);
    // Warm-up, so the first timed grid does not pay first-use costs.
    rc4b::SingleByteAccumulator warm(kPositions);
    ScopedSpan span(trace, "engine.RunKeystreamEngine[warmup]");
    span.set_work(kWarmupKeys);
    rc4b::RunKeystreamEngine(EngineRange(config_.seed, 0, kWarmupKeys, 1), warm);
  }

  void Run(WorkloadResult* result) override {
    const int64_t deadline =
        NowNs() + static_cast<int64_t>(config_.seconds * 1e9);
    std::vector<double> rates, rates_1w, latencies, skews;
    PairedTiming paired;
    TraceBuffer trace(config_.trace);
    for (uint64_t job = 0; job < kMinJobs || NowNs() < deadline; ++job) {
      const auto operation = [&](TraceBuffer* buffer) {
        return Job(job, buffer, &skews, result);
      };
      const JobTimes times = config_.trace
                                 ? RunPaired(job, &trace, &paired, operation)
                                 : operation(nullptr);
      rates.push_back(static_cast<double>(kJobKeys) / Seconds(times.parallel_ns));
      rates_1w.push_back(static_cast<double>(kJobKeys) / Seconds(times.serial_ns));
      latencies.push_back(Seconds(times.parallel_ns));
    }
    result->end_to_end = {
        SampledMetric("keys_per_s", "keys/s", rates, "throughput_per_s"),
        SampledMetric("keys_per_s_1w", "keys/s", rates_1w, "worker_rate_per_s"),
        SampledMetric("grid_latency_s", "s", latencies, "time_to_result_s"),
    };
    if (!config_.trace) {
      return;
    }
    AppendSpans(&result->spans, trace.spans());
    const auto stats = StatsByName(result->spans);
    SetReplayMetrics(stats, result);
    const double run_ns =
        NsPerWork(stats, "engine.RunKeystreamEngine[1]");
    result->SetLayer("engine.run_ns_per_key", run_ns,
                     Calls(stats, "engine.RunKeystreamEngine[1]"));
    const auto& layer = result->per_layer;
    result->SetLayer(
        "engine.glue_ns_per_key",
        run_ns - layer.at("crypto.keygen_ns_per_key").value -
            layer.at("rc4.ksa_ns_per_key").value -
            static_cast<double>(kPositions) *
                layer.at("rc4.prga_ns_per_byte").value -
            layer.at("engine.consume_ns_per_key").value,
        Calls(stats, "engine.RunKeystreamEngine[1]"));
    result->SetLayer("engine.scaling_efficiency",
                     Median(rates) / (config_.nproc * Median(rates_1w)),
                     rates.size());
    result->SetLayer("engine.shard_skew", Median(skews), skews.size());
    result->SetLayer("store.checkpoint_write_ms",
                     MedianMs(stats, "store.WriteGridFileDurable"),
                     Calls(stats, "store.WriteGridFileDurable"));
    result->SetLayer("store.write_mb_per_s",
                     MbPerS(stats, "store.WriteGridFileDurable"),
                     Calls(stats, "store.WriteGridFileDurable"));
    result->SetLayer("store.bytes_written_mb", static_cast<double>(kGridBytes) / kMiB,
                     1);
    result->SetLayer("store.validate_mb_per_s",
                     MbPerS(stats, "store.GridFileView::Open"),
                     Calls(stats, "store.GridFileView::Open"));
    paired.SetOverhead(result);
  }

 private:
  struct JobTimes {
    int64_t parallel_ns = 0;  // nproc grid, written and validated
    int64_t serial_ns = 0;    // the same grid at 1 worker
  };

  static constexpr uint64_t kGridBytes = kPositions * 256 * sizeof(uint64_t);

  // One grid over keys [job * kJobKeys, (job + 1) * kJobKeys): at nproc
  // workers, durably written and reopened, then again at 1 worker. Traced
  // runs also replay one shard through the engine's pieces and time one
  // engine per key slice on nproc threads (engine.shard_skew).
  JobTimes Job(uint64_t job, TraceBuffer* trace, std::vector<double>* skews,
               WorkloadResult* result) {
    OutcomeLog& log = result->outcomes;
    log.Attempt();
    const uint64_t first = job * kJobKeys;
    const std::string path = config_.work_dir + "/singlebyte.grid";
    rc4b::SingleByteAccumulator parallel(kPositions);
    rc4b::SingleByteAccumulator serial(kPositions);
    rc4b::SingleByteAccumulator replay(kPositions);
    store::GridMeta meta;
    store::GridFileView view;
    JobTimes times;
    {
      ScopedSpan root(trace, "request.job", static_cast<uint32_t>(job));
      const int64_t start = NowNs();
      {
        ScopedSpan span(trace, "engine.RunKeystreamEngine[nproc]");
        span.set_work(kJobKeys);
        rc4b::RunKeystreamEngine(
            EngineRange(config_.seed, first, kJobKeys, config_.nproc), parallel);
      }
      meta.kind = store::GridKind::kSingleByte;
      meta.seed = config_.seed;
      meta.key_begin = first;
      meta.key_end = first + kJobKeys;
      meta.rows = kPositions;
      meta.samples = parallel.grid().keys();
      {
        ScopedSpan span(trace, "store.WriteGridFileDurable");
        span.set_work(kGridBytes);
        CheckStatus(store::WriteGridFileDurable(path, meta, parallel.grid().Cells()),
                    "write " + path, &log);
      }
      {
        ScopedSpan span(trace, "store.GridFileView::Open");
        span.set_work(kGridBytes);
        CheckStatus(view.Open(path), "reopen " + path, &log);
      }
      times.parallel_ns = NowNs() - start;
      const int64_t serial_start = NowNs();
      {
        ScopedSpan span(trace, "engine.RunKeystreamEngine[1]");
        span.set_work(kJobKeys);
        rc4b::RunKeystreamEngine(EngineRange(config_.seed, first, kJobKeys, 1),
                                 serial);
      }
      times.serial_ns = NowNs() - serial_start;
      if (config_.trace) {
        ReplayShard(EngineRange(config_.seed, first, kJobKeys / config_.nproc, 1),
                    replay, trace);
      }
    }

    const std::span<const uint64_t> cells = parallel.grid().Cells();
    log.Check(RowSumProblem(cells, 256, kJobKeys));
    if (!(view.meta() == meta) ||
        !std::equal(cells.begin(), cells.end(), view.cells().begin(),
                    view.cells().end())) {
      log.Fail("grid " + std::to_string(job) +
               ": reopened file differs from the grid written");
    }
    if (!(parallel.grid() == serial.grid())) {
      log.Fail("grid " + std::to_string(job) + ": nproc and 1-worker grids differ");
    }
    if (job == 0 && !result->digest) {
      result->digest = DigestWords(kDigestInit, cells);
    }
    if (config_.trace) {
      skews->push_back(SliceSkew(first, trace, replay, parallel, result));
    }
    return times;
  }

  // One 1-worker engine per nproc key slice, on nproc threads at once:
  // slowest ÷ median slice wall time. Checks the slices add up to the nproc
  // grid and that the replay equals slice 0.
  double SliceSkew(uint64_t first, TraceBuffer* trace,
                   const rc4b::SingleByteAccumulator& replay,
                   const rc4b::SingleByteAccumulator& parallel,
                   WorkloadResult* result) {
    const unsigned n = config_.nproc;
    const uint64_t slice_keys = kJobKeys / n;
    const bool traced = trace != nullptr && trace->enabled();
    std::vector<TraceBuffer> buffers(n, TraceBuffer(traced));
    std::vector<rc4b::SingleByteAccumulator> slices(n,
                                                    rc4b::SingleByteAccumulator(kPositions));
    std::vector<double> walls(n, 0.0);
    {
      std::vector<std::jthread> threads;
      for (unsigned i = 0; i < n; ++i) {
        threads.emplace_back([&, i] {
          ScopedSpan root(&buffers[i], "request.shard", i);
          const int64_t start = NowNs();
          ScopedSpan span(&buffers[i], "engine.RunKeystreamEngine[slice]");
          span.set_work(slice_keys);
          rc4b::RunKeystreamEngine(
              EngineRange(config_.seed, first + i * slice_keys, slice_keys, 1),
              slices[i]);
          walls[i] = static_cast<double>(NowNs() - start);
        });
      }
    }
    rc4b::SingleByteGrid sum(kPositions);
    for (const rc4b::SingleByteAccumulator& slice : slices) {
      sum.Merge(slice.grid());
    }
    if (slice_keys * n == kJobKeys && !(sum == parallel.grid())) {
      result->outcomes.Fail("key slices do not add up to the nproc grid");
    }
    if (!(replay.grid() == slices[0].grid())) {
      result->outcomes.Fail("replayed shard differs from RunKeystreamEngine");
    }
    for (const TraceBuffer& buffer : buffers) {
      AppendSpans(&result->spans, buffer.spans());
    }
    return *std::max_element(walls.begin(), walls.end()) / Median(walls);
  }

  RunConfig config_;
};

// ---------------------------------------------------------------------------
// digraph-campaign

// CPU seconds (user + system) of every reaped child process so far.
double ReapedChildrenCpuS() {
  rusage usage{};
  getrusage(RUSAGE_CHILDREN, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

class DigraphCampaign final : public Workload {
 public:
  static constexpr size_t kRows = 256;
  static constexpr size_t kCellsPerRow = 65536;
  // Keys per shard: two steps at the tools' default checkpoint cadence.
  static constexpr uint64_t kShardKeys = uint64_t{1} << 17;
  // The median of three campaigns keeps keys_per_s within a few percent.
  static constexpr uint64_t kMinCampaigns = 3;

  explicit DigraphCampaign(const RunConfig& config)
      : config_(config),
        shards_(2 * config.nproc),
        campaign_keys_(kShardKeys * 2 * config.nproc) {
    options_.shard.workers = 1;
    options_.max_parallel = config.nproc;
  }

  void Setup(TraceBuffer* trace) override {
    ScopedSpan root(trace, "request.setup", kSetupRequest);
    // Warm-up: one small shard-sized grid in-process, so the first timed
    // campaign does not pay first-use costs.
    ScopedSpan span(trace, "store.GenerateStoredGrid[warmup]");
    store::GridMeta meta = CampaignMeta(0);
    meta.key_end = meta.key_begin + 4096;
    span.set_work(meta.keys());
    store::GenerateStoredGrid(meta, 1, 0);
  }

  void Run(WorkloadResult* result) override {
    const int64_t deadline =
        NowNs() + static_cast<int64_t>(config_.seconds * 1e9);
    std::vector<double> rates, worker_rates, latencies;
    PairedTiming paired;
    TraceBuffer trace(config_.trace);
    // A campaign takes ~13 s; a traced one runs twice, so one pair is enough.
    const uint64_t min_jobs = config_.trace ? 1 : kMinCampaigns;
    for (uint64_t job = 0; job < min_jobs || NowNs() < deadline; ++job) {
      const auto operation = [&](TraceBuffer* buffer) {
        return Campaign(job, buffer, result);
      };
      const JobTimes times = config_.trace
                                 ? RunPaired(job, &trace, &paired, operation)
                                 : operation(nullptr);
      const auto keys = static_cast<double>(campaign_keys_);
      rates.push_back(keys / Seconds(times.wall_ns));
      worker_rates.push_back(keys / times.worker_cpu_s);
      latencies.push_back(Seconds(times.wall_ns));
    }
    result->end_to_end = {
        SampledMetric("keys_per_s", "keys/s", rates, "throughput_per_s"),
        SampledMetric("keys_per_worker_cpu_s", "keys/s", worker_rates,
                      "worker_rate_per_s"),
        SampledMetric("campaign_latency_s", "s", latencies, "time_to_result_s"),
    };
    result->SetLayer("orchestrate.launches_per_shard",
                     static_cast<double>(launches_) / static_cast<double>(shard_runs_),
                     shard_runs_);
    result->SetLayer("orchestrate.quarantined", static_cast<double>(quarantined_),
                     shard_runs_);
    if (!config_.trace) {
      return;
    }
    AppendSpans(&result->spans, trace.spans());
    const auto stats = StatsByName(result->spans);
    SetReplayMetrics(stats, result);
    const double shard_run_s = MedianMs(stats, "store.RunShard") * 1e-3;
    const double campaign_s =
        MedianMs(stats, "orchestrate.CampaignScheduler::Run") * 1e-3;
    const uint64_t campaigns = Calls(stats, "orchestrate.CampaignScheduler::Run");
    result->SetLayer("store.shard_run_s", shard_run_s,
                     Calls(stats, "store.RunShard"));
    result->SetLayer("store.checkpoint_write_ms",
                     MedianMs(stats, "store.WriteGridFileDurable"),
                     Calls(stats, "store.WriteGridFileDurable"));
    result->SetLayer("store.write_mb_per_s",
                     MbPerS(stats, "store.WriteGridFileDurable"),
                     Calls(stats, "store.WriteGridFileDurable"));
    // Every shard writes a checkpoint per step but the last, then its final
    // grid; the campaign writes the merged grid.
    const uint64_t step = options_.shard.checkpoint_keys;
    const uint64_t files_per_shard = step == 0 ? 1 : (kShardKeys + step - 1) / step;
    result->SetLayer("store.bytes_written_mb",
                     static_cast<double>((shards_ * files_per_shard + 1) *
                                         GridBytes()) / kMiB,
                     campaigns);
    result->SetLayer("store.validate_mb_per_s",
                     MbPerS(stats, "store.GridFileView::Open"),
                     Calls(stats, "store.GridFileView::Open"));
    result->SetLayer("store.merge_s",
                     MedianMs(stats, "store.MergeShardGridsEx") * 1e-3,
                     Calls(stats, "store.MergeShardGridsEx"));
    result->SetLayer("orchestrate.campaign_s", campaign_s, campaigns);
    const uint64_t waves = (shards_ + config_.nproc - 1) / config_.nproc;
    result->SetLayer("orchestrate.overhead_s",
                     campaign_s - static_cast<double>(waves) * shard_run_s,
                     campaigns);
    paired.SetOverhead(result);
  }

 private:
  struct JobTimes {
    int64_t wall_ns = 0;  // campaign start to validated merged file
    double worker_cpu_s = 0.0;
  };

  static uint64_t GridBytes() { return kRows * kCellsPerRow * sizeof(uint64_t); }

  store::GridMeta CampaignMeta(uint64_t job) const {
    store::GridMeta meta;
    meta.kind = store::GridKind::kConsecutive;
    meta.seed = config_.seed;
    meta.key_begin = job * campaign_keys_;
    meta.key_end = meta.key_begin + campaign_keys_;
    meta.rows = kRows;
    return meta;
  }

  // One campaign: plan 2 x nproc shards, run them in nproc single-thread
  // worker processes, merge, write and reopen the merged grid. Traced runs
  // also run one shard in-process and replay its first checkpoint step
  // through the engine's pieces.
  JobTimes Campaign(uint64_t job, TraceBuffer* trace, WorkloadResult* result) {
    OutcomeLog& log = result->outcomes;
    const bool traced = trace != nullptr && trace->enabled();
    const std::string dir = config_.work_dir + "/campaign" +
                            std::to_string(job) + (traced ? "-traced" : "");
    std::filesystem::remove_all(dir);
    CheckStatus(rc4b::MakeDirs(dir), "mkdir " + dir, &log);
    const store::GridMeta meta = CampaignMeta(job);
    const store::Manifest manifest = store::PlanShards(meta, shards_, "grid");
    const std::string manifest_path = dir + "/grid.manifest";
    CheckStatus(store::WriteManifest(manifest_path, manifest),
                "write " + manifest_path, &log);

    JobTimes times;
    rc4b::orchestrate::CampaignReport report;
    store::StoredGrid reread;
    const std::string merged_path = dir + "/merged.grid";
    {
      ScopedSpan root(trace, "request.campaign", static_cast<uint32_t>(job));
      const double cpu_before = ReapedChildrenCpuS();
      const int64_t start = NowNs();
      {
        ScopedSpan span(trace, "orchestrate.CampaignScheduler::Run");
        span.set_work(campaign_keys_);
        rc4b::orchestrate::CampaignScheduler scheduler(manifest, manifest_path,
                                                       options_);
        CheckStatus(scheduler.Run(&report), "campaign", &log);
      }
      {
        store::StoredGrid merged;
        {
          ScopedSpan span(trace, "store.MergeShardGridsEx");
          span.set_work(GridBytes());
          store::MergeOutcome outcome;
          CheckStatus(store::MergeShardGridsEx(manifest, manifest_path, {},
                                               &merged, &outcome),
                      "merge", &log);
        }
        ScopedSpan span(trace, "store.WriteGridFileDurable");
        span.set_work(GridBytes());
        CheckStatus(store::WriteGridFileDurable(merged_path, merged.meta,
                                                merged.cells),
                    "write " + merged_path, &log);
      }
      {
        ScopedSpan span(trace, "store.ReadGridFile");
        span.set_work(GridBytes());
        CheckStatus(store::ReadGridFile(merged_path, &reread),
                    "reopen " + merged_path, &log);
      }
      times.wall_ns = NowNs() - start;
      times.worker_cpu_s = ReapedChildrenCpuS() - cpu_before;
    }

    // Every shard is one operation; a retry or quarantine fails it.
    log.Attempt(shards_);
    for (size_t i = 0; i < report.shards.size(); ++i) {
      const auto& shard = report.shards[i];
      launches_ += shard.attempts;
      ++shard_runs_;
      if (shard.state != rc4b::orchestrate::ShardState::kDone ||
          shard.attempts != 1) {
        log.Fail("campaign " + std::to_string(job) + " shard " +
                 std::to_string(i) + ": " +
                 rc4b::orchestrate::ShardStateName(shard.state) + " after " +
                 std::to_string(shard.attempts) + " launches " + shard.note);
      }
    }
    quarantined_ += report.quarantined();
    store::GridMeta want = meta;
    want.samples = campaign_keys_;
    want.interleave = reread.meta.interleave;  // informational
    if (!(reread.meta == want)) {
      log.Fail("campaign " + std::to_string(job) +
               ": merged file provenance does not match the plan");
    }
    log.Check(RowSumProblem(reread.cells, kCellsPerRow, campaign_keys_));
    reread = store::StoredGrid{};  // the checks below must not add to peak memory
    if (job == 0) {  // both twins of a traced run, so they do the same work
      // The scalar oracle: shard 0 equals an in-process engine run over its
      // key slice at interleave 1, on one worker so that it needs no more
      // memory than a campaign worker.
      const store::ShardEntry& shard = manifest.shards[0];
      store::StoredGrid shard_grid;
      CheckStatus(store::ReadGridFile(
                      store::ResolveManifestPath(manifest_path, shard.path),
                      &shard_grid),
                  "read shard 0", &log);
      rc4b::ConsecutiveAccumulator oracle(kRows);
      rc4b::EngineOptions options = EngineRange(
          config_.seed, shard.key_begin, shard.key_end - shard.key_begin, 1);
      options.interleave = 1;
      rc4b::RunKeystreamEngine(options, oracle);
      const auto oracle_cells = oracle.grid().Cells();
      if (!std::equal(oracle_cells.begin(), oracle_cells.end(),
                      shard_grid.cells.begin(), shard_grid.cells.end())) {
        log.Fail("shard 0 differs from the interleave-1 engine over its keys");
      }
      // Shard 0 covers the same keys for every nproc; the merged grid does not.
      result->digest = DigestWords(kDigestInit, shard_grid.cells);
    }
    if (config_.trace) {
      InProcessShard(job, dir, manifest, trace, result);
    }
    std::filesystem::remove_all(dir);
    return times;
  }

  // store::RunShard in-process for shard job % shards (fresh files), then
  // that shard's first checkpoint step replayed through the engine's pieces
  // and written the way RunShard writes a checkpoint.
  void InProcessShard(uint64_t job, const std::string& dir,
                      const store::Manifest& manifest, TraceBuffer* trace,
                      WorkloadResult* result) {
    OutcomeLog& log = result->outcomes;
    const std::string inproc_dir = dir + "/inproc";
    const std::string manifest_path = inproc_dir + "/grid.manifest";
    CheckStatus(rc4b::MakeDirs(inproc_dir), "mkdir " + inproc_dir, &log);
    CheckStatus(store::WriteManifest(manifest_path, manifest),
                "write " + manifest_path, &log);
    const auto index = static_cast<uint32_t>(job % shards_);
    const store::ShardEntry& shard = manifest.shards[index];
    ScopedSpan root(trace, "request.shard", index);
    {
      ScopedSpan span(trace, "store.RunShard");
      span.set_work(shard.key_end - shard.key_begin);
      store::ShardRunResult run;
      CheckStatus(store::RunShard(manifest, manifest_path, index, options_.shard,
                                  &run),
                  "in-process shard", &log);
    }
    const std::string shard_path =
        store::ResolveManifestPath(manifest_path, shard.path);
    {
      ScopedSpan span(trace, "store.GridFileView::Open");
      span.set_work(GridBytes());
      store::GridFileView view;
      CheckStatus(view.Open(shard_path), "validate " + shard_path, &log);
    }
    const uint64_t step_keys = std::min<uint64_t>(
        options_.shard.checkpoint_keys == 0 ? kShardKeys
                                            : options_.shard.checkpoint_keys,
        kShardKeys);
    rc4b::ConsecutiveAccumulator replay(kRows);
    ReplayShard(EngineRange(config_.seed, shard.key_begin, step_keys, 1), replay,
                trace);
    log.Check(RowSumProblem(replay.grid().Cells(), kCellsPerRow, step_keys));
    store::GridMeta step_meta = manifest.grid;
    step_meta.key_begin = shard.key_begin;
    step_meta.key_end = shard.key_begin + step_keys;
    step_meta.samples = step_keys;
    ScopedSpan span(trace, "store.WriteGridFileDurable");
    span.set_work(GridBytes());
    CheckStatus(store::WriteGridFileDurable(store::CheckpointPath(shard_path),
                                            step_meta, replay.grid().Cells()),
                "write checkpoint", &log);
  }

  RunConfig config_;
  uint32_t shards_;
  uint64_t campaign_keys_;
  rc4b::orchestrate::CampaignOptions options_;
  uint64_t launches_ = 0;
  uint64_t shard_runs_ = 0;
  uint64_t quarantined_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeSinglebyteGrid(const RunConfig& config) {
  return std::make_unique<SinglebyteGrid>(config);
}

std::unique_ptr<Workload> MakeDigraphCampaign(const RunConfig& config) {
  return std::make_unique<DigraphCampaign>(config);
}

}  // namespace perfbench
