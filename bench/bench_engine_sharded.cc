// Sharded keystream-engine throughput: keystreams/sec for the single-byte
// and consecutive-digraph accumulators, comparing
//   * the scalar Rc4 reference path (EngineOptions::interleave = 1) against
//     the lane kernel (src/rc4/kernel_registry.h: Rc4MultiStream at
//     kLaneWidth lanes) on one thread — the single-core headline, and
//   * one shard against all cores — the sharding headline.
// Every run re-checks the engine's two bit-exactness guarantees: the lane
// kernel's grid equals the scalar grid, and the sharded merge equals the
// single-shard reference for the same seed.
//
// Each configuration is timed once; for medians over repeated runs and a
// per-layer breakdown use perfbench/ (perfbench/README.md). Thread scaling
// needs a multi-core host; the kernel speedup is single-thread and
// measurable anywhere.
#include <chrono>
#include <cstdio>

#include "bench/harness.h"
#include "src/common/flags.h"
#include "src/common/thread_pool.h"
#include "src/engine/accumulators.h"
#include "src/engine/keystream_engine.h"
#include "src/rc4/kernel_registry.h"

namespace rc4b {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

template <typename Accumulator>
double TimedRun(const EngineOptions& options, Accumulator& accumulator) {
  const auto start = std::chrono::steady_clock::now();
  RunKeystreamEngine(options, accumulator);
  return SecondsSince(start);
}

// Returns whether all grids were bit-exact.
template <typename MakeAccumulator>
bool RunMode(const char* mode, const EngineOptions& base, unsigned threads,
             MakeAccumulator make_accumulator) {
  EngineOptions options = base;
  const double n = static_cast<double>(options.keys);

  options.workers = 1;
  options.interleave = 1;
  auto scalar = make_accumulator();
  const double scalar_s = TimedRun(options, scalar);

  options.interleave = 0;
  auto multi = make_accumulator();
  const double multi_s = TimedRun(options, multi);

  options.workers = threads;
  auto sharded = make_accumulator();
  const double sharded_s = TimedRun(options, sharded);

  const bool exact =
      scalar.grid() == multi.grid() && scalar.grid() == sharded.grid();
  std::printf("%-12s %10.0f ks/s scalar  %10.0f ks/s lane kernel (%.2fx)  "
              "%10.0f ks/s x%u threads (%.2fx)  bit-exact: %s\n",
              mode, n / scalar_s, n / multi_s, scalar_s / multi_s,
              n / sharded_s, threads, multi_s / sharded_s,
              exact ? "OK" : "FAILED");
  return exact;
}

int Run(int argc, char** argv) {
  const ScaleFlagSpec scale{
      .count_flag = "keys",
      .count_default = "0x80000",
      .count_help = "RC4 keys per run (2^19)",
      .workers_flag = "threads",
      .workers_help = "shard count for the parallel run (0 = all cores)",
      .seed_default = "42",
      .seed_help = "engine seed"};
  FlagSet flags("Sharded keystream-statistics engine throughput");
  DefineScaleFlags(flags, scale)
      .Define("positions", "256", "keystream positions per key");
  if (!flags.Parse(argc, argv)) {
    return 0;
  }
  const auto [keys, parsed_threads, seed] = GetScaleFlags(flags, scale);
  const size_t positions = static_cast<size_t>(flags.GetUint("positions"));
  const unsigned threads =
      parsed_threads != 0 ? parsed_threads : DefaultWorkerCount();
  // The same dispatch decision the engine will make, surfaced up front so
  // stdout records the kernel the numbers belong to.
  const KernelChoice choice = ResolveKernelChoice("", 0);

  bench::PrintHeader(
      "bench_engine_sharded",
      "Sect. 3.2 dataset generation (engine substrate for Fig. 4-10, Tab. 1-2)",
      "keystreams/sec: scalar vs lane kernel (1 thread), then all "
      "cores; every run re-checks both bit-exactness guarantees");
  std::printf(
      "keys=%llu positions=%zu threads=%u (hardware: %u) kernel=%.*s@%zu "
      "cpu=%s\n\n",
      static_cast<unsigned long long>(keys), positions, threads,
      DefaultWorkerCount(), static_cast<int>(choice.name().size()),
      choice.name().data(), choice.width, CpuFeatureString().c_str());

  EngineOptions base;
  base.keys = keys;
  base.seed = seed;

  bool exact = RunMode("single-byte", base, threads,
                       [&] { return SingleByteAccumulator(positions); });
  exact &= RunMode("digraph", base, threads,
                   [&] { return ConsecutiveAccumulator(positions); });
  if (!exact) {
    std::printf("\nBIT-EXACTNESS VIOLATION: see rows above\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace rc4b

int main(int argc, char** argv) { return rc4b::Run(argc, argv); }
