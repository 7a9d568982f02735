// Throughput of the src/sim/ trial-parallel simulation subsystem:
// TKIP-attack trials per second with 1 worker vs all cores, plus a re-check
// of the worker-count bit-exactness contract (docs/sim.md) on every run —
// mirroring what bench_engine_sharded does for the keystream engine.
//
// Scaling factors need a multi-core host to mean anything.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/harness.h"
#include "src/common/flags.h"
#include "src/common/thread_pool.h"
#include "src/sim/cookie_sim.h"
#include "src/sim/tkip_sim.h"

namespace rc4b {
namespace {

double Seconds(const std::chrono::steady_clock::time_point& begin) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
      .count();
}

int Run(int argc, char** argv) {
  const ScaleFlagSpec scale{
      .count_flag = "trials",
      .count_default = "8",
      .count_help = "simulated TKIP attacks per run",
      .workers_flag = "threads",
      .workers_help = "worker count for the parallel run (0 = all)",
      .seed_default = "21"};
  FlagSet flags("src/sim trial throughput, 1 worker vs all cores");
  DefineScaleFlags(flags, scale)
      .Define("checkpoint", "0x4000", "packets captured per trial")
      .Define("keys-per-tsc", "0x400", "model keys per TSC1 class")
      .Define("cookie-trials", "8", "simulated cookie attacks per run")
      .Define("cookie-ciphertexts", "0x8000000", "captured requests (2^27)");
  if (!flags.Parse(argc, argv)) {
    return 0;
  }
  const auto [trial_count, parsed_threads, seed] =
      GetScaleFlags(flags, scale);

  bench::PrintHeader("bench_sim_trials",
                     "Sect. 5/6 Monte-Carlo simulations (Figs. 7-10 substrate)",
                     "trials/s, 1 worker vs all cores; every run re-checks "
                     "that aggregates are bit-exact across worker counts");

  const Bytes msdu = sim::InjectedPacket();
  TkipTscModel model(msdu.size() + 1, msdu.size() + kTkipTrailerSize);
  model.Generate(flags.GetUint("keys-per-tsc"), seed + 1);

  sim::TkipSimOptions options;
  options.checkpoints = {flags.GetUint("checkpoint")};
  options.trials = trial_count;
  options.seed = seed;

  const unsigned all =
      parsed_threads != 0 ? parsed_threads : DefaultWorkerCount();

  std::printf("\nTKIP trailer-recovery simulation (%llu trials, checkpoint "
              "%llu packets):\n",
              static_cast<unsigned long long>(options.trials),
              static_cast<unsigned long long>(options.checkpoints[0]));
  options.workers = 1;
  auto begin = std::chrono::steady_clock::now();
  const auto serial = sim::RunTkipSimulations(model, options);
  const double serial_s = Seconds(begin);
  options.workers = all;
  begin = std::chrono::steady_clock::now();
  const auto parallel = sim::RunTkipSimulations(model, options);
  const double parallel_s = Seconds(begin);
  std::printf("  1 worker : %8.2f trials/s\n",
              static_cast<double>(options.trials) / serial_s);
  std::printf("  %2u workers: %8.2f trials/s (%.2fx)\n", all,
              static_cast<double>(options.trials) / parallel_s,
              serial_s / parallel_s);
  if (!(serial == parallel)) {
    std::printf("  BIT-EXACTNESS VIOLATION: 1-worker and %u-worker aggregates "
                "differ\n",
                all);
    return 1;
  }
  std::printf("  aggregates bit-exact across worker counts: OK\n");

  sim::CookieSimOptions cookie_options;
  cookie_options.trials = flags.GetUint("cookie-trials");
  cookie_options.seed = seed;
  const uint64_t ciphertexts = flags.GetUint("cookie-ciphertexts");

  std::printf("\ncookie brute-force simulation (%llu trials, %llu "
              "ciphertexts):\n",
              static_cast<unsigned long long>(cookie_options.trials),
              static_cast<unsigned long long>(ciphertexts));
  sim::CookieSimOptions serial_options = cookie_options;
  serial_options.workers = 1;
  const sim::CookieSimContext serial_context(serial_options);
  begin = std::chrono::steady_clock::now();
  const auto cookie_serial = sim::RunCookieSimulations(serial_context, ciphertexts);
  const double cookie_serial_s = Seconds(begin);
  sim::CookieSimOptions parallel_options = cookie_options;
  parallel_options.workers = all;
  const sim::CookieSimContext parallel_context(parallel_options);
  begin = std::chrono::steady_clock::now();
  const auto cookie_parallel =
      sim::RunCookieSimulations(parallel_context, ciphertexts);
  const double cookie_parallel_s = Seconds(begin);
  std::printf("  1 worker : %8.2f trials/s\n",
              static_cast<double>(cookie_options.trials) / cookie_serial_s);
  std::printf("  %2u workers: %8.2f trials/s (%.2fx)\n", all,
              static_cast<double>(cookie_options.trials) / cookie_parallel_s,
              cookie_serial_s / cookie_parallel_s);
  if (!(cookie_serial == cookie_parallel)) {
    std::printf("  BIT-EXACTNESS VIOLATION: 1-worker and %u-worker aggregates "
                "differ\n",
                all);
    return 1;
  }
  std::printf("  aggregates bit-exact across worker counts: OK\n");
  return 0;
}

}  // namespace
}  // namespace rc4b

int main(int argc, char** argv) { return rc4b::Run(argc, argv); }
