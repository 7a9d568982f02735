// scenario_tour: the unified recovery pipeline in one sitting.
//
// Every attack in this repository is a parameterization of one algorithm —
// accumulate ciphertext statistics, build per-position likelihoods, walk
// candidates in decreasing likelihood, verify against an oracle. The
// built-in scenario table (src/recovery/scenario.h) names those
// parameterizations; this example lists the table and runs a small tour
// through one scenario of each family at laptop scale:
//
//   * tkip-trailer-demo   — Sect. 5 MIC+ICV decryption (CRC verification),
//     defined here next to the built-ins to show how callers add their
//     own parameterizations (an uncalibrated small model, so the demo
//     recovers the trailer in seconds; the built-in tkip-trailer keeps the
//     honest calibrated signal and needs Fig. 8-scale captures)
//   * cookie-hex-8-gap32  — Sect. 6 brute force of an 8-char hex token
//   * singlebyte-beyond256 — Sect. 3.3.3 recovery past keystream byte 256
//
// The same scenarios run at paper scale from bench_scenarios, and their
// worker-count bit-exactness is pinned by tests/recovery/.
#include <cstdio>
#include <vector>

#include "src/common/flags.h"
#include "src/recovery/scenario.h"
#include "src/tls/cookie_attack.h"

using namespace rc4b;

int main(int argc, char** argv) {
  const ScaleFlagSpec scale{.count_flag = "trials",
                            .count_default = "4",
                            .count_help = "simulated attacks per scenario",
                            .seed_default = "7"};
  FlagSet flags("Tour of the recovery scenario registry");
  DefineScaleFlags(flags, scale);
  if (!flags.Parse(argc, argv)) {
    return 0;
  }
  const ScaleFlagValues scale_values = GetScaleFlags(flags, scale);

  std::printf("built-in scenarios:\n");
  for (const recovery::Scenario& scenario : recovery::BuiltinScenarios()) {
    std::printf("  %-24s %s\n", scenario.name.c_str(), scenario.description.c_str());
  }

  // A local table of the built-ins' config types: exactly what a new
  // workload does to plug itself into the pipeline (docs/recovery.md). The
  // demo variant skips the bias calibration, so the small model's sampling
  // noise acts as an (inflated) signal and the attack completes in seconds.
  recovery::TkipTrailerScenarioConfig demo;
  demo.target_bias_rms = 0.0;
  demo.default_model_keys = 1 << 10;
  demo.default_samples = 1 << 14;
  demo.default_budget = 1 << 20;
  recovery::CookieScenarioConfig hex8;
  hex8.cookie_length = 8;
  hex8.alphabet = CookieAlphabetHex();
  hex8.max_gap = 32;
  hex8.default_samples = uint64_t{1} << 32;
  hex8.default_budget = uint64_t{1} << 17;
  const std::vector<recovery::Scenario> tour = {
      {"tkip-trailer-demo", "laptop-scale Sect. 5 demo: uncalibrated 2^10-key model",
       demo},
      {"cookie-hex-8-gap32", "8-char hex token, 32-gap ABSAB budget", hex8},
      {"singlebyte-beyond256", "recovery past keystream byte 256",
       recovery::SingleByteScenarioConfig{}},
  };

  recovery::ScenarioParams params;
  params.trials = scale_values.count;
  params.workers = scale_values.workers;
  params.seed = scale_values.seed;

  for (const recovery::Scenario& scenario : tour) {
    std::printf("\nrunning %s (%llu trials)...\n", scenario.name.c_str(),
                static_cast<unsigned long long>(params.trials));
    const auto outcome = recovery::RunScenario(scenario, params);
    std::printf("  within budget: %llu/%llu   truth in top-2: %llu/%llu\n",
                static_cast<unsigned long long>(outcome.budget_wins),
                static_cast<unsigned long long>(outcome.trials),
                static_cast<unsigned long long>(outcome.exact_wins),
                static_cast<unsigned long long>(outcome.trials));
  }
  std::printf("\nevery stop above ran capture -> likelihood source -> "
              "candidate traversal -> verification through one engine; see "
              "docs/recovery.md for how to add your own scenario.\n");
  return 0;
}
