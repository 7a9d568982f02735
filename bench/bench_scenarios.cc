// Scenario runner — any named built-in scenario of the unified recovery
// pipeline (src/recovery/scenario.h, docs/recovery.md) end-to-end: victim setup,
// capture, likelihood source, candidate traversal, verification. One binary
// covers every workload the table names (TKIP trailer variants, cookie
// length x charset x gap combinations, single-byte recovery beyond position
// 256); trials run on the src/sim/ runner, so every printed row is bit-exact
// for any --workers value.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/common/flags.h"
#include "src/recovery/scenario.h"

namespace rc4b {
namespace {

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

int Run(int argc, char** argv) {
  const ScaleFlagSpec scale{.count_flag = "trials",
                            .count_default = "8",
                            .count_help = "simulated attacks per scenario",
                            .seed_default = "33"};
  FlagSet flags("Recovery scenarios: run any registry scenario end-to-end");
  DefineScaleFlags(flags, scale)
      .Define("scenario", "all",
              "registry scenario name, 'all', or 'list' to print the registry")
      .Define("samples", "0",
              "captured frames/requests per trial (0 = scenario default)")
      .Define("budget", "0", "candidate budget (0 = scenario default)")
      .Define("model-keys", "0",
              "attacker-model scale (0 = scenario default)")
      .Define("grid-cache", "",
              "warm-start engine-backed scenarios from stored grids in this "
              "directory (docs/store.md)");
  if (!flags.Parse(argc, argv)) {
    return 0;
  }

  const std::vector<recovery::Scenario>& builtins = recovery::BuiltinScenarios();
  const std::string name = flags.GetString("scenario");
  if (name == "list") {
    for (const recovery::Scenario& scenario : builtins) {
      std::printf("%-24s %s\n", scenario.name.c_str(), scenario.description.c_str());
    }
    return 0;
  }

  std::span<const recovery::Scenario> selected = builtins;
  if (name != "all") {
    const recovery::Scenario* scenario = recovery::FindScenario(builtins, name);
    if (scenario == nullptr) {
      std::fprintf(stderr, "unknown scenario '%s' (use --scenario=list)\n", name.c_str());
      return 2;
    }
    selected = std::span(scenario, 1);
  }

  const ScaleFlagValues scale_values = GetScaleFlags(flags, scale);
  recovery::ScenarioParams params;
  params.trials = scale_values.count;
  params.workers = scale_values.workers;
  params.seed = scale_values.seed;
  params.samples = flags.GetUint("samples");
  params.budget = flags.GetUint("budget");
  params.model_keys = flags.GetUint("model-keys");
  params.grid_cache = flags.GetString("grid-cache");

  bench::PrintHeader(
      "bench_scenarios",
      "unified recovery pipeline (Sect. 5 + Sect. 6 + Sect. 3.3.3 workloads)",
      "one row per registry scenario; rows are bit-exact for any --workers");

  std::printf("%-24s %8s %12s %12s %14s %8s\n", "scenario", "trials",
              "budget wins", "exact wins", "median rank", "secs");
  for (const recovery::Scenario& scenario : selected) {
    const auto begin = std::chrono::steady_clock::now();
    const auto outcome = recovery::RunScenario(scenario, params);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
            .count();
    std::printf("%-24s %8llu %11.1f%% %11.1f%% %14.3g %8.2f\n",
                scenario.name.c_str(),
                static_cast<unsigned long long>(outcome.trials),
                100.0 * static_cast<double>(outcome.budget_wins) /
                    static_cast<double>(outcome.trials),
                100.0 * static_cast<double>(outcome.exact_wins) /
                    static_cast<double>(outcome.trials),
                Median(outcome.ranks), seconds);
  }
  return 0;
}

}  // namespace
}  // namespace rc4b

int main(int argc, char** argv) { return rc4b::Run(argc, argv); }
