// Ablation — the cookie character-set restriction of Sect. 6.2: restricting
// Algorithm 2 / the rank computation to the legal cookie alphabet tightens
// the required ciphertext count. Compares the 64-character alphabet against
// the unrestricted 256-value space at several ciphertext counts.
#include <cmath>
#include <cstdio>
#include <numeric>
#include <vector>

#include "bench/harness.h"
#include "src/common/flags.h"
#include "src/common/rng.h"
#include "src/core/rank.h"
#include "src/sim/cookie_sim.h"
#include "src/sim/runner.h"

namespace rc4b {
namespace {

struct CharsetTrial {
  bool win64 = false;
  bool win256 = false;
};

int Run(int argc, char** argv) {
  const ScaleFlagSpec scale{.count_flag = "sims",
                            .count_default = "24",
                            .count_help = "simulations per point",
                            .seed_default = "22"};
  FlagSet flags("Ablation: cookie alphabet restriction (Sect. 6.2)");
  DefineScaleFlags(flags, scale)
      .Define("attempts-log2", "23", "log2 of the brute-force budget")
      .Define("alignment", "48", "cookie keystream alignment");
  if (!flags.Parse(argc, argv)) {
    return 0;
  }

  const ScaleFlagValues scale_values = GetScaleFlags(flags, scale);
  const int sims = static_cast<int>(scale_values.count);
  const double budget = std::exp2(static_cast<double>(flags.GetInt("attempts-log2")));
  // Defaults: a 16-character cookie between '=' and ';', ABSAB gaps up to 128.
  sim::CookieSimOptions options;
  options.alignment = flags.GetUint("alignment");
  const sim::CookieSimContext context(options);

  bench::PrintHeader(
      "bench_ablation_charset",
      "Sect. 6.2 ablation (not a paper figure): success with the 64-char "
      "cookie alphabet vs the unrestricted 256-value space",
      "same likelihoods, same 2^23-attempt budget; the restriction prunes "
      "illegal candidates and lifts the curve");

  const auto& alphabet64 = context.alphabet();
  std::vector<uint8_t> alphabet256(256);
  std::iota(alphabet256.begin(), alphabet256.end(), 0);

  std::printf("%-16s %16s %16s\n", "copies (x2^27)", "64-char", "256-value");
  for (uint64_t copies : {3ull, 5ull, 7ull, 9ull, 11ull}) {
    const uint64_t trials = copies << 27;
    // Each sim keeps its own seed, (seed, copies, s), not TrialRng's.
    const auto results = sim::RunTrials<CharsetTrial>(
        sim::TrialRunnerOptions{static_cast<uint64_t>(sims), scale_values.workers},
        [&](uint64_t s, Xoshiro256&) {
          Xoshiro256 rng(scale_values.seed * 7717 + copies * 131 + s);
          Bytes truth(options.cookie_length);
          for (auto& b : truth) {
            b = alphabet64[rng.Below(alphabet64.size())];
          }
          const auto transitions =
              sim::SampleCookieTransitions(context, truth, trials, rng);
          CharsetTrial result;
          result.win64 =
              MarkovRank(transitions, options.m1, options.m_last, truth, alphabet64)
                  .estimate < budget;
          result.win256 =
              MarkovRank(transitions, options.m1, options.m_last, truth, alphabet256)
                  .estimate < budget;
          return result;
        });
    int wins64 = 0, wins256 = 0;
    for (const CharsetTrial& result : results) {
      wins64 += result.win64 ? 1 : 0;
      wins256 += result.win256 ? 1 : 0;
    }
    std::printf("%-16llu %15.1f%% %15.1f%%\n",
                static_cast<unsigned long long>(copies), 100.0 * wins64 / sims,
                100.0 * wins256 / sims);
  }
  return 0;
}

}  // namespace
}  // namespace rc4b

int main(int argc, char** argv) { return rc4b::Run(argc, argv); }
