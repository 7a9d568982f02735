// Fig. 10 — success rate of brute-forcing a 16-character secure cookie with
// ~2^23 candidate attempts, and with only the most likely candidate, vs the
// number of captured request ciphertexts (x-axis in units of 2^27).
//
// The simulation lives in src/sim/cookie_sim.h: likelihoods combine the
// Fluhrer-McGrew double-byte estimate at each of the 17 adjacent pairs
// spanning m1 || cookie || mL with the multi-gap ABSAB differential
// estimates against the injected known plaintext (Sect. 6); ciphertext
// statistics are sampled from their exact Poissonized law; the
// "rank <= 2^23" criterion is evaluated with the Markov rank DP. Algorithm 2
// itself streams lazily and can walk 2^23 candidates, but every trial whose
// cookie lies beyond the budget would cost a full 2^23 traversal (seconds
// each), while the DP prices any rank at the same cost. Trials are sharded on
// the src/sim/ runner, so every printed row is bit-exact for any --workers
// value.
#include <cmath>
#include <cstdio>

#include "bench/harness.h"
#include "src/common/flags.h"
#include "src/sim/cookie_sim.h"

namespace rc4b {
namespace {

int Run(int argc, char** argv) {
  const ScaleFlagSpec scale{.count_flag = "sims",
                            .count_default = "256",
                            .count_help = "simulations per point (paper: 256)",
                            .seed_default = "15"};
  FlagSet flags("Fig. 10: cookie brute-force success vs ciphertexts x 2^27");
  DefineScaleFlags(flags, scale)
      .Define("max-copies", "15", "largest checkpoint in units of 2^27")
      .Define("step", "2", "checkpoint step in units of 2^27")
      .Define("attempts-log2", "23", "log2 of the brute-force budget")
      .Define("alignment", "48", "cookie keystream position mod 256")
      .Define("max-gap", "128", "largest ABSAB gap used");
  if (!flags.Parse(argc, argv)) {
    return 0;
  }
  const ScaleFlagValues scale_values = GetScaleFlags(flags, scale);

  bench::PrintHeader(
      "bench_fig10_cookie_bruteforce",
      "Fig. 10 (16-char cookie recovery, 2^23 attempts vs 1 attempt)",
      "expected shape: with 2^23 attempts success passes ~90% around 9 x 2^27 "
      "ciphertexts; the 1-candidate curve lags far behind");

  sim::CookieSimOptions options;
  options.alignment = flags.GetUint("alignment");
  options.max_gap = flags.GetUint("max-gap");
  options.attempt_budget =
      std::exp2(static_cast<double>(flags.GetInt("attempts-log2")));
  options.trials = scale_values.count;
  options.workers = scale_values.workers;
  options.seed = scale_values.seed;
  const sim::CookieSimContext context(options);

  std::printf("%-16s %16s %16s\n", "copies (x2^27)", "2^23 attempts",
              "1 attempt");
  for (uint64_t copies = 1; copies <= flags.GetUint("max-copies");
       copies += flags.GetUint("step")) {
    const uint64_t ciphertexts = copies << 27;
    const auto aggregate = sim::RunCookieSimulations(context, ciphertexts);
    std::printf("%-16llu %15.1f%% %15.1f%%\n",
                static_cast<unsigned long long>(copies),
                100.0 * static_cast<double>(aggregate.budget_wins) /
                    static_cast<double>(aggregate.trials),
                100.0 * static_cast<double>(aggregate.best_wins) /
                    static_cast<double>(aggregate.trials));
  }
  return 0;
}

}  // namespace
}  // namespace rc4b

int main(int argc, char** argv) { return rc4b::Run(argc, argv); }
