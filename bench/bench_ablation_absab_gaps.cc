// Ablation — how much each additional ABSAB estimate buys (Sect. 4.3's
// "combining several ABSAB biases clearly results in a major improvement").
// Sweeps the number of gaps combined with the FM estimate at a fixed
// ciphertext count and reports two-byte recovery rates, plus the no-FM and
// no-ABSAB baselines.
#include <cstdio>
#include <vector>

#include "bench/harness.h"
#include "src/biases/fluhrer_mcgrew.h"
#include "src/biases/mantin.h"
#include "src/common/flags.h"
#include "src/common/rng.h"
#include "src/core/likelihood.h"
#include "src/core/synthetic.h"
#include "src/sim/runner.h"

namespace rc4b {
namespace {

struct GapTrial {
  bool absab_win = false;
  bool combined_win = false;
};

int Run(int argc, char** argv) {
  const ScaleFlagSpec scale{.count_flag = "sims",
                            .count_default = "192",
                            .count_help = "simulations per configuration",
                            .seed_default = "21"};
  FlagSet flags("Ablation: recovery rate vs number of ABSAB estimates combined");
  DefineScaleFlags(flags, scale)
      .Define("ciphertexts-log2", "32", "log2 of the ciphertext count")
      .Define("counter", "17", "PRGA counter of the target digraph");
  if (!flags.Parse(argc, argv)) {
    return 0;
  }

  const ScaleFlagValues scale_values = GetScaleFlags(flags, scale);
  const int sims = static_cast<int>(scale_values.count);
  const uint64_t trials = uint64_t{1} << flags.GetUint("ciphertexts-log2");
  const uint8_t counter = static_cast<uint8_t>(flags.GetUint("counter"));

  bench::PrintHeader(
      "bench_ablation_absab_gaps",
      "Sect. 4.3 ablation (not a paper figure): marginal value of each "
      "additional ABSAB estimate at a fixed ciphertext count",
      "gap budget g* means gaps 0..g*-1 used on both sides (2g* estimates)");

  const auto fm_table = FmDigraphTable(counter, 1 << 20);
  const auto fm_model = FmSparseModel(counter, 1 << 20);

  const int kGapBudgets[] = {0, 1, 4, 16, 64, 129};
  std::printf("%-12s %14s %14s\n", "gap budget", "ABSAB only", "FM + ABSAB");
  for (int budget : kGapBudgets) {
    std::vector<double> alphas;
    for (int g = 0; g < budget; ++g) {
      alphas.push_back(AbsabAlpha(g));
      alphas.push_back(AbsabAlpha(g));
    }
    // Each sim keeps its own seed, (seed, budget, s), not TrialRng's.
    const auto results = sim::RunTrials<GapTrial>(
        sim::TrialRunnerOptions{static_cast<uint64_t>(sims), scale_values.workers},
        [&](uint64_t s, Xoshiro256&) {
          Xoshiro256 rng(scale_values.seed * 31337 + budget * 997 + s);
          const uint8_t p1 = rng.Byte(), p2 = rng.Byte();
          const size_t truth = static_cast<size_t>(p1) * 256 + p2;
          const auto counts =
              SampleCiphertextPairCounts(fm_table, p1, p2, trials, rng);
          auto lambda = DoubleByteLogLikelihoodSparse(counts, trials, fm_model);
          GapTrial result;
          if (!alphas.empty()) {
            const auto absab = SampleAbsabScoreTable(
                alphas, trials, static_cast<uint16_t>(truth), rng);
            result.absab_win = ArgMax(absab) == truth;
            CombineInPlace(lambda, absab);
          }
          result.combined_win = ArgMax(lambda) == truth;
          return result;
        });
    int absab_wins = 0, combined_wins = 0;
    for (const GapTrial& result : results) {
      absab_wins += result.absab_win ? 1 : 0;
      combined_wins += result.combined_win ? 1 : 0;
    }
    std::printf("%-12d %13.1f%% %13.1f%%\n", budget, 100.0 * absab_wins / sims,
                100.0 * combined_wins / sims);
  }
  std::printf("\n(row 0 = Fluhrer-McGrew alone; the paper's attacks use 129 "
              "gaps on both sides)\n");
  return 0;
}

}  // namespace
}  // namespace rc4b

int main(int argc, char** argv) { return rc4b::Run(argc, argv); }
