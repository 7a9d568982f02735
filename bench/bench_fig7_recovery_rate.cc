// Fig. 7 — average success rate of decrypting two unknown bytes with
// (1) a single ABSAB estimate, (2) the Fluhrer-McGrew double-byte
// likelihood, and (3) FM combined with 258 ABSAB estimates (gaps 0..128,
// both directions), as a function of the number of ciphertexts.
//
// Ciphertext statistics are sampled from their exact Poissonized law
// (src/core/synthetic.h) so the paper's x-axis range 2^27..2^39 runs in
// seconds; the samplers are validated against real RC4 in the test suite.
// Trials run on the src/sim/ runner: per-checkpoint counts are bit-exact
// for any --workers value.
#include <cstdio>
#include <vector>

#include "bench/harness.h"
#include "src/biases/fluhrer_mcgrew.h"
#include "src/biases/mantin.h"
#include "src/common/flags.h"
#include "src/core/likelihood.h"
#include "src/core/synthetic.h"
#include "src/sim/runner.h"

namespace rc4b {
namespace {

struct Fig7Trial {
  bool absab_win = false;
  bool fm_win = false;
  bool combined_win = false;
};

int Run(int argc, char** argv) {
  const ScaleFlagSpec scale{.count_flag = "sims",
                            .count_default = "128",
                            .count_help = "simulations per point (paper: 2048)",
                            .seed_default = "10"};
  FlagSet flags("Fig. 7: two-byte recovery, ABSAB vs FM vs combined");
  DefineScaleFlags(flags, scale)
      .Define("min-log2", "27", "log2 of smallest ciphertext count")
      .Define("max-log2", "39", "log2 of largest ciphertext count")
      .Define("counter", "17", "PRGA counter i of the target digraph");
  if (!flags.Parse(argc, argv)) {
    return 0;
  }

  const auto [sims, workers, seed] = GetScaleFlags(flags, scale);
  const int min_log2 = static_cast<int>(flags.GetInt("min-log2"));
  const int max_log2 = static_cast<int>(flags.GetInt("max-log2"));
  const uint8_t counter = static_cast<uint8_t>(flags.GetUint("counter"));

  bench::PrintHeader(
      "bench_fig7_recovery_rate",
      "Fig. 7 (success rate of decrypting two bytes vs #ciphertexts)",
      "expected shape: combined >> FM-only >> single-ABSAB; combined nears "
      "100% around 2^34 ciphertexts");

  const auto fm_table = FmDigraphTable(counter, 1 << 20);
  const auto fm_model = FmSparseModel(counter, 1 << 20);

  // 258 ABSAB estimates: gaps 0..128 on both sides of the unknown pair.
  std::vector<double> all_alphas;
  for (uint64_t g = 0; g <= 128; ++g) {
    all_alphas.push_back(AbsabAlpha(g));
    all_alphas.push_back(AbsabAlpha(g));
  }
  const std::vector<double> one_alpha = {AbsabAlpha(0)};

  std::printf("%-10s %12s %12s %12s\n", "log2(|C|)", "ABSAB-only", "FM-only",
              "combined");
  for (int log2_n = min_log2; log2_n <= max_log2; ++log2_n) {
    const uint64_t trials = uint64_t{1} << log2_n;
    // Each checkpoint gets its own seed stream derived from (seed, log2_n).
    const auto results = sim::RunTrials<Fig7Trial>(
        sim::TrialRunnerOptions{
            sims, workers, sim::TrialSeed(seed, static_cast<uint64_t>(log2_n))},
        [&](uint64_t, Xoshiro256& rng) {
          const uint8_t p1 = rng.Byte();
          const uint8_t p2 = rng.Byte();
          const size_t truth = static_cast<size_t>(p1) * 256 + p2;

          // FM estimate.
          const auto counts =
              SampleCiphertextPairCounts(fm_table, p1, p2, trials, rng);
          auto fm_lambda = DoubleByteLogLikelihoodSparse(counts, trials, fm_model);

          // ABSAB estimates (known plaintext folded to zero, WLOG).
          const auto absab_single = SampleAbsabScoreTable(
              one_alpha, trials, static_cast<uint16_t>(truth), rng);
          const auto absab_all = SampleAbsabScoreTable(
              all_alphas, trials, static_cast<uint16_t>(truth), rng);

          Fig7Trial result;
          result.absab_win = ArgMax(absab_single) == truth;
          result.fm_win = ArgMax(fm_lambda) == truth;
          CombineInPlace(fm_lambda, absab_all);  // formula (25)
          result.combined_win = ArgMax(fm_lambda) == truth;
          return result;
        });

    uint64_t absab_wins = 0, fm_wins = 0, combined_wins = 0;
    for (const Fig7Trial& result : results) {
      absab_wins += result.absab_win ? 1 : 0;
      fm_wins += result.fm_win ? 1 : 0;
      combined_wins += result.combined_win ? 1 : 0;
    }
    std::printf("%-10d %11.1f%% %11.1f%% %11.1f%%\n", log2_n,
                100.0 * static_cast<double>(absab_wins) / static_cast<double>(sims),
                100.0 * static_cast<double>(fm_wins) / static_cast<double>(sims),
                100.0 * static_cast<double>(combined_wins) /
                    static_cast<double>(sims));
  }
  return 0;
}

}  // namespace
}  // namespace rc4b

int main(int argc, char** argv) { return rc4b::Run(argc, argv); }
