// Figs. 8 and 9 — two readings of one set of simulated TKIP attacks, vs the
// number of captured copies of the injected packet:
//   Fig. 8: probability of recovering the MIC key with a ~2^30-candidate
//           traversal and with only the two best candidates;
//   Fig. 9: median position in the candidate list of the first candidate
//           with a correct ICV, min(rank of the true trailer, first CRC
//           false positive).
// By default (--oracle true) the victim is the perfect-model limit: its
// trailer keystream is drawn from the attacker's per-TSC1 model (see
// src/sim/tkip_sim.h); --oracle false runs real TKIP key mixing + RC4 per
// packet instead. The candidate-list position of the true trailer is
// estimated by the rank DP (materializing 2^30 candidates is infeasible).
// Trials run on the src/sim/ subsystem: results are bit-exact for any
// --workers value (docs/sim.md).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "bench/harness.h"
#include "src/common/flags.h"
#include "src/sim/tkip_sim.h"

namespace rc4b {
namespace {

int Run(int argc, char** argv) {
  const ScaleFlagSpec scale{.count_flag = "sims",
                            .count_default = "24",
                            .count_help = "simulated attacks (paper: 256)",
                            .seed_default = "11"};
  FlagSet flags("Figs. 8 and 9: TKIP MIC key recovery and correct-ICV position");
  DefineScaleFlags(flags, scale)
      .Define("max-copies", "15", "largest checkpoint in units of 2^20 packets")
      .Define("step", "2", "checkpoint step in units of 2^20")
      .Define("keys-per-tsc", "0x40000", "model keys per TSC1 class (2^18)")
      .Define("budget-log2", "30", "log2 of the candidate budget")
      .Define("target-bias-rms", "0.0015",
              "calibrate the model's RMS relative bias (0 = leave the raw "
              "model, whose sampling noise inflates the signal)")
      .Define("oracle", "true",
              "perfect-model victim (see src/sim/tkip_sim.h); false = real "
              "TKIP mixing + RC4 with an honestly-trained model")
      .Define("model-seed", "12", "attacker model seed (independent of sims)");
  if (!flags.Parse(argc, argv)) {
    return 0;
  }
  const ScaleFlagValues scale_values = GetScaleFlags(flags, scale);

  const uint64_t max_copies = flags.GetUint("max-copies");
  const uint64_t step = flags.GetUint("step");
  const uint64_t budget_log2 = flags.GetUint("budget-log2");

  bench::PrintHeader(
      "bench_fig8_9_tkip",
      "Figs. 8 and 9 (TKIP MIC key recovery and median position of a "
      "correct-ICV candidate vs ciphertext copies x 2^20)",
      "substitution: per-TSC1 keystream models at --keys-per-tsc keys/class "
      "(paper: per-(TSC0,TSC1) at 2^32); success needs more copies than the "
      "paper's but the candidate-list >> 2-candidate gap must reproduce, and "
      "the median position must fall monotonically as copies grow");

  const Bytes msdu = sim::InjectedPacket();
  TkipTscModel model(msdu.size() + 1, msdu.size() + kTkipTrailerSize);
  std::printf("generating attacker model (256 classes x %llu keys)...\n",
              static_cast<unsigned long long>(flags.GetUint("keys-per-tsc")));
  model.Generate(flags.GetUint("keys-per-tsc"), flags.GetUint("model-seed"),
                 scale_values.workers);
  const double target_rms = flags.GetDouble("target-bias-rms");
  if (target_rms > 0.0) {
    const double raw_rms = model.RmsRelativeDeviation();
    if (raw_rms > target_rms) {
      model.ShrinkTowardUniform(target_rms / raw_rms);
    }
    std::printf("model RMS relative bias: raw %.4f -> calibrated %.4f\n",
                raw_rms, model.RmsRelativeDeviation());
  }

  sim::TkipSimOptions options;
  for (uint64_t copies = 1; copies <= max_copies; copies += step) {
    options.checkpoints.push_back(copies << 20);
  }
  options.candidate_budget = uint64_t{1} << budget_log2;
  options.trials = scale_values.count;
  options.workers = scale_values.workers;
  options.seed = scale_values.seed;
  options.oracle_model = flags.GetBool("oracle");

  const auto aggregate = sim::RunTkipSimulations(model, options);
  // With no trials there is no rate or median to print (--sims 0).
  const size_t rows = aggregate.trials == 0 ? 0 : aggregate.checkpoints.size();
  const auto copies = [&](size_t c) {
    return static_cast<unsigned long long>(aggregate.checkpoints[c] >> 20);
  };

  std::printf("\nFig. 8: MIC key recovery rate\n");
  const std::string budget_label =
      "2^" + std::to_string(budget_log2) + " candidates";
  std::printf("%-16s %16s %16s\n", "copies (x2^20)", budget_label.c_str(),
              "2 candidates");
  for (size_t c = 0; c < rows; ++c) {
    std::printf("%-16llu %15.1f%% %15.1f%%\n", copies(c),
                100.0 * static_cast<double>(aggregate.budget_wins[c]) /
                    static_cast<double>(aggregate.trials),
                100.0 * static_cast<double>(aggregate.two_wins[c]) /
                    static_cast<double>(aggregate.trials));
  }

  std::printf("\nFig. 9: median position of the first correct-ICV candidate\n");
  std::printf("%-16s %18s %12s\n", "copies (x2^20)", "median position",
              "log2");
  for (size_t c = 0; c < rows; ++c) {
    auto list = aggregate.icv_positions[c];
    std::sort(list.begin(), list.end());
    const double median = list[list.size() / 2];
    std::printf("%-16llu %18.0f %12.2f\n", copies(c), median,
                median > 0 ? std::log2(median) : 0.0);
  }
  return 0;
}

}  // namespace
}  // namespace rc4b

int main(int argc, char** argv) { return rc4b::Run(argc, argv); }
