// Fig. 8 — probability of recovering the TKIP MIC key vs the number of
// captured copies of the injected packet, with a ~2^30-candidate traversal
// and with only the two best candidates. Uses real TKIP key mixing + RC4 per
// packet; the candidate-list position of the true trailer is estimated by
// the rank DP (materializing 2^30 candidates is infeasible).
// Trials run on the src/sim/ subsystem: results are bit-exact for any
// --workers value (docs/sim.md).
#include <cstdio>

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
  FlagSet flags("Fig. 8: TKIP MIC key recovery success rate");
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

  bench::PrintHeader(
      "bench_fig8_tkip_success",
      "Fig. 8 (TKIP MIC key recovery vs ciphertext copies x 2^20)",
      "substitution: per-TSC1 keystream models at --keys-per-tsc keys/class "
      "(paper: per-(TSC0,TSC1) at 2^32); success needs more copies than the "
      "paper's but the candidate-list >> 2-candidate gap must reproduce");

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
  options.candidate_budget = uint64_t{1} << flags.GetUint("budget-log2");
  options.trials = scale_values.count;
  options.workers = scale_values.workers;
  options.seed = scale_values.seed;
  options.oracle_model = flags.GetBool("oracle");

  const auto aggregate = sim::RunTkipSimulations(model, options);

  std::printf("\n%-16s %16s %16s\n", "copies (x2^20)", "2^30 candidates",
              "2 candidates");
  for (size_t c = 0; c < aggregate.checkpoints.size(); ++c) {
    std::printf("%-16llu %15.1f%% %15.1f%%\n",
                static_cast<unsigned long long>(aggregate.checkpoints[c] >> 20),
                100.0 * static_cast<double>(aggregate.budget_wins[c]) /
                    static_cast<double>(aggregate.trials),
                100.0 * static_cast<double>(aggregate.two_wins[c]) /
                    static_cast<double>(aggregate.trials));
  }
  return 0;
}

}  // namespace
}  // namespace rc4b

int main(int argc, char** argv) { return rc4b::Run(argc, argv); }
