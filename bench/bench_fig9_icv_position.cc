// Fig. 9 — median position in the candidate list of the first candidate with
// a correct ICV, vs the number of captured packet copies. Shares the Fig. 8
// simulation (src/sim/tkip_sim.h): the position is min(rank of the true
// trailer, first CRC false positive), the rank from the rank DP's estimate.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench/harness.h"
#include "src/common/flags.h"
#include "src/sim/tkip_sim.h"

namespace rc4b {
namespace {

int Run(int argc, char** argv) {
  const ScaleFlagSpec scale{.count_flag = "sims",
                            .count_default = "16",
                            .count_help = "simulated attacks (paper: 256)",
                            .seed_default = "13"};
  FlagSet flags("Fig. 9: median candidate position of the first correct ICV");
  DefineScaleFlags(flags, scale)
      .Define("max-copies", "15", "largest checkpoint in units of 2^20 packets")
      .Define("step", "2", "checkpoint step in units of 2^20")
      .Define("keys-per-tsc", "0x40000", "model keys per TSC1 class (2^18)")
      .Define("target-bias-rms", "0.0015",
              "calibrate the model's RMS relative bias (0 = leave the raw "
              "model, whose sampling noise inflates the signal)")
      .Define("oracle", "true",
              "perfect-model victim (see src/sim/tkip_sim.h); false = real "
              "TKIP mixing + RC4 with an honestly-trained model")
      .Define("model-seed", "14", "attacker model seed");
  if (!flags.Parse(argc, argv)) {
    return 0;
  }
  const ScaleFlagValues scale_values = GetScaleFlags(flags, scale);

  bench::PrintHeader(
      "bench_fig9_icv_position",
      "Fig. 9 (median position of a correct-ICV candidate vs copies x 2^20)",
      "expected shape: monotone decrease over ~2^26 -> ~2^10 as copies grow "
      "(absolute values shifted right of the paper's due to the scaled-down "
      "attacker model)");

  const Bytes msdu = sim::InjectedPacket();
  TkipTscModel model(msdu.size() + 1, msdu.size() + kTkipTrailerSize);
  std::printf("generating attacker model...\n");
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
  for (uint64_t copies = 1; copies <= flags.GetUint("max-copies");
       copies += flags.GetUint("step")) {
    options.checkpoints.push_back(copies << 20);
  }
  options.trials = scale_values.count;
  options.workers = scale_values.workers;
  options.seed = scale_values.seed;
  options.oracle_model = flags.GetBool("oracle");

  const auto aggregate = sim::RunTkipSimulations(model, options);

  std::printf("\n%-16s %18s %12s\n", "copies (x2^20)", "median position",
              "log2");
  for (size_t c = 0; c < aggregate.checkpoints.size(); ++c) {
    auto list = aggregate.icv_positions[c];
    if (list.empty()) {
      continue;  // --sims=0
    }
    std::sort(list.begin(), list.end());
    const double median = list[list.size() / 2];
    std::printf("%-16llu %18.0f %12.2f\n",
                static_cast<unsigned long long>(aggregate.checkpoints[c] >> 20),
                median, median > 0 ? std::log2(median) : 0.0);
  }
  return 0;
}

}  // namespace
}  // namespace rc4b

int main(int argc, char** argv) { return rc4b::Run(argc, argv); }
