// Sect. 4.2 — empirical validation of Mantin's ABSAB bias as a function of
// the gap size, against the theoretical alpha(g) of formula (1). The paper
// confirmed the bias up to g >= 135 with 2^48 blocks and noted the formula
// slightly underestimates the empirical strength.
#include <cstdio>

#include "bench/harness.h"
#include "src/biases/mantin.h"
#include "src/common/flags.h"
#include "src/engine/accumulators.h"

namespace rc4b {
namespace {

int Run(int argc, char** argv) {
  const ScaleFlagSpec scale{.count_flag = "keys",
                            .count_default = "24",
                            .count_help = "RC4 keys (one long keystream each)",
                            .seed_default = "9",
                            .seed_help = "dataset seed"};
  FlagSet flags("ABSAB bias strength vs gap size (Sect. 4.2 / formula 1)");
  DefineScaleFlags(flags, scale)
      .Define("max-gap", "32", "largest gap measured (paper: 135)")
      .Define("bytes-per-key", "0x40000000", "keystream bytes per key (2^30)");
  if (!flags.Parse(argc, argv)) {
    return 0;
  }

  const auto [keys, workers, seed] = GetScaleFlags(flags, scale);
  LongTermEngineOptions options;
  options.keys = keys;
  options.bytes_per_key = flags.GetUint("bytes-per-key");
  options.workers = workers;
  options.seed = seed;
  const uint64_t max_gap = flags.GetUint("max-gap");

  bench::PrintHeader(
      "bench_absab_gap",
      "Mantin ABSAB digraph-repetition bias vs gap (formula 1, Sect. 4.2)",
      "measured relative bias q(g) with Pr[match] = 2^-16 (1 + q); small gaps "
      "reach multi-sigma at default scale, the far tail needs paper scale");

  AbsabAccumulator absab(max_gap);
  RunLongTermEngine(options, absab);
  const double n = static_cast<double>(absab.samples());

  std::printf("%-6s %14s %14s %14s %8s\n", "gap", "measured q", "theory q",
              "ratio", "z(uni)");
  for (uint64_t g = 0; g <= max_gap; ++g) {
    const double rate = static_cast<double>(absab.matches()[g]) / n;
    const double q = rate * 65536.0 - 1.0;
    const double theory = AbsabRelativeBias(g);
    const double z = (rate - 0x1.0p-16) / std::sqrt(0x1.0p-16 / n);
    std::printf("%-6llu %+14.6f %+14.6f %14.3f %+8.2f %s\n",
                static_cast<unsigned long long>(g), q, theory,
                theory != 0.0 ? q / theory : 0.0, z, bench::Stars(z));
  }
  std::printf("\n(expected: q > 0 decaying by e^-1 every 32 gap bytes; the "
              "paper reports measured q slightly above theory)\n");
  return 0;
}

}  // namespace
}  // namespace rc4b

int main(int argc, char** argv) { return rc4b::Run(argc, argv); }
