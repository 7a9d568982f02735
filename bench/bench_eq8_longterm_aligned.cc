// Eq. (8) / Sect. 3.4 — long-term biases at 256-aligned positions:
// Sen Gupta's (Z_{256w}, Z_{256w+2}) = (0,0) and the paper's new (128,0),
// both 2^-16 (1 + 2^-8). Regenerates aligned-pair statistics and reports the
// measured relative bias of the two special cells against the cell average.
#include <cstdio>

#include "bench/harness.h"
#include "src/biases/dataset.h"
#include "src/common/flags.h"

namespace rc4b {
namespace {

int Run(int argc, char** argv) {
  const ScaleFlagSpec scale{.count_flag = "keys",
                            .count_default = "256",
                            .count_help = "RC4 keys (one long keystream each)",
                            .seed_default = "8",
                            .seed_help = "dataset seed"};
  FlagSet flags("Eq. (8): (Z_256w, Z_256w+2) biased toward (0,0) and (128,0)");
  DefineScaleFlags(flags, scale)
      .Define("bytes-per-key", "0x2000000", "keystream bytes per key (2^25)");
  if (!flags.Parse(argc, argv)) {
    return 0;
  }

  const auto [keys, workers, seed] = GetScaleFlags(flags, scale);
  LongTermOptions options;
  options.keys = keys;
  options.bytes_per_key = flags.GetUint("bytes-per-key");
  options.workers = workers;
  options.seed = seed;

  const double samples = static_cast<double>(options.keys) *
                         static_cast<double>(options.bytes_per_key / 256);
  bench::PrintHeader(
      "bench_eq8_longterm_aligned",
      "Eq. (8) and Sen Gupta's aligned (0,0) bias (Sect. 3.4)",
      "note: the 2^-8 relative bias needs ~2^36 aligned samples (2^44 bytes, "
      "paper scale) for 4-sigma per cell; defaults give a consistency check "
      "with the predicted value inside the confidence interval");

  const auto counts = GenerateAlignedPairDataset(0, 2, options);
  const double expected = samples / 65536.0;
  const double sigma = std::sqrt(expected);

  std::printf("aligned samples: %.3g (cell expectation %.1f)\n\n", samples, expected);
  std::printf("%-12s %12s %14s %14s %8s\n", "cell", "count", "measured q",
              "paper q", "z(uni)");
  const struct {
    int v1, v2;
    double paper_q;
    const char* label;
  } kCells[] = {
      {0, 0, 0x1.0p-8, "(0,0)"},
      {128, 0, 0x1.0p-8, "(128,0)"},
      {1, 1, 0.0, "(1,1) ctrl"},
      {64, 32, 0.0, "(64,32) ctrl"},
  };
  for (const auto& cell : kCells) {
    const uint64_t count = counts[static_cast<size_t>(cell.v1) * 256 + cell.v2];
    const double q = static_cast<double>(count) / expected - 1.0;
    const double z = (static_cast<double>(count) - expected) / sigma;
    std::printf("%-12s %12llu %+14.6f %+14.6f %+8.2f\n", cell.label,
                static_cast<unsigned long long>(count), q, cell.paper_q, z);
  }

  // Pool the two predicted-positive cells for extra power.
  const uint64_t pooled =
      counts[0] + counts[static_cast<size_t>(128) * 256 + 0];
  const double pooled_z = (static_cast<double>(pooled) - 2 * expected) /
                          std::sqrt(2 * expected);
  std::printf("\npooled (0,0)+(128,0) z: %+.2f (prediction: +2^-8 relative on "
              "both cells => z ~ +%.2f at this scale)\n",
              pooled_z, 0x1.0p-8 * std::sqrt(2 * expected));
  return 0;
}

}  // namespace
}  // namespace rc4b

int main(int argc, char** argv) { return rc4b::Run(argc, argv); }
