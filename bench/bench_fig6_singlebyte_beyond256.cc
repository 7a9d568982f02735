// Fig. 6 + Sect. 3.3.3 — single-byte biases beyond position 256: the
// distribution snapshots at positions 272/304/336/368 and the key-length
// dependent bias Z_{256 + 16k} = k * 32. Also reruns the "all initial bytes
// are biased" uniformity scan at the achievable scale.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/harness.h"
#include "src/biases/bias_scan.h"
#include "src/common/flags.h"
#include "src/store/grid_cache.h"

namespace rc4b {
namespace {

int Run(int argc, char** argv) {
  const ScaleFlagSpec scale{.count_flag = "keys",
                            .count_default = "0x20000000",
                            .count_help = "RC4 keys (2^29; paper used 2^47)",
                            .seed_default = "6",
                            .seed_help = "dataset seed"};
  FlagSet flags("Fig. 6: single-byte biases beyond position 256");
  DefineScaleFlags(flags, scale)
      .Define("positions", "513", "positions covered")
      .Define("grid-cache", "",
              "warm-start: load-or-store the dataset grid in this directory "
              "(docs/store.md)");
  if (!flags.Parse(argc, argv)) {
    return 0;
  }

  const auto [keys, workers, seed] = GetScaleFlags(flags, scale);
  const size_t positions = flags.GetUint("positions");
  store::GridMeta meta;
  meta.kind = store::GridKind::kSingleByte;
  meta.seed = seed;
  meta.key_end = keys;
  meta.rows = positions;

  bench::PrintHeader("bench_fig6_singlebyte_beyond256",
                     "Fig. 6 (single-byte distributions past position 256) and "
                     "the Z_{256+16k} = 32k key-length biases",
                     "");

  const auto grid = store::ToSingleByteGrid(
      store::LoadOrGenerateGrid(meta, workers, flags.GetString("grid-cache")));
  const double n = static_cast<double>(grid.keys());
  const double sigma = std::sqrt((1.0 / 256) * (1 - 1.0 / 256) / n);

  // Fig. 6's snapshot positions: report the most deviant values.
  std::printf("distribution snapshots (top-3 |deviation| values per position):\n");
  std::printf("%-10s %s\n", "position", "value:probability (z)");
  for (size_t pos : {272u, 304u, 336u, 368u}) {
    if (pos > positions) {
      continue;
    }
    struct Deviation {
      int value;
      double p;
      double z;
    };
    std::vector<Deviation> deviations;
    for (int v = 0; v < 256; ++v) {
      const double p = grid.Probability(pos - 1, static_cast<uint8_t>(v));
      deviations.push_back({v, p, (p - 1.0 / 256) / sigma});
    }
    std::sort(deviations.begin(), deviations.end(),
              [](const Deviation& a, const Deviation& b) {
                return std::fabs(a.z) > std::fabs(b.z);
              });
    std::printf("%-10zu", pos);
    for (int k = 0; k < 3; ++k) {
      std::printf(" %3d:%.8f (%+.1f)", deviations[k].value, deviations[k].p,
                  deviations[k].z);
    }
    std::printf("\n");
  }

  // The paper's key-length dependent family: Z_{256+16k} = 32k, 1 <= k <= 7.
  std::printf("\nZ_{256+16k} = 32k biases (paper: positive for k = 1..7):\n");
  std::printf("%-10s %-8s %14s %8s\n", "position", "value", "rel. bias", "z");
  double pooled_z = 0.0;
  for (int k = 1; k <= 7; ++k) {
    const size_t pos = 256 + 16 * static_cast<size_t>(k);
    const uint8_t value = static_cast<uint8_t>(32 * k);
    const double p = grid.Probability(pos - 1, value);
    const double z = (p - 1.0 / 256) / sigma;
    pooled_z += z;
    std::printf("%-10zu %-8d %+14.6f %+8.2f\n", pos, value, p * 256.0 - 1.0, z);
  }
  // Fig. 6's deviations are ~1e-4 relative (y-axis span ~2^-21 absolute), so
  // the pooled detection power at this scale is tiny; print the honest
  // expectation so readers know what --keys buys.
  const double expected_pooled =
      1e-4 / (sigma * 256.0) * std::sqrt(7.0);  // per-position z ~ q/sigma_rel
  std::printf("pooled z over the 7 positions: %+.2f (paper-magnitude bias "
              "would give ~%+.2f at this key count; 4-sigma needs ~2^36 keys)\n",
              pooled_z / std::sqrt(7.0), expected_pooled);

  // Uniformity scan: how deep into the keystream do rejections reach at this
  // scale? (The paper rejects all 513 positions at 2^47 keys.)
  const auto results = ScanSingleBytes(grid);
  size_t deepest = 0;
  size_t rejected = 0;
  for (const auto& r : results) {
    if (r.biased) {
      ++rejected;
      deepest = r.position;
    }
  }
  std::printf("\nuniformity scan: %zu of %zu positions rejected (Holm, alpha=1e-4); "
              "deepest rejected position: %zu\n",
              rejected, results.size(), deepest);
  return 0;
}

}  // namespace
}  // namespace rc4b

int main(int argc, char** argv) { return rc4b::Run(argc, argv); }
