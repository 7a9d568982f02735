// Fig. 5 — influence of Z1 and Z2 on all initial keystream bytes: the six
// bias families of Sect. 3.3.2 plus the Z1/Z2 pair biases A-D. Regenerates a
// first16-style pair dataset for (Z1, Zi) and (Z2, Zi) and reports the
// relative bias of each family per position band.
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
                            .count_help = "RC4 keys (2^29; paper used 2^44)",
                            .seed_default = "5",
                            .seed_help = "dataset seed"};
  FlagSet flags("Fig. 5: biases induced by the first two keystream bytes");
  DefineScaleFlags(flags, scale)
      .Define("max-position", "256", "largest i for (Z1, Zi)/(Z2, Zi)")
      .Define("window", "32", "positions per reported band");
  if (!flags.Parse(argc, argv)) {
    return 0;
  }

  const uint32_t max_position = static_cast<uint32_t>(flags.GetUint("max-position"));
  const size_t window = flags.GetUint("window");
  const auto [keys, workers, seed] = GetScaleFlags(flags, scale);

  bench::PrintHeader("bench_fig5_z1z2_influence",
                     "Fig. 5 (six Z1/Z2-induced bias families) + Sect. 3.3.2 "
                     "pair biases A-D",
                     "relative bias vs single-byte expectation, averaged per "
                     "position band; paper signs: 1,2,4 positive; 3,5,6 negative");

  // Rows 0..(n-1): (Z1, Zi); rows n..2n-1: (Z2, Zi), i = 3..max_position.
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  for (uint32_t i = 3; i <= max_position; ++i) {
    pairs.emplace_back(1, i);
  }
  const size_t z2_base = pairs.size();
  for (uint32_t i = 3; i <= max_position; ++i) {
    pairs.emplace_back(2, i);
  }
  const size_t z1z2_row = pairs.size();
  pairs.emplace_back(1, 2);
  store::GridMeta meta;
  meta.kind = store::GridKind::kPair;
  meta.seed = seed;
  meta.key_end = keys;
  meta.rows = pairs.size();
  meta.pairs = pairs;
  const auto grid = store::ToDigraphGrid(store::LoadOrGenerateGrid(meta, workers, ""));

  struct Band {
    double sum[6] = {0, 0, 0, 0, 0, 0};
    int used[6] = {0, 0, 0, 0, 0, 0};
  };
  std::printf("%-12s %10s %10s %10s %10s %10s %10s\n", "positions", "1:Z1,Zi=0",
              "2:Z1,Zi=i", "3:Z1,Zi=257-i", "4:Z1,Zi=1", "5:Z2=0,Zi=0",
              "6:Z2=0,Zi=i");
  for (uint32_t start = 3; start + window - 1 <= max_position; start += window) {
    Band band;
    for (uint32_t i = start; i < start + window; ++i) {
      const size_t row1 = i - 3;            // (Z1, Zi)
      const size_t row2 = z2_base + i - 3;  // (Z2, Zi)
      const uint8_t v257mi = static_cast<uint8_t>((257 - i) & 0xff);
      const uint8_t vi = static_cast<uint8_t>(i & 0xff);
      const double families[6] = {
          RelativeBias(grid, row1, v257mi, 0),       // 1) Z1=257-i, Zi=0
          RelativeBias(grid, row1, v257mi, vi),      // 2) Z1=257-i, Zi=i
          RelativeBias(grid, row1, v257mi, v257mi),  // 3) Z1=257-i, Zi=257-i
          RelativeBias(grid, row1, static_cast<uint8_t>((i - 1) & 0xff), 1),
          RelativeBias(grid, row2, 0, 0),            // 5) Z2=0, Zi=0
          RelativeBias(grid, row2, 0, vi),           // 6) Z2=0, Zi=i
      };
      for (int f = 0; f < 6; ++f) {
        band.sum[f] += families[f];
        ++band.used[f];
      }
    }
    std::printf("%4u-%-7u", start, start + static_cast<uint32_t>(window) - 1);
    for (int f = 0; f < 6; ++f) {
      std::printf(" %+10.5f", band.sum[f] / band.used[f]);
    }
    std::printf("\n");
  }

  // Z1/Z2 pair biases A-D of Sect. 3.3.2, pooled over x.
  std::printf("\nZ1/Z2 pair biases (pooled relative bias over x, x != 0,1):\n");
  double sums[4] = {0, 0, 0, 0};
  int used = 0;
  for (int x = 2; x < 256; ++x) {
    sums[0] += RelativeBias(grid, z1z2_row, 0, static_cast<uint8_t>(x));  // A
    sums[1] += RelativeBias(grid, z1z2_row, static_cast<uint8_t>(x),
                            static_cast<uint8_t>((258 - x) & 0xff));      // B
    sums[2] += RelativeBias(grid, z1z2_row, static_cast<uint8_t>(x), 0);  // C
    sums[3] += RelativeBias(grid, z1z2_row, static_cast<uint8_t>(x), 1);  // D
    ++used;
  }
  const char* kPairNames[] = {"A) Z1=0,Z2=x (neg)", "B) Z1=x,Z2=258-x (pos)",
                              "C) Z1=x,Z2=0 (neg)", "D) Z1=x,Z2=1 (pos)"};
  for (int f = 0; f < 4; ++f) {
    std::printf("  %-26s %+10.5f\n", kPairNames[f], sums[f] / used);
  }
  std::printf("\n(per-band noise ~ %.5f; paper magnitudes 2^-11..2^-7)\n",
              1.0 / std::sqrt(static_cast<double>(keys) / 65536.0 *
                              static_cast<double>(window)));
  return 0;
}

}  // namespace
}  // namespace rc4b

int main(int argc, char** argv) { return rc4b::Run(argc, argv); }
