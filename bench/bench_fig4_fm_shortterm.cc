// Fig. 4 — Fluhrer–McGrew digraph biases in the *initial* keystream bytes.
// Regenerates a consec-style dataset over positions 1..288 and reports the
// absolute relative bias |q| of each FM digraph family versus its expected
// single-byte-based probability, averaged over position windows (the paper's
// per-position plot needs ~2^45 keys; windows recover the convergence shape
// at laptop scale).
#include <cstdio>
#include <vector>

#include "bench/harness.h"
#include "src/biases/bias_scan.h"
#include "src/biases/fluhrer_mcgrew.h"
#include "src/common/flags.h"
#include "src/store/grid_cache.h"

namespace rc4b {
namespace {

struct Family {
  const char* name;
  // Returns the digraph cell for counter i, or -1 if the family does not
  // apply at this counter.
  int (*cell)(int i);
  double long_term_q;
};

int Run(int argc, char** argv) {
  const ScaleFlagSpec scale{.count_flag = "keys",
                            .count_default = "0x10000000",
                            .count_help = "RC4 keys (2^28; paper used 2^45)",
                            .seed_default = "4",
                            .seed_help = "dataset seed"};
  FlagSet flags("Fig. 4: FM digraph relative biases in initial keystream bytes");
  DefineScaleFlags(flags, scale)
      .Define("positions", "288", "initial positions to cover")
      .Define("window", "32", "positions averaged per reported point")
      .Define("grid-cache", "",
              "warm-start: load-or-store the dataset grid in this directory "
              "(docs/store.md)");
  if (!flags.Parse(argc, argv)) {
    return 0;
  }

  const size_t positions = flags.GetUint("positions");
  const size_t window = flags.GetUint("window");
  const auto [keys, workers, seed] = GetScaleFlags(flags, scale);
  store::GridMeta meta;
  meta.kind = store::GridKind::kConsecutive;
  meta.seed = seed;
  meta.key_end = keys;
  meta.rows = positions;

  bench::PrintHeader("bench_fig4_fm_shortterm",
                     "Fig. 4 (FM digraphs vs expected single-byte probability)",
                     "per-window mean relative bias q; expect convergence "
                     "toward the long-term Table 1 values after position 257");

  const auto grid = store::ToDigraphGrid(
      store::LoadOrGenerateGrid(meta, workers, flags.GetString("grid-cache")));

  static const Family kFamilies[] = {
      {"(0,0)", [](int i) { return i == 255 ? -1 : 0; }, 0x1.0p-8},
      {"(0,1)", [](int i) { return (i == 0 || i == 1) ? -1 : 1; }, 0x1.0p-8},
      {"(0,i+1)",
       [](int i) { return (i == 0 || i == 255) ? -1 : ((i + 1) & 0xff); }, -0x1.0p-8},
      {"(i+1,255)",
       [](int i) { return i == 254 ? -1 : (((i + 1) & 0xff) * 256 + 255); }, 0x1.0p-8},
      {"(255,i+1)",
       [](int i) { return (i == 1 || i == 254) ? -1 : (255 * 256 + ((i + 1) & 0xff)); },
       0x1.0p-8},
      {"(255,i+2)",
       [](int i) { return (i >= 1 && i <= 252) ? (255 * 256 + i + 2) : -1; }, 0x1.0p-8},
      {"(255,255)", [](int i) { return i == 254 ? -1 : (255 * 256 + 255); }, -0x1.0p-8},
  };

  std::printf("%-12s", "positions");
  for (const auto& family : kFamilies) {
    std::printf(" %12s", family.name);
  }
  std::printf("\n");
  for (size_t start = 1; start + window - 1 <= positions - 1; start += window) {
    std::printf("%4zu-%-7zu", start, start + window - 1);
    for (const auto& family : kFamilies) {
      double sum_q = 0.0;
      int used = 0;
      for (size_t r = start; r < start + window; ++r) {
        const int i = static_cast<int>(r & 0xff);  // counter at position r
        const int cell = family.cell(i);
        if (cell < 0) {
          continue;
        }
        sum_q += RelativeBias(grid, r - 1, static_cast<uint8_t>(cell / 256),
                              static_cast<uint8_t>(cell % 256));
        ++used;
      }
      if (used == 0) {
        std::printf(" %12s", "-");
      } else {
        std::printf(" %+12.5f", sum_q / used);
      }
    }
    std::printf("\n");
  }
  std::printf("\nlong-term q ");
  for (const auto& family : kFamilies) {
    std::printf(" %+12.5f", family.long_term_q);
  }
  std::printf("\n(noise per window ~ %.5f at these key counts; increase --keys "
              "to sharpen)\n",
              1.0 / std::sqrt(static_cast<double>(keys) / 65536.0 *
                              static_cast<double>(window)));
  return 0;
}

}  // namespace
}  // namespace rc4b

int main(int argc, char** argv) { return rc4b::Run(argc, argv); }
