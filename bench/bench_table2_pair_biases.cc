// Table 2 + equations (2)-(5) — short-term biases between (non-)consecutive
// keystream bytes. Regenerates consec- and pair-style datasets and reports
// the measured probability of each listed byte pair against the paper's
// value, with detection z-scores.
#include <cstdio>
#include <vector>

#include "bench/harness.h"
#include "src/common/flags.h"
#include "src/store/grid_cache.h"

namespace rc4b {
namespace {

struct Table2Entry {
  uint32_t pos1, pos2;   // 1-based keystream positions
  int v1, v2;            // byte values; -1 in v2 means "equal values" family
  double paper_probability;
  const char* label;
};

// Table 2 of the paper: consecutive Z_{16w-1} = Z_{16w} = 256 - 16w biases
// and the strongest non-consecutive pairs, with the paper's probabilities.
const Table2Entry kEntries[] = {
    // Consecutive key-length-dependent biases (formula 2).
    {15, 16, 240, 240, 0.0, "Z15=Z16=240"},  // probabilities come from kPaperForms
    {31, 32, 224, 224, 0.0, "Z31=Z32=224"},
    {47, 48, 208, 208, 0.0, "Z47=Z48=208"},
    {63, 64, 192, 192, 0.0, "Z63=Z64=192"},
    {79, 80, 176, 176, 0.0, "Z79=Z80=176"},
    {95, 96, 160, 160, 0.0, "Z95=Z96=160"},
    {111, 112, 144, 144, 0.0, "Z111=Z112=144"},
    // Non-consecutive biases.
    {3, 5, 4, 4, 0.0, "Z3=4,Z5=4"},
    {3, 131, 131, 3, 0.0, "Z3=131,Z131=3"},
    {3, 131, 131, 131, 0.0, "Z3=131,Z131=131"},
    {4, 6, 5, 255, 0.0, "Z4=5,Z6=255"},
    {14, 16, 0, 14, 0.0, "Z14=0,Z16=14"},
    {15, 17, 47, 16, 0.0, "Z15=47,Z17=16"},
    {15, 32, 112, 224, 0.0, "Z15=112,Z32=224"},
    {15, 32, 159, 224, 0.0, "Z15=159,Z32=224"},
    {16, 31, 240, 63, 0.0, "Z16=240,Z31=63"},
    {16, 32, 240, 16, 0.0, "Z16=240,Z32=16"},
    {16, 33, 240, 16, 0.0, "Z16=240,Z33=16"},
    {16, 40, 240, 32, 0.0, "Z16=240,Z40=32"},
    {16, 48, 240, 16, 0.0, "Z16=240,Z48=16"},
    {16, 48, 240, 208, 0.0, "Z16=240,Z48=208"},
    {16, 64, 240, 192, 0.0, "Z16=240,Z64=192"},
};

// Paper probabilities 2^a (1 +/- 2^b) for the entries above, same order.
struct PaperForm {
  double base_exp;   // a in 2^a
  double bias_exp;   // b in 2^b
  int sign;          // +1 or -1
};
const PaperForm kPaperForms[] = {
    {-15.94786, -4.894, -1}, {-15.96486, -5.427, -1}, {-15.97595, -5.963, -1},
    {-15.98363, -6.469, -1}, {-15.99020, -7.150, -1}, {-15.99405, -7.740, -1},
    {-15.99668, -8.331, -1},
    {-16.00243, -7.912, +1}, {-15.99543, -8.700, +1}, {-15.99347, -9.511, -1},
    {-15.99918, -8.208, +1}, {-15.99349, -9.941, +1}, {-16.00191, -11.279, +1},
    {-15.96637, -10.904, -1}, {-15.96574, -9.493, +1}, {-15.95021, -8.996, +1},
    {-15.94976, -9.261, +1}, {-15.94960, -10.516, +1}, {-15.94976, -10.933, +1},
    {-15.94989, -10.832, +1}, {-15.92619, -10.965, -1}, {-15.93357, -11.229, -1},
};

struct EqualityBias {
  uint32_t pos1, pos2;
  double bias_exp;  // Pr = 2^-8 (1 + sign * 2^bias_exp)
  int sign;
  const char* label;
};
// Equations (3)-(5).
const EqualityBias kEqualities[] = {
    {1, 3, -9.617, -1, "Pr[Z1=Z3] (eq 3)"},
    {1, 4, -8.590, +1, "Pr[Z1=Z4] (eq 4)"},
    {2, 4, -9.622, -1, "Pr[Z2=Z4] (eq 5)"},
};

int Run(int argc, char** argv) {
  const ScaleFlagSpec scale{
      .count_flag = "keys",
      .count_default = "0x20000000",
      .count_help = "RC4 keys (2^29; paper used 2^44-2^45)",
      .seed_default = "7",
      .seed_help = "dataset seed"};
  FlagSet flags("Table 2 + eqs (2)-(5): short-term pair biases");
  DefineScaleFlags(flags, scale)
      .Define("grid-cache", "",
              "warm-start: load-or-store the dataset grid in this directory "
              "(docs/store.md)");
  if (!flags.Parse(argc, argv)) {
    return 0;
  }

  const auto [keys, workers, seed] = GetScaleFlags(flags, scale);
  bench::PrintHeader("bench_table2_pair_biases",
                     "Table 2 and eqs (2)-(5) (biases between keystream bytes)",
                     "");

  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  for (const auto& e : kEntries) {
    pairs.emplace_back(e.pos1, e.pos2);
  }
  for (const auto& e : kEqualities) {
    pairs.emplace_back(e.pos1, e.pos2);
  }
  store::GridMeta meta;
  meta.kind = store::GridKind::kPair;
  meta.seed = seed;
  meta.key_end = keys;
  meta.rows = pairs.size();
  meta.pairs = pairs;
  const auto grid = store::ToDigraphGrid(
      store::LoadOrGenerateGrid(meta, workers, flags.GetString("grid-cache")));
  const double n = static_cast<double>(grid.keys());

  std::printf("%-20s %12s %12s %8s %s\n", "pair", "measured", "paper", "z",
              "sig");
  for (size_t e = 0; e < std::size(kEntries); ++e) {
    const auto& entry = kEntries[e];
    const auto& form = kPaperForms[e];
    const double paper_p =
        std::exp2(form.base_exp) * (1.0 + form.sign * std::exp2(form.bias_exp));
    const uint64_t count = grid.Count(e, static_cast<uint8_t>(entry.v1),
                                      static_cast<uint8_t>(entry.v2));
    const double measured = static_cast<double>(count) / n;
    const double sigma = std::sqrt(paper_p / n);
    const double z = (measured - paper_p) / sigma;
    // Detection z against the *uniform* 2^-16 null.
    const double detect = (measured - 0x1.0p-16) / std::sqrt(0x1.0p-16 / n);
    std::printf("%-20s %12.4e %12.4e %8.2f %-5s (vs uniform: %+6.2f)\n",
                entry.label, measured, paper_p, z, bench::Stars(z), detect);
  }

  std::printf("\nEquality biases (probability of Z_a = Z_b):\n");
  std::printf("%-20s %12s %12s %8s\n", "pair", "measured", "paper", "z(uni)");
  for (size_t e = 0; e < std::size(kEqualities); ++e) {
    const auto& eq = kEqualities[e];
    const size_t row = std::size(kEntries) + e;
    uint64_t count = 0;
    for (int v = 0; v < 256; ++v) {
      count += grid.Count(row, static_cast<uint8_t>(v), static_cast<uint8_t>(v));
    }
    const double measured = static_cast<double>(count) / n;
    const double paper_p = 0x1.0p-8 * (1.0 + eq.sign * std::exp2(eq.bias_exp));
    const double z = (measured - 0x1.0p-8) / std::sqrt(0x1.0p-8 / n);
    std::printf("%-20s %12.6e %12.6e %+8.2f\n", eq.label, measured, paper_p, z);
  }
  std::printf("\n(paper probabilities needed ~2^44 keys; at --keys=2^29 only "
              "the strongest rows reach multi-sigma detection)\n");
  return 0;
}

}  // namespace
}  // namespace rc4b

int main(int argc, char** argv) { return rc4b::Run(argc, argv); }
