// Table 1 — generalized Fluhrer–McGrew digraph biases in the long-term
// keystream. Regenerates the long-term digraph dataset and compares the
// measured relative bias of each digraph class, pooled over all PRGA counters
// where its condition holds, against the analytic Table 1 value.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/biases/dataset.h"
#include "src/biases/fluhrer_mcgrew.h"
#include "src/common/flags.h"

namespace rc4b {
namespace {

int Run(int argc, char** argv) {
  const ScaleFlagSpec scale{.count_flag = "keys",
                            .count_default = "512",
                            .count_help = "RC4 keys (one long keystream each)",
                            .seed_default = "1",
                            .seed_help = "dataset seed"};
  FlagSet flags("Table 1: long-term Fluhrer-McGrew digraph probabilities");
  DefineScaleFlags(flags, scale)
      .Define("bytes-per-key", "0x4000000", "keystream bytes per key (2^26)")
      .Define("grid-cache", "",
              "warm-start: load-or-store the dataset grid in this directory "
              "(docs/store.md)");
  if (!flags.Parse(argc, argv)) {
    return 0;
  }

  const auto [keys, workers, seed] = GetScaleFlags(flags, scale);
  LongTermOptions options;
  options.keys = keys;
  options.bytes_per_key = flags.GetUint("bytes-per-key");
  options.workers = workers;
  options.seed = seed;
  options.cache_dir = flags.GetString("grid-cache");

  const double total_samples =
      static_cast<double>(options.keys) * static_cast<double>(options.bytes_per_key);
  bench::PrintHeader(
      "bench_table1_fm_longterm",
      "Table 1 (Fluhrer-McGrew digraph probabilities, long-term regime)",
      "samples: " + std::to_string(static_cast<long long>(total_samples / 1e6)) +
          "M digraphs (paper: ~2^52); relative biases are 2^-8-scale, so "
          "z-scores grow with --keys/--bytes-per-key");

  const auto grid = GenerateLongTermDigraphDataset(options);

  // Pool each digraph class over all counters i where Table 1 applies.
  struct Pool {
    double expected_relative = 0.0;
    uint64_t count = 0;
    uint64_t samples_rows = 0;  // number of (i) rows pooled
  };
  std::map<std::string, Pool> pools;
  const uint64_t long_r = 1 << 20;
  for (int i = 0; i < 256; ++i) {
    for (const FmDigraph& d : FmDigraphsAt(static_cast<uint8_t>(i), long_r)) {
      Pool& pool = pools[d.name];
      pool.expected_relative = d.relative_bias;
      // Row index row corresponds to counter i = row + 1 (see dataset.h);
      // invert: row = i - 1 mod 256.
      const size_t row = static_cast<size_t>((i + 255) % 256);
      pool.count += grid.Count(row, d.v1, d.v2);
      ++pool.samples_rows;
    }
  }

  std::printf("%-22s %9s %14s %14s %8s %s\n", "digraph class", "rows", "measured q",
              "Table 1 q", "z", "sig");
  const double per_row_samples = static_cast<double>(grid.keys());
  for (const auto& [name, pool] : pools) {
    const double n = per_row_samples * static_cast<double>(pool.samples_rows);
    const double expected_count = n / 65536.0;
    const double measured_q =
        static_cast<double>(pool.count) / expected_count - 1.0;
    const double sigma = 1.0 / std::sqrt(expected_count);
    const double z = (measured_q - pool.expected_relative) / sigma;
    const double detect_z = measured_q / sigma;
    std::printf("%-22s %9llu %+14.6f %+14.6f %8.2f %s\n", name.c_str(),
                static_cast<unsigned long long>(pool.samples_rows), measured_q,
                pool.expected_relative, detect_z, bench::Stars(z));
  }
  std::printf("\n(z = measured relative bias in sigmas; sig stars compare "
              "measured vs Table 1 prediction)\n");
  return 0;
}

}  // namespace
}  // namespace rc4b

int main(int argc, char** argv) { return rc4b::Run(argc, argv); }
