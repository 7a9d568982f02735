// Keystream dataset generation (Sect. 3.2 of the paper).
//
// The paper built three main datasets on a ~80-machine cluster:
//   * consec512 — Pr[Z_r = x, Z_{r+1} = y] for r <= 512 (2^45 keys),
//   * first16  — Pr[Z_a = x, Z_b = y] for a <= 16, b <= 256 (2^44 keys),
//   * a long-term variant with 2^40 bytes per key (2^12 keys).
// We reproduce the same worker structure — AES-CTR-derived random 128-bit RC4
// keys, 16-bit worker counters flushed into 64-bit merge grids — scaled to a
// single machine with configurable key counts (see docs/engine.md).
#ifndef SRC_BIASES_DATASET_H_
#define SRC_BIASES_DATASET_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/stats/counters.h"

namespace rc4b {

struct DatasetOptions {
  uint64_t keys = 1 << 20;  // RC4 keys to sample
  unsigned workers = 0;     // 0 = hardware concurrency
  // Seed of the single AES-CTR key stream all workers share; key k is key
  // number k of that stream, so counts are bit-identical for any `workers`
  // (see src/engine/keystream_engine.h).
  uint64_t seed = 1;
  // 0 = the lane kernel, 1 = the scalar reference path; counts are
  // bit-identical either way — see EngineOptions::interleave.
  size_t interleave = 0;
  // Global index of the first key: the dataset covers keys [first_key,
  // first_key + keys) of the seed's stream. Nonzero when a shard of a
  // distributed generation run (src/store/manifest.h) computes its slice.
  uint64_t first_key = 0;
  // When set (and first_key == 0), generators load the grid from this
  // directory instead of regenerating, or generate once and store it —
  // see store::GridCache. Cached and regenerated grids are bit-identical.
  std::string cache_dir;
};

// Single-byte statistics: counts of Z_r for 1 <= r <= positions.
SingleByteGrid GenerateSingleByteDataset(size_t positions, const DatasetOptions& options);

// Consecutive-digraph statistics ("consec512"-style): counts of
// (Z_r, Z_{r+1}) for 1 <= r <= positions.
DigraphGrid GenerateConsecutiveDataset(size_t positions, const DatasetOptions& options);

// Arbitrary position-pair statistics ("first16"-style): for each requested
// (a, b) with 1 <= a < b, counts of (Z_a, Z_b). Grid row p corresponds to
// pairs[p].
DigraphGrid GeneratePairDataset(const std::vector<std::pair<uint32_t, uint32_t>>& pairs,
                                const DatasetOptions& options);

// Long-term statistics: per key, drops `drop` initial bytes, then accumulates
// digraphs (Z_r, Z_{r+1}) bucketed by r mod 256 over `bytes_per_key` bytes.
// Row p of the grid is the PRGA-counter class i = (p + 1) mod 256 ... i.e.
// row index equals (r - 1) mod 256 of the first digraph byte.
struct LongTermOptions {
  uint64_t keys = 1 << 8;
  uint64_t bytes_per_key = 1 << 24;
  uint64_t drop = 1024;  // paper drops the initial 1023 bytes; we drop 1024
  unsigned workers = 0;
  uint64_t seed = 1;  // shared AES-CTR stream seed (worker-count invariant)
  size_t interleave = 0;   // 0 = lane kernel, 1 = scalar reference path
  uint64_t first_key = 0;  // global key-range offset (see DatasetOptions)
  std::string cache_dir;   // GridCache directory (digraph dataset only)
};
DigraphGrid GenerateLongTermDigraphDataset(const LongTermOptions& options);

// Long-term ABSAB statistics: counts of matching differentials
// (Z_r = Z_{r+g+2} and Z_{r+1} = Z_{r+g+3}) per gap g in [0, max_gap],
// alongside the number of samples per gap. Used to validate formula (1).
struct AbsabCounts {
  std::vector<uint64_t> matches;  // indexed by gap
  std::vector<uint64_t> samples;  // indexed by gap
};
AbsabCounts GenerateAbsabDataset(uint64_t max_gap, const LongTermOptions& options);

// Long-term aligned-digraph statistics for (Z_{256w + a}, Z_{256w + b}):
// counts over the 65536 value pairs, for one (a, b) offset pair with
// 0 <= a < b < 256. Validates Sen Gupta's (0,0) and the paper's new (128,0)
// bias at (a, b) = (0, 2) — formula (8).
std::vector<uint64_t> GenerateAlignedPairDataset(uint32_t offset_a, uint32_t offset_b,
                                                 const LongTermOptions& options);

}  // namespace rc4b

#endif  // SRC_BIASES_DATASET_H_
