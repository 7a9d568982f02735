// Long-term keystream statistics that are not grids (Sect. 3.4 and 4.2 of
// the paper).
//
// The paper's grid datasets (consec512, first16 and the long-term digraph
// set, Sect. 3.2) are described by a store::GridMeta and generated or loaded
// with store::LoadOrGenerateGrid (src/store/grid_cache.h). The two
// generators here count something other than a grid over the same sharded
// long-term engine: bit-identical for any worker count (see
// src/engine/keystream_engine.h).
#ifndef SRC_BIASES_DATASET_H_
#define SRC_BIASES_DATASET_H_

#include <cstdint>
#include <vector>

#include "src/engine/keystream_engine.h"

namespace rc4b {

// Long-term ABSAB statistics: counts of matching differentials
// (Z_r = Z_{r+g+2} and Z_{r+1} = Z_{r+g+3}) per gap g in [0, max_gap],
// alongside the number of samples per gap. Used to validate formula (1).
struct AbsabCounts {
  std::vector<uint64_t> matches;  // indexed by gap
  std::vector<uint64_t> samples;  // indexed by gap
};
AbsabCounts GenerateAbsabDataset(uint64_t max_gap, const LongTermEngineOptions& options);

// Long-term aligned-digraph statistics for (Z_{256w + a}, Z_{256w + b}):
// counts over the 65536 value pairs, for one (a, b) offset pair with
// 0 <= a < b < 256. Validates Sen Gupta's (0,0) and the paper's new (128,0)
// bias at (a, b) = (0, 2) — formula (8).
std::vector<uint64_t> GenerateAlignedPairDataset(uint32_t offset_a, uint32_t offset_b,
                                                 const LongTermEngineOptions& options);

}  // namespace rc4b

#endif  // SRC_BIASES_DATASET_H_
