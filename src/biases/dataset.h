// Long-term keystream statistics that are not grids (Sect. 3.4 of the
// paper).
//
// The paper's grid datasets (consec512, first16 and the long-term digraph
// set, Sect. 3.2) are described by a store::GridMeta and generated or loaded
// with store::LoadOrGenerateGrid (src/store/grid_cache.h). The generator
// here counts something other than a grid over the same sharded long-term
// engine: bit-identical for any worker count (see
// src/engine/keystream_engine.h). The ABSAB counts of formula (1) come from
// running AbsabAccumulator (src/engine/accumulators.h) directly.
#ifndef SRC_BIASES_DATASET_H_
#define SRC_BIASES_DATASET_H_

#include <cstdint>
#include <vector>

#include "src/engine/keystream_engine.h"

namespace rc4b {

// Long-term aligned-digraph statistics for (Z_{256w + a}, Z_{256w + b}):
// counts over the 65536 value pairs, for one (a, b) offset pair with
// 0 <= a < b < 256 and options.drop a positive multiple of 256 (both checked
// in every build: anything else aborts). Validates Sen Gupta's (0,0) and the
// paper's new (128,0) bias at (a, b) = (0, 2) — formula (8).
std::vector<uint64_t> GenerateAlignedPairDataset(uint32_t offset_a, uint32_t offset_b,
                                                 const LongTermEngineOptions& options);

}  // namespace rc4b

#endif  // SRC_BIASES_DATASET_H_
