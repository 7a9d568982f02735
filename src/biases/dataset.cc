#include "src/biases/dataset.h"

#include <cassert>

#include "src/engine/accumulators.h"

namespace rc4b {

AbsabCounts GenerateAbsabDataset(uint64_t max_gap, const LongTermEngineOptions& options) {
  AbsabAccumulator accumulator(max_gap);
  RunLongTermEngine(options, accumulator);
  AbsabCounts totals;
  totals.matches = accumulator.matches();
  totals.samples = accumulator.samples();
  return totals;
}

std::vector<uint64_t> GenerateAlignedPairDataset(uint32_t offset_a, uint32_t offset_b,
                                                 const LongTermEngineOptions& options) {
  assert(offset_a < offset_b && offset_b < 256);
  assert(options.drop % 256 == 0 && options.drop > 0);
  AlignedPairAccumulator accumulator(offset_a, offset_b);
  RunLongTermEngine(options, accumulator);
  return accumulator.TakeCounts();
}

}  // namespace rc4b
