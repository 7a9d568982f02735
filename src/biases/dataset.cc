#include "src/biases/dataset.h"

#include <cstdio>
#include <cstdlib>

#include "src/engine/accumulators.h"

namespace rc4b {

std::vector<uint64_t> GenerateAlignedPairDataset(uint32_t offset_a, uint32_t offset_b,
                                                 const LongTermEngineOptions& options) {
  if (options.drop == 0 || options.drop % 256 != 0) {
    std::fprintf(stderr,
                 "GenerateAlignedPairDataset: drop %llu is not a positive multiple "
                 "of 256, so blocks would not start at Z_{256w}\n",
                 static_cast<unsigned long long>(options.drop));
    std::abort();
  }
  AlignedPairAccumulator accumulator(offset_a, offset_b);
  RunLongTermEngine(options, accumulator);
  return accumulator.TakeCounts();
}

}  // namespace rc4b
