// The RC4 lane kernel and its dispatch.
//
// There is one kernel: the portable round-robin Rc4MultiStream behind the
// Rc4LaneKernel interface, at kLaneWidth lanes. ResolveKernelChoice maps an
// interleave setting (0 = the lane kernel, 1 = the scalar reference path) to
// a lane count; RunKeystreamEngine, RunLongTermEngine and perfbench's replay
// all call it, so they run the same width. docs/engine.md records why
// ISA-specific kernels and other widths were measured and dropped.
#ifndef SRC_RC4_KERNEL_REGISTRY_H_
#define SRC_RC4_KERNEL_REGISTRY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "src/rc4/kernel.h"

namespace rc4b {

struct KernelDesc {
  std::string_view name;  // "scalar"
  // Builds the kernel at `width` lanes; nullptr unless width == kLaneWidth.
  std::unique_ptr<Rc4LaneKernel> (*make)(size_t width);
};

// CPU features of the running machine, comma-separated (e.g.
// "ssse3,avx2"); "baseline" when none. Benchmark reports record it so their
// numbers carry their hardware context.
std::string CpuFeatureString();

// A dispatch decision: the kernel at a lane count.
struct KernelChoice {
  const KernelDesc* kernel = nullptr;  // never null after resolution
  size_t width = 1;                    // 1 (scalar reference) or kLaneWidth

  std::string_view name() const { return kernel->name; }
};

// Resolves (kernel name, interleave) to a runnable configuration: width 1
// for interleave == 1, kLaneWidth for any other value. `kernel_name` may be
// "", "auto" or "scalar"; any other name warns once on stderr and falls back
// to scalar.
KernelChoice ResolveKernelChoice(std::string_view kernel_name, size_t interleave);

}  // namespace rc4b

#endif  // SRC_RC4_KERNEL_REGISTRY_H_
