// The RC4 lane kernel and its dispatch.
//
// There is one kernel: the portable round-robin Rc4MultiStream behind the
// Rc4LaneKernel interface, at the widths of kInterleaveWidths.
// ResolveKernelChoice turns a requested interleave into a lane count;
// RunKeystreamEngine, RunLongTermEngine and perfbench's replay all call it,
// so they run the same width. docs/engine.md records why ISA-specific
// kernels were measured and dropped.
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
  std::unique_ptr<Rc4LaneKernel> (*make)(size_t width);  // nullptr: bad width
};

// CPU features of the running machine, comma-separated (e.g.
// "ssse3,avx2"); "baseline" when none. Recorded in every BENCH_*.json so
// trajectory points carry their hardware context.
std::string CpuFeatureString();

// A dispatch decision: the kernel at a lane width, plus the raw requested
// interleave so benches can record both sides of the rounding.
struct KernelChoice {
  const KernelDesc* kernel = nullptr;  // never null after resolution
  size_t width = 1;                    // resolved lane count (>= 1)
  size_t requested = 0;                // EngineOptions::interleave, verbatim

  std::string_view name() const { return kernel->name; }
};

// Resolves (kernel name, requested interleave) to a runnable configuration:
// the scalar kernel at ResolveInterleave(requested_interleave). `kernel_name`
// may be "", "auto" or "scalar"; any other name warns once on stderr and
// falls back to scalar. The first request whose width had to be rounded
// logs the resolution once.
KernelChoice ResolveKernelChoice(std::string_view kernel_name,
                                 size_t requested_interleave);

}  // namespace rc4b

#endif  // SRC_RC4_KERNEL_REGISTRY_H_
