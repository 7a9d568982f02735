// The lane-width decision and the replay's lane kernel.
//
// ResolveKernelChoice maps an interleave setting (0 = the kLaneWidth lanes
// of KeystreamRows, 1 = the scalar reference path) to a lane count;
// RunKeystreamEngine and perfbench's replay both call it, so they run the
// same width. Rc4LaneKernel, built through KernelDesc::make, is only for
// perfbench's replay: the engines call Rc4MultiStream (src/rc4/rc4_multi.h)
// directly. ROADMAP item 5 deletes this header after item 1 moves the
// replay to Rc4MultiStream. docs/engine.md records why ISA-specific kernels
// and other widths were measured and dropped.
#ifndef SRC_RC4_KERNEL_REGISTRY_H_
#define SRC_RC4_KERNEL_REGISTRY_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "src/rc4/rc4_multi.h"

namespace rc4b {

// Rc4MultiStream<kLaneWidth> whose KSA re-runs per lockstep group: Init()
// re-emplaces the streams, Skip() and Keystream() are Rc4MultiStream's.
class Rc4LaneKernel {
 public:
  size_t Width() const { return kLaneWidth; }
  void Init(std::span<const uint8_t> keys, size_t key_size) {
    streams_.emplace(keys, key_size);
  }
  void Skip(uint64_t n) { streams_->Skip(n); }
  void Keystream(uint8_t* out, size_t length, size_t stride) {
    streams_->Keystream(out, length, stride);
  }

 private:
  std::optional<Rc4MultiStream<kLaneWidth>> streams_;
};

struct KernelDesc {
  std::string_view name;  // "scalar"
  // Builds the kernel at `width` lanes; nullptr unless width == kLaneWidth.
  std::unique_ptr<Rc4LaneKernel> (*make)(size_t width);
};

// CPU features of the running machine, comma-separated (e.g.
// "ssse3,avx2,aes"); "baseline" when none. "aes" means AES-CTR key
// generation takes the AES-NI path (Aes128::UsesAesNi). Benchmark reports
// record it so their numbers carry their hardware context.
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
