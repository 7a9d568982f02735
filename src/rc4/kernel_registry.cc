#include "src/rc4/kernel_registry.h"

#include <atomic>
#include <cstdio>

#include "src/crypto/aes128.h"

namespace rc4b {

namespace {

std::unique_ptr<Rc4LaneKernel> MakeScalarKernel(size_t width) {
  if (width != kLaneWidth) {
    return nullptr;
  }
  return std::make_unique<Rc4LaneKernel>();
}

constexpr KernelDesc kScalarKernel = {"scalar", MakeScalarKernel};

void WarnKernelFallbackOnce(std::string_view name) {
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true)) {
    std::fprintf(stderr,
                 "rc4b: kernel '%.*s' is unknown; falling back to scalar\n",
                 static_cast<int>(name.size()), name.data());
  }
}

#if defined(__x86_64__) || defined(__i386__)
void AppendFeature(std::string& features, const char* feature) {
  if (!features.empty()) {
    features.push_back(',');
  }
  features.append(feature);
}
#endif

}  // namespace

std::string CpuFeatureString() {
  std::string features;
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("ssse3")) {
    AppendFeature(features, "ssse3");
  }
  if (__builtin_cpu_supports("avx2")) {
    AppendFeature(features, "avx2");
  }
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512vbmi")) {
    AppendFeature(features, "avx512f,avx512bw,avx512vbmi");
  }
  if (Aes128::UsesAesNi()) {
    AppendFeature(features, "aes");
  }
#elif defined(__aarch64__) || defined(__ARM_NEON)
  features = "neon";
#endif
  return features.empty() ? "baseline" : features;
}

KernelChoice ResolveKernelChoice(std::string_view kernel_name, size_t interleave) {
  if (!kernel_name.empty() && kernel_name != "auto" &&
      kernel_name != kScalarKernel.name) {
    WarnKernelFallbackOnce(kernel_name);
  }
  return KernelChoice{&kScalarKernel, interleave == 1 ? 1 : kLaneWidth};
}

}  // namespace rc4b
