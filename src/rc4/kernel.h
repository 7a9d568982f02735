// Type-erased RC4 lane kernel: W independent RC4 streams advanced in
// lockstep behind one virtual interface, built through KernelDesc::make by
// the short-term engine and perfbench's replay. The only implementation is
// Rc4MultiStream<kLaneWidth> (src/rc4/kernel_registry.cc).
//
// The contract is exactly Rc4MultiStream's (src/rc4/rc4_multi.h): after
// Init() with W keys, lane m's byte sequence is bit-identical to a scalar
// Rc4 over key m — a kernel only reorders the schedule, never the per-key
// math. tests/rc4/rc4_multi_test.cc pins this for a sweep of widths.
#ifndef SRC_RC4_KERNEL_H_
#define SRC_RC4_KERNEL_H_

#include <cstdint>
#include <span>

namespace rc4b {

class Rc4LaneKernel {
 public:
  virtual ~Rc4LaneKernel() = default;

  // Lanes advanced per lockstep group; fixed for the kernel's lifetime.
  virtual size_t Width() const = 0;

  // Starts a new group: runs Width() KSAs over `keys`, which holds the keys
  // back to back, each exactly `key_size` (1..256) bytes. Resets all PRGA
  // state; a kernel instance is reused across groups.
  virtual void Init(std::span<const uint8_t> keys, size_t key_size) = 0;

  // Discards `n` keystream bytes from every lane (RC4-drop[n] / engine drop).
  virtual void Skip(uint64_t n) = 0;

  // Generates `length` keystream bytes per lane: lane m's byte t is written
  // to out[m * stride + t] (stride >= length), i.e. Width() rows of a
  // row-major batch buffer when stride equals the row length. State carries
  // across calls (split generation), exactly like Rc4MultiStream.
  virtual void Keystream(uint8_t* out, size_t length, size_t stride) = 0;
};

}  // namespace rc4b

#endif  // SRC_RC4_KERNEL_H_
