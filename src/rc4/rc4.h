// RC4 stream cipher: Key Scheduling Algorithm (KSA) and Pseudo Random
// Generation Algorithm (PRGA), exactly as in Fig. 1 of the paper.
//
// This is the object under attack; everything else in the repository either
// measures its keystream distribution or exploits it.
#ifndef SRC_RC4_RC4_H_
#define SRC_RC4_RC4_H_

#include <array>
#include <cstdint>
#include <span>

#include "src/common/bytes.h"

namespace rc4b {

class Rc4 {
 public:
  // Runs the KSA over `key` (1..256 bytes; the paper uses 16-byte keys).
  // Any other size prints a diagnostic and aborts, in every build type.
  explicit Rc4(std::span<const uint8_t> key);

  // Returns the next keystream byte Z_{r+1} (positions are 1-based in the
  // paper; the first call returns Z_1).
  uint8_t Next() {
    i_ = static_cast<uint8_t>(i_ + 1);
    j_ = static_cast<uint8_t>(j_ + s_[i_]);
    const uint8_t si = s_[i_];
    s_[i_] = s_[j_];
    s_[j_] = si;
    return s_[static_cast<uint8_t>(s_[i_] + s_[j_])];
  }

  // Fills `out` with keystream bytes.
  void Keystream(std::span<uint8_t> out) {
    for (auto& b : out) {
      b = Next();
    }
  }

  // XORs keystream into plaintext (encrypt == decrypt).
  void Process(std::span<const uint8_t> in, std::span<uint8_t> out) {
    for (size_t k = 0; k < in.size(); ++k) {
      out[k] = static_cast<uint8_t>(in[k] ^ Next());
    }
  }

  // Discards `n` keystream bytes (e.g. RC4-drop[n] experiments).
  void Skip(uint64_t n) {
    for (uint64_t k = 0; k < n; ++k) {
      Next();
    }
  }

  // Public PRGA counter i; long-term digraph biases are conditioned on it
  // (Table 1 in the paper).
  uint8_t CounterI() const { return i_; }

  // Read-only view of the permutation (used by state-evolution tests).
  const std::array<uint8_t, 256>& State() const { return s_; }

 private:
  std::array<uint8_t, 256> s_;
  uint8_t i_ = 0;
  uint8_t j_ = 0;
};

}  // namespace rc4b

#endif  // SRC_RC4_RC4_H_
