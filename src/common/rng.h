// Deterministic, fast pseudo-random generators used by simulations and tests.
//
// All experiment harnesses take explicit seeds so that every figure/table
// bench is reproducible bit-for-bit. RC4 *keys* for dataset generation are
// instead derived with AES-CTR (see src/rc4/keygen.h), matching the paper's
// setup; this xoshiro generator drives everything else (plaintext choices,
// simulation noise, synthetic count sampling).
#ifndef SRC_COMMON_RNG_H_
#define SRC_COMMON_RNG_H_

#include <cstdint>

#include "src/common/bytes.h"

namespace rc4b {

// xoshiro256** by Blackman & Vigna (public domain reference construction).
class Xoshiro256 {
 public:
  explicit Xoshiro256(uint64_t seed) {
    // SplitMix64 seeding, as recommended by the xoshiro authors.
    uint64_t z = seed;
    for (auto& word : state_) {
      z += 0x9e3779b97f4a7c15ULL;
      uint64_t x = z;
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
      x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
      word = x ^ (x >> 31);
    }
  }

  using result_type = uint64_t;
  static constexpr uint64_t min() { return 0; }
  static constexpr uint64_t max() { return ~0ULL; }

  uint64_t operator()() {
    const uint64_t result = Rotl64(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl64(state_[3], 45);
    return result;
  }

  // Uniform value in [0, bound) without modulo bias (Lemire reduction).
  uint64_t Below(uint64_t bound) {
    unsigned __int128 m = static_cast<unsigned __int128>((*this)()) * bound;
    uint64_t lo = static_cast<uint64_t>(m);
    if (lo < bound) {
      uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        m = static_cast<unsigned __int128>((*this)()) * bound;
        lo = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  uint8_t Byte() { return static_cast<uint8_t>((*this)() >> 56); }

  // Uniform double in [0, 1).
  double UnitDouble() { return static_cast<double>((*this)() >> 11) * 0x1.0p-53; }

  // Standard normal variate (polar Marsaglia; caches the paired value).
  double Normal();

  // Fills `out` with uniform random bytes.
  void Fill(std::span<uint8_t> out);

 private:
  uint64_t state_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace rc4b

#endif  // SRC_COMMON_RNG_H_
