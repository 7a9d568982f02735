// Interleaved multi-stream RC4: M independent ciphers advanced in lockstep.
//
// The scalar Rc4::Next() is one long dependency chain (every byte needs the
// swapped permutation of the previous byte), so a superscalar core spends
// most of its issue slots waiting on loads. Running M independent streams
// round-robin — update i, then stream 0's j/swap/output, stream 1's, ... —
// gives the core M independent chains to overlap, for both the PRGA and the
// KSA (which dominates for short-keystream datasets: 256 swaps per key vs.
// 16..257 output bytes). Each stream's byte sequence is bit-identical to a
// scalar Rc4 over the same key; the kernel only changes the schedule, never
// the math. tests/rc4/rc4_multi_test.cc pins this for every supported M.
//
// This is the hot-path kernel under src/engine/keystream_engine.cc. Both
// engines run it at kLaneWidth and the keys left over after the full groups
// at M = 1: the short-term engine and the TKIP model through KeystreamRows
// below, the long-term engine through its own windowed group routine.
#ifndef SRC_RC4_RC4_MULTI_H_
#define SRC_RC4_RC4_MULTI_H_

#include <array>
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <span>

namespace rc4b {

// M independent RC4 instances in lockstep. M is a compile-time width so the
// per-byte round-robin loop fully unrolls; the engines instantiate
// kLaneWidth and 1, the tests sweep other widths.
template <size_t M>
class Rc4MultiStream {
 public:
  static constexpr size_t kStreams = M;

  // Runs M interleaved KSAs. `keys` holds the M keys back to back, each
  // exactly `key_size` (1..256) bytes: stream m's key is
  // keys[m * key_size, (m + 1) * key_size). Any other layout prints a
  // diagnostic and aborts, in every build type.
  Rc4MultiStream(std::span<const uint8_t> keys, size_t key_size) {
    if (key_size < 1 || key_size > 256 || keys.size() != M * key_size) {
      std::fprintf(stderr,
                   "Rc4MultiStream: got %zu key bytes for %zu keys of %zu bytes "
                   "(RC4 keys are 1..256 bytes)\n",
                   keys.size(), M, key_size);
      std::abort();
    }
    for (size_t m = 0; m < M; ++m) {
      std::iota(s_[m].begin(), s_[m].end(), uint8_t{0});
    }
    std::array<uint8_t, M> j{};
    for (size_t i = 0; i < 256; ++i) {
      // The key index is shared by all streams, which keeps the inner loop
      // free of per-stream control flow.
      const uint8_t* key_column = keys.data() + i % key_size;
      for (size_t m = 0; m < M; ++m) {
        auto& s = s_[m];
        j[m] = static_cast<uint8_t>(j[m] + s[i] + key_column[m * key_size]);
        const uint8_t si = s[i];
        s[i] = s[j[m]];
        s[j[m]] = si;
      }
    }
  }

  // Generates `length` keystream bytes per stream: stream m's byte t is
  // written to out[m * stride + t] (stride >= length), i.e. M rows of a
  // row-major buffer when stride == row length. Byte t of stream m equals
  // byte t of a scalar Rc4 over the same key and prior Skip()s.
  void Keystream(uint8_t* out, size_t length, size_t stride) {
    assert(stride >= length);
    Generate<true>(out, length, stride);
  }

  // Discards `n` bytes from every stream (engine-level drop / RC4-drop[n]).
  void Skip(uint64_t n) { Generate<false>(nullptr, n, 0); }

 private:
  template <bool kEmit>
  void Generate(uint8_t* out, uint64_t length, size_t stride) {
    // i is identical across streams (it never depends on key or state), so
    // one counter serves all M; only j and S are per stream.
    uint8_t i = i_;
    std::array<uint8_t, M> j = j_;
    for (uint64_t t = 0; t < length; ++t) {
      i = static_cast<uint8_t>(i + 1);
      for (size_t m = 0; m < M; ++m) {
        auto& s = s_[m];
        j[m] = static_cast<uint8_t>(j[m] + s[i]);
        const uint8_t si = s[i];
        s[i] = s[j[m]];
        s[j[m]] = si;
        if constexpr (kEmit) {
          out[m * stride + t] = s[static_cast<uint8_t>(s[i] + s[j[m]])];
        }
      }
    }
    i_ = i;
    j_ = j;
  }

  alignas(64) std::array<std::array<uint8_t, 256>, M> s_;
  std::array<uint8_t, M> j_{};
  uint8_t i_ = 0;
};

// The engine's lockstep width. A single-thread sweep at 2^18 keys found no
// width that beats 8: single-byte throughput was 385-399k keys/s at 4,
// 420-464k at 8, 382-454k at 16 and 327-403k at 32 (docs/engine.md).
inline constexpr size_t kLaneWidth = 8;

namespace detail {

template <size_t M>
void KeystreamGroup(const uint8_t* keys, size_t key_size, uint64_t drop,
                    uint8_t* out, size_t length) {
  Rc4MultiStream<M> rc4(std::span<const uint8_t>(keys, M * key_size), key_size);
  if (drop != 0) {
    rc4.Skip(drop);
  }
  rc4.Keystream(out, length, length);
}

}  // namespace detail

// One keystream row per key: `keys` holds the keys back to back, each
// `key_size` (1..256) bytes, and row r (out + r * length) gets keystream
// bytes drop+1 .. drop+length of key r. Full groups run at kLaneWidth, the
// remaining keys at M = 1, so every row equals a scalar Rc4 over its key. A
// key span that is not whole keys prints a diagnostic and aborts, in every
// build type.
inline void KeystreamRows(std::span<const uint8_t> keys, size_t key_size,
                          uint64_t drop, uint8_t* out, size_t length) {
  if (key_size == 0 || keys.size() % key_size != 0) {
    std::fprintf(stderr,
                 "KeystreamRows: %zu key bytes are not whole keys of %zu bytes\n",
                 keys.size(), key_size);
    std::abort();
  }
  const size_t rows = keys.size() / key_size;
  size_t r = 0;
  for (; r + kLaneWidth <= rows; r += kLaneWidth) {
    detail::KeystreamGroup<kLaneWidth>(keys.data() + r * key_size, key_size, drop,
                                       out + r * length, length);
  }
  for (; r < rows; ++r) {
    detail::KeystreamGroup<1>(keys.data() + r * key_size, key_size, drop,
                              out + r * length, length);
  }
}

}  // namespace rc4b

#endif  // SRC_RC4_RC4_MULTI_H_
