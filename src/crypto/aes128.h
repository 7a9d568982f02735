// AES-128 block cipher and a CTR-mode keystream, implemented from FIPS-197.
//
// Role in the reproduction: the paper's dataset workers derive random RC4 keys
// from a per-worker AES key run in counter mode (Sect. 3.2). We follow the
// same construction so dataset generation is deterministic given worker seeds.
//
// Counter blocks are encrypted by one of two paths, picked once per process:
//   - AES-NI (x86 with the `aes` CPU feature): eight blocks pipelined through
//     `aesenc`, compiled with a function-level target attribute;
//   - portable: the byte-wise FIPS-197 EncryptBlock, one block at a time
//     (arm64, x86 without AES-NI).
// Both produce identical bytes; tests/crypto/aes128_test.cc compares the
// counter stream against EncryptBlock over long and wrapping ranges.
#ifndef SRC_CRYPTO_AES128_H_
#define SRC_CRYPTO_AES128_H_

#include <array>
#include <cstdint>
#include <span>

#include "src/common/bytes.h"

namespace rc4b {

class Aes128 {
 public:
  static constexpr size_t kBlockSize = 16;
  static constexpr size_t kKeySize = 16;

  // Expands `key`, which must be exactly kKeySize bytes; any other size
  // prints a diagnostic and aborts, in every build type.
  explicit Aes128(std::span<const uint8_t> key);

  // Encrypts one 16-byte block (out may alias in). Always the portable path.
  void EncryptBlock(const uint8_t in[kBlockSize], uint8_t out[kBlockSize]) const;

  // Writes `blocks` CTR keystream blocks to `out` (16 * blocks bytes, any
  // alignment): block b encrypts eight zero bytes followed by the big-endian
  // 64-bit value counter + b, which wraps modulo 2^64.
  void EncryptCounterBlocks(uint64_t counter, size_t blocks, uint8_t* out) const;

  // True when EncryptCounterBlocks takes the AES-NI path on this machine.
  static bool UsesAesNi();

  // The AES S-box; exposed because the TKIP key-mixing S-box is derived from
  // it (see src/tkip/key_mixing.cc).
  static const std::array<uint8_t, 256>& SBox();

 private:
  // The 11 round keys in byte order: round r XORs bytes [16r, 16r + 16)
  // into the state, exactly as aesenc consumes them.
  std::array<uint8_t, 176> round_keys_;
};

// CTR-mode generator: encrypts an incrementing counter (block layout as in
// EncryptCounterBlocks). Reads of any size give the same byte stream.
class Aes128Ctr {
 public:
  explicit Aes128Ctr(std::span<const uint8_t> key) : aes_(key) {}

  // Fills `out` with keystream, continuing from the current counter. Whole
  // blocks are encrypted in one EncryptCounterBlocks call.
  void Generate(std::span<uint8_t> out);

  // Repositions the counter (used to shard one worker key across chunks).
  void Seek(uint64_t block_index);

 private:
  Aes128 aes_;
  uint64_t counter_ = 0;
  std::array<uint8_t, Aes128::kBlockSize> buffer_{};
  size_t buffered_ = 0;  // valid bytes remaining at the tail of buffer_
};

}  // namespace rc4b

#endif  // SRC_CRYPTO_AES128_H_
