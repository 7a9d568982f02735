// Deterministic RC4 key generation for dataset workers.
//
// Matches the paper's setup (Sect. 3.2): an AES key derives a stream of
// random 128-bit RC4 keys using AES in counter mode, seeded deterministically
// (instead of from /dev/urandom) so datasets are reproducible. The engine
// gives every shard the same seed and Seek()s to the shard's global key
// range, making datasets invariant under the worker count.
#ifndef SRC_RC4_KEYGEN_H_
#define SRC_RC4_KEYGEN_H_

#include <array>
#include <cstdint>
#include <span>

#include "src/crypto/aes128.h"

namespace rc4b {

class Rc4KeyGenerator {
 public:
  static constexpr size_t kRc4KeySize = 16;

  explicit Rc4KeyGenerator(uint64_t worker_seed);

  // Returns the next 128-bit RC4 key from the AES-CTR stream.
  std::array<uint8_t, kRc4KeySize> NextKey();

  // Fills `out` with the next out.size() / kRc4KeySize keys, back to back:
  // the same keys as that many NextKey() calls, from one pipelined AES-CTR
  // call. out.size() must be a multiple of kRc4KeySize; anything else
  // prints a diagnostic and aborts.
  void NextKeys(std::span<uint8_t> out);

  // Jumps ahead so that the next key is key number `key_index` of this
  // worker's stream (each key consumes exactly one AES block).
  void Seek(uint64_t key_index);

 private:
  Aes128Ctr ctr_;
};

}  // namespace rc4b

#endif  // SRC_RC4_KEYGEN_H_
