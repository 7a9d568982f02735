#include "src/rc4/keygen.h"

#include <cstdio>
#include <cstdlib>

#include "src/common/rng.h"

namespace rc4b {

namespace {

std::array<uint8_t, Aes128::kKeySize> DeriveWorkerAesKey(uint64_t worker_seed) {
  Xoshiro256 rng(worker_seed ^ 0xa3c59ac4b1e2f07dULL);
  std::array<uint8_t, Aes128::kKeySize> key;
  rng.Fill(key);
  return key;
}

}  // namespace

Rc4KeyGenerator::Rc4KeyGenerator(uint64_t worker_seed)
    : ctr_(DeriveWorkerAesKey(worker_seed)) {}

std::array<uint8_t, Rc4KeyGenerator::kRc4KeySize> Rc4KeyGenerator::NextKey() {
  std::array<uint8_t, kRc4KeySize> key;
  ctr_.Generate(key);
  return key;
}

void Rc4KeyGenerator::NextKeys(std::span<uint8_t> out) {
  if (out.size() % kRc4KeySize != 0) {
    std::fprintf(stderr, "Rc4KeyGenerator: %zu bytes are not whole %zu-byte keys\n",
                 out.size(), kRc4KeySize);
    std::abort();
  }
  ctr_.Generate(out);
}

void Rc4KeyGenerator::Seek(uint64_t key_index) { ctr_.Seek(key_index); }

}  // namespace rc4b
