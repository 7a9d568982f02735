#include "src/rc4/rc4.h"

#include <cstdio>
#include <cstdlib>
#include <numeric>

namespace rc4b {

Rc4::Rc4(std::span<const uint8_t> key) {
  if (key.empty() || key.size() > 256) {
    std::fprintf(stderr, "Rc4: got a %zu-byte key, RC4 takes 1..256 bytes\n", key.size());
    std::abort();
  }
  std::iota(s_.begin(), s_.end(), 0);
  uint8_t j = 0;
  for (int i = 0; i < 256; ++i) {
    j = static_cast<uint8_t>(j + s_[i] + key[static_cast<size_t>(i) % key.size()]);
    std::swap(s_[i], s_[j]);
  }
}

}  // namespace rc4b
