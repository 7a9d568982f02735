#include "src/crypto/crc32.h"

#include <array>

#include "src/common/bytes.h"

namespace rc4b {

namespace {

using Tables = std::array<std::array<uint32_t, 256>, 8>;

// t[0] is the classic byte-at-a-time table; t[k][b] is the CRC state after
// feeding byte b followed by k zero bytes, so one 8-byte step XORs eight
// lookups instead of chaining them.
Tables BuildTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < t.size(); ++k) {
      t[k][i] = t[0][t[k - 1][i] & 0xff] ^ (t[k - 1][i] >> 8);
    }
  }
  return t;
}

const Tables& GetTables() {
  static const Tables kTables = BuildTables();
  return kTables;
}

}  // namespace

uint32_t Crc32Init() { return 0xffffffffu; }

uint32_t Crc32Update(uint32_t state, std::span<const uint8_t> data) {
  const Tables& t = GetTables();
  const uint8_t* p = data.data();
  size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = state ^ LoadLe32(p);
    const uint32_t hi = LoadLe32(p + 4);
    state = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
            t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
            t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    state = t[0][(state ^ *p) & 0xff] ^ (state >> 8);
  }
  return state;
}

uint32_t Crc32Final(uint32_t state) { return state ^ 0xffffffffu; }

uint32_t Crc32(std::span<const uint8_t> data) {
  return Crc32Final(Crc32Update(Crc32Init(), data));
}

}  // namespace rc4b
