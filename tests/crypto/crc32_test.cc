#include "src/crypto/crc32.h"

#include <gtest/gtest.h>

#include "src/common/bytes.h"
#include "src/common/rng.h"

namespace rc4b {
namespace {

// Bit-at-a-time CRC-32 straight from the reflected polynomial, no table: the
// reference every table-driven path must agree with.
uint32_t ReferenceCrc32(std::span<const uint8_t> data) {
  uint32_t crc = 0xffffffffu;
  for (uint8_t b : data) {
    crc ^= b;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0xedb88320u & (0u - (crc & 1)));
    }
  }
  return crc ^ 0xffffffffu;
}

// Canonical CRC-32 check value.
TEST(Crc32Test, CheckValue) {
  const Bytes data = FromString("123456789");
  EXPECT_EQ(Crc32(data), 0xcbf43926u);
}

TEST(Crc32Test, EmptyIsZero) {
  EXPECT_EQ(Crc32({}), 0u);
}

TEST(Crc32Test, SingleZeroByte) {
  const Bytes data = {0x00};
  EXPECT_EQ(Crc32(data), 0xd202ef8du);
}

TEST(Crc32Test, StreamingMatchesOneShot) {
  Xoshiro256 rng(99);
  Bytes data(300);
  rng.Fill(data);
  uint32_t state = Crc32Init();
  state = Crc32Update(state, std::span<const uint8_t>(data.data(), 100));
  state = Crc32Update(state, std::span<const uint8_t>(data.data() + 100, 200));
  EXPECT_EQ(Crc32Final(state), Crc32(data));
}

TEST(Crc32Test, SensitiveToEveryBit) {
  Bytes data = FromString("The Integrity Check Value");
  const uint32_t baseline = Crc32(data);
  for (size_t byte = 0; byte < data.size(); byte += 5) {
    for (int bit = 0; bit < 8; bit += 3) {
      Bytes mutated = data;
      mutated[byte] ^= static_cast<uint8_t>(1 << bit);
      EXPECT_NE(Crc32(mutated), baseline) << "byte " << byte << " bit " << bit;
    }
  }
}

// CRC linearity: crc(a XOR b XOR c) = crc(a) XOR crc(b) XOR crc(c) for
// equal-length inputs — the property that makes the WEP/TKIP ICV malleable
// and candidate pruning cheap.
TEST(Crc32Test, LinearityOverXor) {
  Xoshiro256 rng(4);
  Bytes a(64), b(64), zero(64, 0);
  rng.Fill(a);
  rng.Fill(b);
  const Bytes ab = Xor(a, b);
  EXPECT_EQ(Crc32(ab) ^ Crc32(zero), Crc32(a) ^ Crc32(b));
}

// Every length across the 8-byte main loop and its 0-7 byte tail, at every
// start alignment (a misaligned word load shows up here under sanitizers).
TEST(Crc32Test, MatchesReferenceAtEveryLengthAndOffset) {
  Xoshiro256 rng(7);
  Bytes data(8 + 72);
  rng.Fill(data);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 72; ++length) {
      const std::span<const uint8_t> slice(data.data() + offset, length);
      EXPECT_EQ(Crc32(slice), ReferenceCrc32(slice))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(Crc32Test, StreamingMatchesReferenceAtEveryCut) {
  Xoshiro256 rng(8);
  Bytes data(64);
  rng.Fill(data);
  const uint32_t want = ReferenceCrc32(data);
  const std::span<const uint8_t> all(data);
  for (size_t cut = 0; cut <= data.size(); ++cut) {
    uint32_t state = Crc32Init();
    state = Crc32Update(state, all.first(cut));
    state = Crc32Update(state, all.subspan(cut));
    EXPECT_EQ(Crc32Final(state), want) << "cut " << cut;
  }
}

TEST(Crc32Test, MatchesReferenceOnLargeBuffer) {
  Xoshiro256 rng(9);
  Bytes data((1 << 20) + 5);
  rng.Fill(data);
  EXPECT_EQ(Crc32(data), ReferenceCrc32(data));
}

}  // namespace
}  // namespace rc4b
