#include "src/crypto/aes128.h"

#include <algorithm>
#include <cstdint>
#include <iterator>

#include <gtest/gtest.h>

#include "src/common/bytes.h"

namespace rc4b {
namespace {

// The CTR stream from `first_block` on, one EncryptBlock per hand-built
// counter block: eight zero bytes, then the big-endian 64-bit counter.
Bytes CtrOracle(const Aes128& aes, uint64_t first_block, size_t blocks) {
  Bytes out(blocks * Aes128::kBlockSize);
  for (size_t b = 0; b < blocks; ++b) {
    uint8_t counter_block[Aes128::kBlockSize] = {};
    StoreBe64(first_block + b, counter_block + 8);
    aes.EncryptBlock(counter_block, out.data() + b * Aes128::kBlockSize);
  }
  return out;
}

const Bytes kCtrKey = FromHex("2b7e151628aed2a6abf7158809cf4f3c");

// FIPS-197 Appendix C.1 known-answer vector.
TEST(Aes128Test, Fips197Vector) {
  const Bytes key = FromHex("000102030405060708090a0b0c0d0e0f");
  const Bytes plaintext = FromHex("00112233445566778899aabbccddeeff");
  Aes128 aes(key);
  uint8_t out[16];
  aes.EncryptBlock(plaintext.data(), out);
  EXPECT_EQ(ToHex(std::span<const uint8_t>(out, 16)),
            "69c4e0d86a7b0430d8cdb78070b4c55a");
}

// FIPS-197 Appendix B worked example.
TEST(Aes128Test, Fips197AppendixB) {
  const Bytes key = FromHex("2b7e151628aed2a6abf7158809cf4f3c");
  const Bytes plaintext = FromHex("3243f6a8885a308d313198a2e0370734");
  Aes128 aes(key);
  uint8_t out[16];
  aes.EncryptBlock(plaintext.data(), out);
  EXPECT_EQ(ToHex(std::span<const uint8_t>(out, 16)),
            "3925841d02dc09fbdc118597196a0b32");
}

TEST(Aes128Test, SBoxKnownEntries) {
  const auto& sbox = Aes128::SBox();
  EXPECT_EQ(sbox[0x00], 0x63);
  EXPECT_EQ(sbox[0x01], 0x7c);
  EXPECT_EQ(sbox[0x53], 0xed);
  EXPECT_EQ(sbox[0xff], 0x16);
}

TEST(Aes128Test, SBoxIsPermutation) {
  const auto& sbox = Aes128::SBox();
  std::array<int, 256> seen{};
  for (int i = 0; i < 256; ++i) {
    ++seen[sbox[i]];
  }
  for (int i = 0; i < 256; ++i) {
    EXPECT_EQ(seen[i], 1) << "value " << i;
  }
}

TEST(Aes128Test, InPlaceEncryption) {
  const Bytes key = FromHex("000102030405060708090a0b0c0d0e0f");
  Bytes block = FromHex("00112233445566778899aabbccddeeff");
  Aes128 aes(key);
  aes.EncryptBlock(block.data(), block.data());
  EXPECT_EQ(ToHex(block), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(Aes128CtrTest, DeterministicAndSeekable) {
  const Bytes key = FromHex("2b7e151628aed2a6abf7158809cf4f3c");
  Aes128Ctr a(key);
  Bytes first(48);
  a.Generate(first);

  Aes128Ctr b(key);
  Bytes again(48);
  b.Generate(again);
  EXPECT_EQ(first, again);

  // Seek to block 1 (byte offset 16) and compare.
  Aes128Ctr c(key);
  c.Seek(1);
  Bytes tail(32);
  c.Generate(tail);
  EXPECT_EQ(Bytes(first.begin() + 16, first.end()), tail);
}

TEST(Aes128CtrTest, UnalignedReadsMatchAlignedStream) {
  const Bytes key = FromHex("000102030405060708090a0b0c0d0e0f");
  Aes128Ctr a(key);
  Bytes aligned(64);
  a.Generate(aligned);

  Aes128Ctr b(key);
  Bytes pieces;
  for (size_t chunk : {3u, 7u, 16u, 1u, 21u, 16u}) {
    Bytes piece(chunk);
    b.Generate(piece);
    pieces.insert(pieces.end(), piece.begin(), piece.end());
  }
  EXPECT_EQ(Bytes(aligned.begin(), aligned.begin() + pieces.size()), pieces);
}

TEST(Aes128CtrTest, DistinctBlocksDiffer) {
  const Bytes key = FromHex("000102030405060708090a0b0c0d0e0f");
  Aes128Ctr ctr(key);
  Bytes b1(16), b2(16);
  ctr.Generate(b1);
  ctr.Generate(b2);
  EXPECT_NE(b1, b2);
}

// Reads of irregular sizes hit every split of the bulk path: a drain of the
// buffered partial block, whole 8-block groups, a 1..7-block tail and a new
// partial block. Odd offsets make every store unaligned.
TEST(Aes128CtrTest, IrregularChunksMatchBlockOracle) {
  const size_t kBlocks = size_t{1} << 16;
  const Bytes want = CtrOracle(Aes128(kCtrKey), 0, kBlocks);
  Aes128Ctr ctr(kCtrKey);
  Bytes got;
  got.reserve(want.size());
  const size_t kChunks[] = {1, 15, 16, 17, 127, 128, 129, 4096};
  for (size_t i = 0; got.size() < want.size(); ++i) {
    Bytes piece(std::min(kChunks[i % std::size(kChunks)], want.size() - got.size()));
    ctr.Generate(piece);
    got.insert(got.end(), piece.begin(), piece.end());
  }
  EXPECT_EQ(got, want);
}

// A Seek that lands inside an 8-block group, read as one bulk call and as
// single blocks.
TEST(Aes128CtrTest, SeekIntoLaneGroupMatchesBlockOracle) {
  const Aes128 aes(kCtrKey);
  for (uint64_t start : {uint64_t{5}, (uint64_t{1} << 32) - 3}) {
    const Bytes want = CtrOracle(aes, start, 29);
    Aes128Ctr bulk(kCtrKey);
    bulk.Seek(start);
    Bytes got(want.size());
    bulk.Generate(got);
    EXPECT_EQ(got, want) << "start " << start;

    Aes128Ctr single(kCtrKey);
    single.Seek(start);
    for (size_t b = 0; b < 29; ++b) {
      Bytes block(Aes128::kBlockSize);
      single.Generate(block);
      EXPECT_EQ(block, Bytes(want.begin() + 16 * b, want.begin() + 16 * (b + 1)))
          << "start " << start << " block " << b;
    }
  }
}

// The 64-bit counter wraps to 0 mid-group, exactly as StoreBe64 does.
TEST(Aes128CtrTest, CounterWrapMatchesBlockOracle) {
  const uint64_t start = UINT64_MAX - 4;
  const Bytes want = CtrOracle(Aes128(kCtrKey), start, 16);
  Aes128Ctr ctr(kCtrKey);
  ctr.Seek(start);
  Bytes got(want.size());
  ctr.Generate(got);
  EXPECT_EQ(got, want);

  Aes128Ctr from_zero(kCtrKey);
  Bytes zero_blocks(11 * Aes128::kBlockSize);
  from_zero.Generate(zero_blocks);
  EXPECT_EQ(Bytes(got.begin() + 5 * 16, got.end()), zero_blocks);
}

TEST(Aes128DeathTest, WrongKeySizeAborts) {
  const Bytes short_key(15);
  const Bytes long_key(17);
  EXPECT_DEATH(Aes128{short_key}, "Aes128: got a 15-byte key");
  EXPECT_DEATH(Aes128{long_key}, "Aes128: got a 17-byte key");
  EXPECT_DEATH(Aes128Ctr{Bytes()}, "Aes128: got a 0-byte key");
}

}  // namespace
}  // namespace rc4b
