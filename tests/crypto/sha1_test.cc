#include "src/crypto/sha1.h"

#include <string>

#include <gtest/gtest.h>

#include "src/common/bytes.h"

namespace rc4b {
namespace {

std::string DigestHex(std::string_view message) {
  const Bytes data = FromString(message);
  const auto digest = Sha1::Digest(data);
  return ToHex(digest);
}

// FIPS 180 example vectors.
TEST(Sha1Test, Abc) {
  EXPECT_EQ(DigestHex("abc"), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1Test, Empty) {
  EXPECT_EQ(DigestHex(""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1Test, TwoBlockMessage) {
  EXPECT_EQ(DigestHex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1Test, MillionAs) {
  Sha1 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.Update(chunk);
  }
  EXPECT_EQ(ToHex(h.Finish()), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1Test, StreamingMatchesOneShot) {
  const Bytes data = FromString("the quick brown fox jumps over the lazy dog!!");
  Sha1 h;
  // Split at awkward boundaries relative to the 64-byte block size.
  h.Update(std::span<const uint8_t>(data.data(), 1));
  h.Update(std::span<const uint8_t>(data.data() + 1, 30));
  h.Update(std::span<const uint8_t>(data.data() + 31, data.size() - 31));
  EXPECT_EQ(ToHex(h.Finish()), ToHex(Sha1::Digest(data)));
}

TEST(Sha1Test, FinishResetsState) {
  Sha1 h;
  h.Update(FromString("abc"));
  const auto first = h.Finish();
  h.Update(FromString("abc"));
  const auto second = h.Finish();
  EXPECT_EQ(ToHex(first), ToHex(second));
}

// An empty span after a partial block must not reach memcpy: its data() is
// null, which UBSan reports even for a zero-byte copy.
TEST(Sha1Test, EmptyUpdateAfterPartialBlock) {
  Sha1 h;
  h.Update(FromString("ab"));
  h.Update(std::span<const uint8_t>());
  h.Update(FromString("c"));
  EXPECT_EQ(ToHex(h.Finish()), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

// Exercise every message length mod 64 around the padding boundary.
TEST(Sha1Test, PaddingBoundaryLengths) {
  for (size_t len = 54; len <= 66; ++len) {
    const Bytes data(len, 0x5a);
    Sha1 h;
    h.Update(data);
    const auto streamed = h.Finish();
    EXPECT_EQ(ToHex(streamed), ToHex(Sha1::Digest(data))) << "len=" << len;
  }
}

}  // namespace
}  // namespace rc4b
