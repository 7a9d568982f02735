#include "src/rc4/rc4.h"

#include <gtest/gtest.h>

#include "src/common/bytes.h"
#include "src/common/rng.h"

namespace rc4b {
namespace {

// Widely published RC4 known-answer vectors.
TEST(Rc4Test, KeyPlaintextVector) {
  const Bytes key = FromString("Key");
  const Bytes plaintext = FromString("Plaintext");
  Rc4 rc4(key);
  Bytes ciphertext(plaintext.size());
  rc4.Process(plaintext, ciphertext);
  EXPECT_EQ(ToHex(ciphertext), "bbf316e8d940af0ad3");
}

TEST(Rc4Test, WikiVector) {
  const Bytes key = FromString("Wiki");
  const Bytes plaintext = FromString("pedia");
  Rc4 rc4(key);
  Bytes ciphertext(plaintext.size());
  rc4.Process(plaintext, ciphertext);
  EXPECT_EQ(ToHex(ciphertext), "1021bf0420");
}

TEST(Rc4Test, SecretVector) {
  const Bytes key = FromString("Secret");
  const Bytes plaintext = FromString("Attack at dawn");
  Rc4 rc4(key);
  Bytes ciphertext(plaintext.size());
  rc4.Process(plaintext, ciphertext);
  EXPECT_EQ(ToHex(ciphertext), "45a01f645fc35b383552544b9bf5");
}

// RFC 6229 keystream vector, offset 0.
TEST(Rc4Test, Rfc6229Key128Bit) {
  const Bytes key = FromHex("0102030405060708090a0b0c0d0e0f10");
  Rc4 rc4(key);
  Bytes keystream(16);
  rc4.Keystream(keystream);
  EXPECT_EQ(ToHex(keystream), "9ac7cc9a609d1ef7b2932899cde41b97");
}

TEST(Rc4Test, EncryptDecryptRoundTrip) {
  Xoshiro256 rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    Bytes key(16);
    rng.Fill(key);
    Bytes plaintext(100 + trial);
    rng.Fill(plaintext);

    Rc4 enc(key);
    Bytes ciphertext(plaintext.size());
    enc.Process(plaintext, ciphertext);

    Rc4 dec(key);
    Bytes decrypted(ciphertext.size());
    dec.Process(ciphertext, decrypted);
    EXPECT_EQ(decrypted, plaintext);
  }
}

TEST(Rc4Test, SkipMatchesDiscardedPrefix) {
  const Bytes key = FromHex("0102030405060708090a0b0c0d0e0f10");
  Rc4 a(key);
  Bytes full(300);
  a.Keystream(full);

  Rc4 b(key);
  b.Skip(257);
  Bytes tail(43);
  b.Keystream(tail);
  EXPECT_EQ(Bytes(full.begin() + 257, full.end()), tail);
}

TEST(Rc4Test, StateIsAlwaysPermutation) {
  Xoshiro256 rng(2);
  Bytes key(16);
  rng.Fill(key);
  Rc4 rc4(key);
  rc4.Skip(1000);
  std::array<int, 256> seen{};
  for (uint8_t v : rc4.State()) {
    ++seen[v];
  }
  for (int i = 0; i < 256; ++i) {
    EXPECT_EQ(seen[i], 1);
  }
}

TEST(Rc4Test, CounterIWrapsMod256) {
  const Bytes key = FromString("counter");
  Rc4 rc4(key);
  EXPECT_EQ(rc4.CounterI(), 0);
  rc4.Next();
  EXPECT_EQ(rc4.CounterI(), 1);
  rc4.Skip(254);
  EXPECT_EQ(rc4.CounterI(), 255);
  rc4.Next();
  EXPECT_EQ(rc4.CounterI(), 0);
}

TEST(Rc4Test, ShortAndRepeatedKeyEquivalence) {
  // The KSA cycles the key; a key repeated to 256 bytes behaves identically.
  const Bytes key = FromString("abcd");
  Bytes repeated;
  for (int i = 0; i < 64; ++i) {
    repeated.insert(repeated.end(), key.begin(), key.end());
  }
  Rc4 a(key);
  Rc4 b(repeated);
  Bytes ka(64), kb(64);
  a.Keystream(ka);
  b.Keystream(kb);
  EXPECT_EQ(ka, kb);
}

// The Mantin–Shamir bias: Pr[Z2 = 0] ~ 2/256, twice uniform. A smoke-scale
// statistical property test of the cipher itself (Sect. 2.1.1 of the paper).
TEST(Rc4Test, MantinShamirZ2Bias) {
  Xoshiro256 rng(3);
  const int keys = 1 << 17;
  int z2_zero = 0;
  Bytes key(16);
  for (int k = 0; k < keys; ++k) {
    rng.Fill(key);
    Rc4 rc4(key);
    rc4.Next();
    z2_zero += rc4.Next() == 0 ? 1 : 0;
  }
  const double rate = static_cast<double>(z2_zero) / keys;
  // Expect ~2/256 = 0.0078; uniform would be 0.0039. 6-sigma band ~ 0.0015.
  EXPECT_GT(rate, 0.0062);
  EXPECT_LT(rate, 0.0095);
}

TEST(Rc4DeathTest, KeySizeOutsideOneTo256Aborts) {
  const Bytes empty;
  const Bytes too_long(257);
  EXPECT_DEATH(Rc4{empty}, "Rc4: got a 0-byte key");
  EXPECT_DEATH(Rc4{too_long}, "Rc4: got a 257-byte key");
}

}  // namespace
}  // namespace rc4b
