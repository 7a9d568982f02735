#include <cmath>
#include "src/rc4/keygen.h"

#include <set>

#include <gtest/gtest.h>

#include "src/common/bytes.h"

namespace rc4b {
namespace {

TEST(KeygenTest, Deterministic) {
  Rc4KeyGenerator a(1);
  Rc4KeyGenerator b(1);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(a.NextKey(), b.NextKey());
  }
}

TEST(KeygenTest, DifferentWorkersIndependent) {
  Rc4KeyGenerator a(1);
  Rc4KeyGenerator b(2);
  int equal = 0;
  for (int i = 0; i < 32; ++i) {
    equal += a.NextKey() == b.NextKey() ? 1 : 0;
  }
  EXPECT_EQ(equal, 0);
}

TEST(KeygenTest, KeysAreDistinct) {
  Rc4KeyGenerator gen(7);
  std::set<std::string> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto key = gen.NextKey();
    seen.insert(ToHex(key));
  }
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(KeygenTest, SeekReproducesStream) {
  Rc4KeyGenerator a(3);
  std::vector<std::array<uint8_t, 16>> keys;
  for (int i = 0; i < 10; ++i) {
    keys.push_back(a.NextKey());
  }
  Rc4KeyGenerator b(3);
  b.Seek(5);
  EXPECT_EQ(b.NextKey(), keys[5]);
  EXPECT_EQ(b.NextKey(), keys[6]);
  b.Seek(0);
  EXPECT_EQ(b.NextKey(), keys[0]);
}

TEST(KeygenTest, KeyBytesLookUniform) {
  // Cheap sanity check on the AES-CTR construction: byte histogram over many
  // keys should be flat to within a few sigma.
  Rc4KeyGenerator gen(11);
  std::array<int, 256> counts{};
  const int keys = 4096;
  for (int i = 0; i < keys; ++i) {
    for (uint8_t b : gen.NextKey()) {
      ++counts[b];
    }
  }
  const double expected = keys * 16.0 / 256.0;  // 256 per value
  for (int v = 0; v < 256; ++v) {
    EXPECT_NEAR(counts[v], expected, 6 * std::sqrt(expected)) << "value " << v;
  }
}

// NextKeys hands out the same keys as repeated NextKey, for one lane group
// and for a group plus a tail, starting from an odd Seek.
TEST(KeygenTest, NextKeysMatchesNextKey) {
  for (size_t count : {size_t{8}, size_t{13}}) {
    Rc4KeyGenerator one(5);
    one.Seek(1001);
    Bytes want;
    for (size_t k = 0; k < count; ++k) {
      const auto key = one.NextKey();
      want.insert(want.end(), key.begin(), key.end());
    }
    Rc4KeyGenerator bulk(5);
    bulk.Seek(1001);
    Bytes got(count * Rc4KeyGenerator::kRc4KeySize);
    bulk.NextKeys(got);
    EXPECT_EQ(got, want) << count << " keys";
    EXPECT_EQ(bulk.NextKey(), one.NextKey()) << "after " << count << " keys";
  }
}

TEST(KeygenDeathTest, NextKeysRejectsPartialKey) {
  Rc4KeyGenerator gen(1);
  Bytes out(20);
  EXPECT_DEATH(gen.NextKeys(out), "20 bytes are not whole 16-byte keys");
}

}  // namespace
}  // namespace rc4b
