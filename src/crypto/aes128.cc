#include "src/crypto/aes128.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace rc4b {

namespace {

uint8_t GfMul(uint8_t a, uint8_t b) {
  uint8_t p = 0;
  while (b != 0) {
    if (b & 1) {
      p = static_cast<uint8_t>(p ^ a);
    }
    const bool hi = (a & 0x80) != 0;
    a = static_cast<uint8_t>(a << 1);
    if (hi) {
      a = static_cast<uint8_t>(a ^ 0x1b);  // AES irreducible polynomial x^8+x^4+x^3+x+1
    }
    b >>= 1;
  }
  return p;
}

// Computes the S-box from the field inverse and affine map instead of
// embedding a 256-entry literal; verified against FIPS-197 vectors in tests.
std::array<uint8_t, 256> BuildSBox() {
  std::array<uint8_t, 256> inv{};
  for (int a = 1; a < 256; ++a) {
    for (int b = 1; b < 256; ++b) {
      if (GfMul(static_cast<uint8_t>(a), static_cast<uint8_t>(b)) == 1) {
        inv[a] = static_cast<uint8_t>(b);
        break;
      }
    }
  }
  std::array<uint8_t, 256> sbox{};
  for (int i = 0; i < 256; ++i) {
    uint8_t x = inv[i];
    uint8_t y = x;
    for (int r = 0; r < 4; ++r) {
      y = static_cast<uint8_t>((y << 1) | (y >> 7));
      x = static_cast<uint8_t>(x ^ y);
    }
    sbox[i] = static_cast<uint8_t>(x ^ 0x63);
  }
  return sbox;
}

uint32_t SubWord(uint32_t w, const std::array<uint8_t, 256>& s) {
  return static_cast<uint32_t>(s[w >> 24]) << 24 |
         static_cast<uint32_t>(s[(w >> 16) & 0xff]) << 16 |
         static_cast<uint32_t>(s[(w >> 8) & 0xff]) << 8 |
         static_cast<uint32_t>(s[w & 0xff]);
}

uint32_t RotWord(uint32_t w) { return (w << 8) | (w >> 24); }

// Multiplication by x (i.e. by 2) in GF(2^8).
uint8_t XTime(uint8_t a) {
  return static_cast<uint8_t>((a << 1) ^ ((a & 0x80) != 0 ? 0x1b : 0));
}

#if defined(__x86_64__) || defined(__i386__)
// A counter block: bytes 0-7 are zero, bytes 8-15 hold the big-endian counter.
__attribute__((target("aes"))) inline __m128i CounterBlock(uint64_t counter) {
  return _mm_set_epi64x(static_cast<long long>(__builtin_bswap64(counter)), 0);
}

// The AES-NI path: eight counter blocks in flight per round, so the
// aesenc latency of one block hides behind the other seven (Gueron, "Intel
// Advanced Encryption Standard (AES) New Instructions Set", 2010), then one
// block at a time for the last blocks % 8. `round_keys` is the 176-byte
// byte-order schedule, which is what aesenc expects.
__attribute__((target("aes"))) void EncryptCounterBlocksAesNi(
    const uint8_t* round_keys, uint64_t counter, size_t blocks, uint8_t* out) {
  __m128i rk[11];
  for (size_t r = 0; r < 11; ++r) {
    rk[r] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(round_keys + 16 * r));
  }
  size_t b = 0;
  for (; b + 8 <= blocks; b += 8) {
    __m128i x[8];
    for (int k = 0; k < 8; ++k) {
      x[k] = _mm_xor_si128(CounterBlock(counter + b + k), rk[0]);
    }
    for (int r = 1; r < 10; ++r) {
      for (int k = 0; k < 8; ++k) {
        x[k] = _mm_aesenc_si128(x[k], rk[r]);
      }
    }
    for (int k = 0; k < 8; ++k) {
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 16 * (b + k)),
                       _mm_aesenclast_si128(x[k], rk[10]));
    }
  }
  for (; b < blocks; ++b) {
    __m128i x = _mm_xor_si128(CounterBlock(counter + b), rk[0]);
    for (int r = 1; r < 10; ++r) {
      x = _mm_aesenc_si128(x, rk[r]);
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 16 * b),
                     _mm_aesenclast_si128(x, rk[10]));
  }
}
#endif

}  // namespace

bool Aes128::UsesAesNi() {
#if defined(__x86_64__) || defined(__i386__)
  static const bool kAesNi = __builtin_cpu_supports("aes") != 0;
  return kAesNi;
#else
  return false;
#endif
}

const std::array<uint8_t, 256>& Aes128::SBox() {
  static const std::array<uint8_t, 256> kSBox = BuildSBox();
  return kSBox;
}

Aes128::Aes128(std::span<const uint8_t> key) {
  if (key.size() != kKeySize) {
    std::fprintf(stderr, "Aes128: got a %zu-byte key, AES-128 needs %zu bytes\n",
                 key.size(), kKeySize);
    std::abort();
  }
  const auto& sbox = SBox();
  std::array<uint32_t, 44> w;
  for (int i = 0; i < 4; ++i) {
    w[i] = LoadBe32(key.data() + 4 * i);
  }
  uint8_t rcon = 1;
  for (int i = 4; i < 44; ++i) {
    uint32_t temp = w[i - 1];
    if (i % 4 == 0) {
      temp = SubWord(RotWord(temp), sbox) ^ (static_cast<uint32_t>(rcon) << 24);
      rcon = GfMul(rcon, 2);
    }
    w[i] = w[i - 4] ^ temp;
  }
  for (size_t i = 0; i < 44; ++i) {
    StoreBe32(w[i], round_keys_.data() + 4 * i);
  }
}

void Aes128::EncryptBlock(const uint8_t in[kBlockSize], uint8_t out[kBlockSize]) const {
  const auto& sbox = SBox();
  uint8_t state[16];
  std::memcpy(state, in, 16);

  auto add_round_key = [&](size_t round) {
    for (size_t i = 0; i < 16; ++i) {
      state[i] ^= round_keys_[16 * round + i];
    }
  };
  auto sub_bytes = [&] {
    for (auto& b : state) {
      b = sbox[b];
    }
  };
  auto shift_rows = [&] {
    // Row r (bytes state[4c + r]) rotates left by r positions.
    uint8_t t = state[1];
    state[1] = state[5];
    state[5] = state[9];
    state[9] = state[13];
    state[13] = t;
    std::swap(state[2], state[10]);
    std::swap(state[6], state[14]);
    t = state[15];
    state[15] = state[11];
    state[11] = state[7];
    state[7] = state[3];
    state[3] = t;
  };
  auto mix_columns = [&] {
    for (int c = 0; c < 4; ++c) {
      uint8_t* col = state + 4 * c;
      const uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
      // 2a is XTime(a) and 3a is XTime(a) ^ a.
      const uint8_t d0 = XTime(a0), d1 = XTime(a1), d2 = XTime(a2), d3 = XTime(a3);
      col[0] = static_cast<uint8_t>(d0 ^ (d1 ^ a1) ^ a2 ^ a3);
      col[1] = static_cast<uint8_t>(a0 ^ d1 ^ (d2 ^ a2) ^ a3);
      col[2] = static_cast<uint8_t>(a0 ^ a1 ^ d2 ^ (d3 ^ a3));
      col[3] = static_cast<uint8_t>((d0 ^ a0) ^ a1 ^ a2 ^ d3);
    }
  };

  add_round_key(0);
  for (size_t round = 1; round <= 9; ++round) {
    sub_bytes();
    shift_rows();
    mix_columns();
    add_round_key(round);
  }
  sub_bytes();
  shift_rows();
  add_round_key(10);
  std::memcpy(out, state, 16);
}

void Aes128::EncryptCounterBlocks(uint64_t counter, size_t blocks, uint8_t* out) const {
#if defined(__x86_64__) || defined(__i386__)
  if (UsesAesNi()) {
    EncryptCounterBlocksAesNi(round_keys_.data(), counter, blocks, out);
    return;
  }
#endif
  uint8_t counter_block[kBlockSize] = {};
  for (size_t b = 0; b < blocks; ++b) {
    StoreBe64(counter + b, counter_block + 8);
    EncryptBlock(counter_block, out + kBlockSize * b);
  }
}

void Aes128Ctr::Generate(std::span<uint8_t> out) {
  // The tail of the last block first, then whole blocks straight into
  // `out`, then a final partial block through buffer_.
  const size_t drained = std::min(out.size(), buffered_);
  if (drained != 0) {
    std::memcpy(out.data(), buffer_.data() + (Aes128::kBlockSize - buffered_), drained);
    buffered_ -= drained;
  }
  uint8_t* next = out.data() + drained;
  const size_t rest = out.size() - drained;
  const size_t blocks = rest / Aes128::kBlockSize;
  aes_.EncryptCounterBlocks(counter_, blocks, next);
  counter_ += blocks;
  const size_t tail = rest % Aes128::kBlockSize;
  if (tail != 0) {
    aes_.EncryptCounterBlocks(counter_, 1, buffer_.data());
    ++counter_;
    std::memcpy(next + blocks * Aes128::kBlockSize, buffer_.data(), tail);
    buffered_ = Aes128::kBlockSize - tail;
  }
}

void Aes128Ctr::Seek(uint64_t block_index) {
  counter_ = block_index;
  buffered_ = 0;
}

}  // namespace rc4b
