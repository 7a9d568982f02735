#include "src/crypto/sha1.h"

#include <cstring>

namespace rc4b {

void Sha1::Reset() {
  h_[0] = 0x67452301;
  h_[1] = 0xefcdab89;
  h_[2] = 0x98badcfe;
  h_[3] = 0x10325476;
  h_[4] = 0xc3d2e1f0;
  total_bytes_ = 0;
  buffered_ = 0;
}

void Sha1::ProcessBlock(const uint8_t block[kBlockSize]) {
  uint32_t w[80];
  for (int t = 0; t < 16; ++t) {
    w[t] = LoadBe32(block + 4 * t);
  }
  for (int t = 16; t < 80; ++t) {
    w[t] = Rotl32(w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16], 1);
  }
  uint32_t a = h_[0], b = h_[1], c = h_[2], d = h_[3], e = h_[4];
  for (int t = 0; t < 80; ++t) {
    uint32_t f;
    uint32_t k;
    if (t < 20) {
      f = (b & c) | (~b & d);
      k = 0x5a827999;
    } else if (t < 40) {
      f = b ^ c ^ d;
      k = 0x6ed9eba1;
    } else if (t < 60) {
      f = (b & c) | (b & d) | (c & d);
      k = 0x8f1bbcdc;
    } else {
      f = b ^ c ^ d;
      k = 0xca62c1d6;
    }
    const uint32_t temp = Rotl32(a, 5) + f + e + k + w[t];
    e = d;
    d = c;
    c = Rotl32(b, 30);
    b = a;
    a = temp;
  }
  h_[0] += a;
  h_[1] += b;
  h_[2] += c;
  h_[3] += d;
  h_[4] += e;
}

void Sha1::Update(std::span<const uint8_t> data) {
  if (data.empty()) {
    return;  // an empty span may carry a null data(), which memcpy rejects
  }
  total_bytes_ += data.size();
  size_t i = 0;
  if (buffered_ > 0) {
    const size_t take = std::min(kBlockSize - buffered_, data.size());
    std::memcpy(buffer_ + buffered_, data.data(), take);
    buffered_ += take;
    i = take;
    if (buffered_ == kBlockSize) {
      ProcessBlock(buffer_);
      buffered_ = 0;
    }
  }
  while (i + kBlockSize <= data.size()) {
    ProcessBlock(data.data() + i);
    i += kBlockSize;
  }
  if (i < data.size()) {
    std::memcpy(buffer_, data.data() + i, data.size() - i);
    buffered_ = data.size() - i;
  }
}

std::array<uint8_t, Sha1::kDigestSize> Sha1::Finish() {
  const uint64_t bit_length = total_bytes_ * 8;
  const uint8_t pad_byte = 0x80;
  Update(std::span<const uint8_t>(&pad_byte, 1));
  static constexpr uint8_t kZeros[kBlockSize] = {};
  while (buffered_ != kBlockSize - 8) {
    const size_t gap = buffered_ < kBlockSize - 8 ? (kBlockSize - 8) - buffered_
                                                  : kBlockSize - buffered_;
    Update(std::span<const uint8_t>(kZeros, gap));
  }
  uint8_t length_be[8];
  StoreBe64(bit_length, length_be);
  Update(length_be);
  std::array<uint8_t, kDigestSize> out;
  for (int i = 0; i < 5; ++i) {
    StoreBe32(h_[i], out.data() + 4 * i);
  }
  Reset();
  return out;
}

std::array<uint8_t, Sha1::kDigestSize> Sha1::Digest(std::span<const uint8_t> data) {
  Sha1 h;
  h.Update(data);
  return h.Finish();
}

}  // namespace rc4b
