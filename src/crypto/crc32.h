// CRC-32 (IEEE 802.3 polynomial, reflected) — the TKIP Integrity Check Value
// and the per-section checksum of every grid file (src/store/grid_file.h).
//
// The attack in Sect. 5.3 prunes plaintext candidates by recomputing this CRC
// over the decrypted packet and comparing it to the decrypted ICV field. The
// store checksums every shard, checkpoint and merged grid it writes or opens.
//
// Slicing-by-8 (Kounavis & Berry, 2005): eight 256-entry tables, one 8-byte
// step per iteration read with LoadLe32, and a byte-wise tail through t[0].
#ifndef SRC_CRYPTO_CRC32_H_
#define SRC_CRYPTO_CRC32_H_

#include <cstdint>
#include <span>

namespace rc4b {

// Standard CRC-32: init 0xffffffff, reflected polynomial 0xedb88320, final
// XOR 0xffffffff. Crc32("123456789") == 0xcbf43926.
uint32_t Crc32(std::span<const uint8_t> data);

// Streaming form: pass the previous return value as `state`; start with
// Crc32Init() and finish with Crc32Final().
uint32_t Crc32Init();
uint32_t Crc32Update(uint32_t state, std::span<const uint8_t> data);
uint32_t Crc32Final(uint32_t state);

}  // namespace rc4b

#endif  // SRC_CRYPTO_CRC32_H_
