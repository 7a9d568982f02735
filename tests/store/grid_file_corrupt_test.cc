// Regression tests for crafted (not merely bit-flipped) grid files.
//
// These inputs were found by the tests/fuzz/fuzz_grid_file harness: header
// length fields are attacker-controlled u64s, and unchecked arithmetic on
// them used to wrap past the bounds checks and drive std::span::subspan out
// of the mapped file (or std::vector::reserve into std::length_error). A
// reader of untrusted files must reject every such input loudly instead.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/crypto/crc32.h"
#include "src/store/grid_file.h"

namespace rc4b::store {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

void PutU64(std::string& out, uint64_t v) {
  char bytes[sizeof(v)];
  std::memcpy(bytes, &v, sizeof(v));
  out.append(bytes, sizeof(v));
}

uint32_t CrcOf(const std::string& section) {
  return Crc32(std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(section.data()), section.size()));
}

// Header + meta + padding + cells, with every length field caller-chosen.
std::string BuildFile(uint64_t meta_bytes, const std::string& meta_section,
                      uint64_t cells_offset, uint64_t cells_bytes,
                      size_t file_size) {
  std::string out;
  PutU64(out, kGridFileMagic);
  PutU64(out, kGridFormatVersion);
  PutU64(out, meta_bytes);
  PutU64(out, CrcOf(meta_section));
  PutU64(out, cells_offset);
  PutU64(out, cells_bytes);
  PutU64(out, CrcOf(std::string()));  // cells CRC for an empty cells section
  out += meta_section;
  out.resize(file_size, '\0');
  return out;
}

void ExpectRejected(const std::string& path, const std::string& contents,
                    const char* needle) {
  ASSERT_TRUE(WriteFileAtomic(path, contents).ok());
  GridFileView view;
  IoStatus status = view.Open(path);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find(needle), std::string::npos)
      << status.message();

  StoredGrid loaded;
  status = ReadGridFile(path, &loaded);
  EXPECT_FALSE(status.ok());
  std::remove(path.c_str());
}

// A meta_bytes near 2^64 used to wrap the `cells_offset < header +
// meta_bytes` check (56 + (2^64 - 16) == 40) and then subspan(56, 2^64 - 16)
// read far past the mapped file while checksumming the "meta section".
// (Exactly 2^64 - 1 is std::dynamic_extent, which subspan silently clamps —
// any other wrapping value walks off the mapping.)
TEST(GridFileCorruptTest, HugeMetaBytesIsRejectedNotOverread) {
  const std::string contents =
      BuildFile(UINT64_MAX - 15, std::string(), /*cells_offset=*/4096,
                /*cells_bytes=*/0, /*file_size=*/4096);
  ExpectRejected(TempPath("huge-meta.grid"), contents, "meta section");
}

// A meta_bytes that wraps to a small value the other way: header + meta_bytes
// stays representable but exceeds the file, which must be a loud truncation
// error, never a subspan past the end.
TEST(GridFileCorruptTest, MetaBytesPastEndIsRejected) {
  const std::string contents =
      BuildFile(/*meta_bytes=*/1 << 20, std::string(), /*cells_offset=*/4096,
                /*cells_bytes=*/0, /*file_size=*/4096);
  ExpectRejected(TempPath("meta-past-end.grid"), contents, "meta section");
}

// pair_count = 2^61 makes (10 + 2 * pair_count) * 8 wrap to exactly 80 — the
// size of a pairless meta section — so the "expected size" check used to
// pass and pairs.reserve(2^61) threw std::length_error out of the parser
// (and, had the allocation succeeded, the loop would have read 2^61 pairs
// from an 80-byte section).
TEST(GridFileCorruptTest, HugePairCountIsRejectedNotOverread) {
  std::string meta;
  PutU64(meta, 3);  // GridKind::kPair
  PutU64(meta, 11);           // seed
  PutU64(meta, 0);            // key_begin
  PutU64(meta, 512);          // key_end
  PutU64(meta, 2);            // rows
  PutU64(meta, 0);            // drop
  PutU64(meta, 0);            // interleave
  PutU64(meta, 0);            // bytes_per_key
  PutU64(meta, 0);            // samples
  PutU64(meta, uint64_t{1} << 61);  // pair_count
  ASSERT_EQ(meta.size(), 80u);
  const std::string contents = BuildFile(meta.size(), meta,
                                         /*cells_offset=*/136,
                                         /*cells_bytes=*/0, /*file_size=*/136);
  ExpectRejected(TempPath("huge-pairs.grid"), contents, "pair");
}

// The boring variant (pair_count large but arithmetic in range) must keep
// its precise pre-existing diagnostic.
TEST(GridFileCorruptTest, OversizedPairCountKeepsSizeDiagnostic) {
  std::string meta;
  PutU64(meta, 3);
  for (int field = 0; field < 8; ++field) {
    PutU64(meta, 1);
  }
  PutU64(meta, 1000);  // pair_count: needs 16080 bytes, section has 80
  const std::string contents = BuildFile(meta.size(), meta,
                                         /*cells_offset=*/136,
                                         /*cells_bytes=*/0, /*file_size=*/136);
  ExpectRejected(TempPath("big-pairs.grid"), contents, "pair");
}

// Each CRC is stored as a u64 header word whose upper 32 bits are zero. The
// reader used to truncate the word before comparing, so garbage in bytes
// 28-31 (meta CRC) or 52-55 (cells CRC) opened as a valid grid.
TEST(GridFileCorruptTest, NonzeroUpperCrcBitsAreRejected) {
  GridMeta meta;
  meta.kind = GridKind::kSingleByte;
  meta.seed = 11;
  meta.key_end = 512;
  meta.rows = 2;
  const std::vector<uint64_t> cells(meta.cell_count(), 7);
  const std::string path = TempPath("upper-crc.grid");
  ASSERT_TRUE(WriteGridFile(path, meta, cells).ok());
  std::string valid;
  {
    std::ifstream in(path, std::ios::binary);
    valid.assign(std::istreambuf_iterator<char>(in), {});
  }
  GridFileView view;
  ASSERT_TRUE(view.Open(path).ok());

  for (const size_t word : {size_t{3}, size_t{6}}) {  // meta CRC, cells CRC
    SCOPED_TRACE(word);
    std::string contents = valid;
    uint64_t crc = 0;
    std::memcpy(&crc, contents.data() + word * sizeof(crc), sizeof(crc));
    crc |= uint64_t{0x5a} << 40;
    std::memcpy(contents.data() + word * sizeof(crc), &crc, sizeof(crc));
    ExpectRejected(path, contents, "checksum mismatch");
  }
}

}  // namespace
}  // namespace rc4b::store
