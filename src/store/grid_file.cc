#include "src/store/grid_file.h"

#include <cstring>

#include "src/crypto/crc32.h"

namespace rc4b::store {

namespace {

constexpr size_t kHeaderBytes = 56;
constexpr size_t kCellsAlignment = 4096;

// Fixed u64 meta fields before the variable-length pair list.
constexpr size_t kMetaFixedFields = 10;

uint32_t SectionCrc(std::span<const uint8_t> bytes) { return Crc32(bytes); }

std::span<const uint8_t> AsBytes(std::span<const uint64_t> cells) {
  return std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(cells.data()),
                                  cells.size_bytes());
}

void PutU64(std::vector<uint8_t>& out, uint64_t v) {
  const size_t at = out.size();
  out.resize(at + sizeof(v));
  std::memcpy(out.data() + at, &v, sizeof(v));
}

uint64_t GetU64(std::span<const uint8_t> bytes, size_t index) {
  uint64_t v = 0;
  std::memcpy(&v, bytes.data() + index * sizeof(v), sizeof(v));
  return v;
}

std::vector<uint8_t> SerializeMeta(const GridMeta& meta) {
  std::vector<uint8_t> out;
  out.reserve((kMetaFixedFields + 2 * meta.pairs.size()) * sizeof(uint64_t));
  PutU64(out, static_cast<uint64_t>(meta.kind));
  PutU64(out, meta.seed);
  PutU64(out, meta.key_begin);
  PutU64(out, meta.key_end);
  PutU64(out, meta.rows);
  PutU64(out, meta.drop);
  PutU64(out, meta.interleave);
  PutU64(out, meta.bytes_per_key);
  PutU64(out, meta.samples);
  PutU64(out, meta.pairs.size());
  for (const auto& [a, b] : meta.pairs) {
    PutU64(out, a);
    PutU64(out, b);
  }
  return out;
}

IoStatus ParseMeta(std::span<const uint8_t> bytes, const std::string& path,
                   GridMeta* out) {
  if (bytes.size() < kMetaFixedFields * sizeof(uint64_t) ||
      bytes.size() % sizeof(uint64_t) != 0) {
    return IoStatus::Fail(path + ": meta section has invalid size " +
                          std::to_string(bytes.size()));
  }
  const uint64_t kind = GetU64(bytes, 0);
  if (kind < 1 || kind > 4) {
    return IoStatus::Fail(path + ": unknown grid kind " + std::to_string(kind));
  }
  out->kind = static_cast<GridKind>(kind);
  out->seed = GetU64(bytes, 1);
  out->key_begin = GetU64(bytes, 2);
  out->key_end = GetU64(bytes, 3);
  out->rows = GetU64(bytes, 4);
  out->drop = GetU64(bytes, 5);
  out->interleave = GetU64(bytes, 6);
  out->bytes_per_key = GetU64(bytes, 7);
  out->samples = GetU64(bytes, 8);
  const uint64_t pair_count = GetU64(bytes, 9);
  // Bound pair_count by what the section could possibly hold before any
  // arithmetic on it: (10 + 2 * pair_count) * 8 wraps for pair_count near a
  // multiple of 2^61, which used to slip a huge count past the size check
  // below and into reserve()/GetU64() (tests/store/grid_file_corrupt_test.cc).
  const uint64_t max_pairs =
      (bytes.size() - kMetaFixedFields * sizeof(uint64_t)) /
      (2 * sizeof(uint64_t));
  if (pair_count > max_pairs) {
    return IoStatus::Fail(path + ": pair count " + std::to_string(pair_count) +
                          " cannot fit the meta section (" +
                          std::to_string(bytes.size()) + " bytes)");
  }
  const uint64_t expected =
      (kMetaFixedFields + 2 * pair_count) * sizeof(uint64_t);
  if (bytes.size() != expected) {
    return IoStatus::Fail(path + ": meta section is " +
                          std::to_string(bytes.size()) + " bytes, expected " +
                          std::to_string(expected) + " for " +
                          std::to_string(pair_count) + " pairs");
  }
  out->pairs.clear();
  out->pairs.reserve(pair_count);
  for (uint64_t p = 0; p < pair_count; ++p) {
    const uint64_t a = GetU64(bytes, kMetaFixedFields + 2 * p);
    const uint64_t b = GetU64(bytes, kMetaFixedFields + 2 * p + 1);
    if (a > UINT32_MAX || b > UINT32_MAX) {
      return IoStatus::Fail(path + ": pair " + std::to_string(p) +
                            " out of range");
    }
    out->pairs.emplace_back(static_cast<uint32_t>(a), static_cast<uint32_t>(b));
  }
  return ValidateMeta(*out, path);
}

// Shared by the copying reader and the mmap view: validates the whole image
// and returns the parsed meta plus a span over the cells section.
IoStatus ParseGridImage(std::span<const uint8_t> bytes, const std::string& path,
                        GridMeta* meta, std::span<const uint64_t>* cells) {
  if (bytes.size() < kHeaderBytes) {
    return IoStatus::Fail(path + ": truncated grid file (" +
                          std::to_string(bytes.size()) +
                          " bytes, header needs " +
                          std::to_string(kHeaderBytes) + ")");
  }
  if (GetU64(bytes, 0) != kGridFileMagic) {
    return IoStatus::Fail(path + ": not a grid file (bad magic)");
  }
  const uint64_t version = GetU64(bytes, 1);
  if (version != kGridFormatVersion) {
    return IoStatus::Fail(path + ": unsupported grid format version " +
                          std::to_string(version) + " (this build reads " +
                          std::to_string(kGridFormatVersion) + ")");
  }
  const uint64_t meta_bytes = GetU64(bytes, 2);
  const uint64_t meta_crc = GetU64(bytes, 3);
  const uint64_t cells_offset = GetU64(bytes, 4);
  const uint64_t cells_bytes = GetU64(bytes, 5);
  const uint64_t cells_crc = GetU64(bytes, 6);
  // Every length below is untrusted; compare by subtraction only. A
  // meta_bytes near 2^64 used to wrap `kHeaderBytes + meta_bytes` past the
  // cells_offset check and send subspan() off the end of the mapping
  // (tests/store/grid_file_corrupt_test.cc).
  if (meta_bytes > bytes.size() - kHeaderBytes) {
    return IoStatus::Fail(path + ": meta section of " +
                          std::to_string(meta_bytes) +
                          " bytes exceeds the file (" +
                          std::to_string(bytes.size()) + " bytes)");
  }
  if (cells_offset % sizeof(uint64_t) != 0 ||
      cells_offset < kHeaderBytes + meta_bytes ||
      cells_offset > bytes.size()) {
    return IoStatus::Fail(path + ": corrupt header (cells_offset " +
                          std::to_string(cells_offset) + ", meta_bytes " +
                          std::to_string(meta_bytes) + ")");
  }
  if (bytes.size() != cells_offset + cells_bytes) {
    return IoStatus::Fail(path + ": truncated grid file (" +
                          std::to_string(bytes.size()) +
                          " bytes, header promises " +
                          std::to_string(cells_offset + cells_bytes) + ")");
  }
  const auto meta_section = bytes.subspan(kHeaderBytes, meta_bytes);
  if (SectionCrc(meta_section) != meta_crc) {
    return IoStatus::Fail(path + ": meta section checksum mismatch");
  }
  const auto cells_section = bytes.subspan(cells_offset, cells_bytes);
  if (SectionCrc(cells_section) != cells_crc) {
    return IoStatus::Fail(path + ": cells section checksum mismatch");
  }
  if (IoStatus status = ParseMeta(meta_section, path, meta); !status.ok()) {
    return status;
  }
  if (cells_bytes != meta->cell_count() * sizeof(uint64_t)) {
    return IoStatus::Fail(
        path + ": cells section is " + std::to_string(cells_bytes) +
        " bytes, meta describes " +
        std::to_string(meta->cell_count() * sizeof(uint64_t)));
  }
  *cells = std::span<const uint64_t>(
      reinterpret_cast<const uint64_t*>(cells_section.data()),
      cells_bytes / sizeof(uint64_t));
  return IoStatus::Ok();
}

}  // namespace

size_t CellsPerRow(GridKind kind) {
  return kind == GridKind::kSingleByte ? 256 : 65536;
}

const char* GridKindName(GridKind kind) {
  switch (kind) {
    case GridKind::kSingleByte:
      return "singlebyte";
    case GridKind::kConsecutive:
      return "consecutive";
    case GridKind::kPair:
      return "pair";
    case GridKind::kLongTermDigraph:
      return "longterm-digraph";
  }
  return "unknown";
}

bool ParseGridKind(std::string_view name, GridKind* out) {
  for (const GridKind kind :
       {GridKind::kSingleByte, GridKind::kConsecutive, GridKind::kPair,
        GridKind::kLongTermDigraph}) {
    if (name == GridKindName(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

IoStatus ValidateMeta(const GridMeta& meta, const std::string& context) {
  if (meta.rows == 0) {
    return IoStatus::Fail(context + ": grid has zero rows");
  }
  if (meta.key_begin >= meta.key_end) {
    return IoStatus::Fail(context + ": empty key range [" +
                          std::to_string(meta.key_begin) + ", " +
                          std::to_string(meta.key_end) + ")");
  }
  if (meta.kind == GridKind::kPair) {
    if (meta.pairs.size() != meta.rows) {
      return IoStatus::Fail(context + ": pair grid has " +
                            std::to_string(meta.rows) + " rows but " +
                            std::to_string(meta.pairs.size()) + " pairs");
    }
    // Keystream positions are 1-based and each pair is read as (Z_a, Z_b)
    // with a < b; anything else would index outside the generated rows.
    for (const auto& [a, b] : meta.pairs) {
      if (a < 1 || a >= b) {
        return IoStatus::Fail(context + ": bad position pair " +
                              std::to_string(a) + ":" + std::to_string(b) +
                              " (need 1 <= a < b)");
      }
    }
  } else if (!meta.pairs.empty()) {
    return IoStatus::Fail(context + ": non-pair grid carries a pair list");
  }
  if (meta.kind == GridKind::kLongTermDigraph) {
    if (meta.bytes_per_key == 0) {
      return IoStatus::Fail(context + ": long-term grid without bytes_per_key");
    }
    // One row per PRGA counter class; the accumulator writes all 256.
    if (meta.rows != 256) {
      return IoStatus::Fail(context + ": long-term grid with " +
                            std::to_string(meta.rows) + " rows (must be 256)");
    }
    // Rows are (r - 1) mod 256 only when every key's first counted byte
    // sits at a 256-byte boundary of its keystream.
    if (meta.drop % 256 != 0) {
      return IoStatus::Fail(context + ": long-term grid with drop " +
                            std::to_string(meta.drop) +
                            " (must be a multiple of 256)");
    }
  }
  return IoStatus::Ok();
}

IoStatus CheckSameDataset(const GridMeta& want, const GridMeta& got,
                          const std::string& context) {
  const auto mismatch = [&](const char* field, uint64_t a, uint64_t b) {
    return IoStatus::Fail(context + ": " + field + " mismatch (expected " +
                          std::to_string(a) + ", found " + std::to_string(b) +
                          ")");
  };
  if (want.kind != got.kind) {
    return IoStatus::Fail(context + ": generator kind mismatch (expected " +
                          GridKindName(want.kind) + ", found " +
                          GridKindName(got.kind) + ")");
  }
  if (want.seed != got.seed) {
    return mismatch("seed", want.seed, got.seed);
  }
  if (want.rows != got.rows) {
    return mismatch("rows", want.rows, got.rows);
  }
  if (want.drop != got.drop) {
    return mismatch("drop", want.drop, got.drop);
  }
  if (want.bytes_per_key != got.bytes_per_key) {
    return mismatch("bytes_per_key", want.bytes_per_key, got.bytes_per_key);
  }
  if (want.pairs != got.pairs) {
    return IoStatus::Fail(context + ": position-pair list mismatch");
  }
  return IoStatus::Ok();
}

IoStatus CheckSlice(const GridMeta& want, const GridMeta& got, Coverage coverage,
                    const std::string& context) {
  if (IoStatus status = CheckSameDataset(want, got, context); !status.ok()) {
    return status;
  }
  const bool ends_ok = coverage == Coverage::kExact ? got.key_end == want.key_end
                                                    : got.key_end <= want.key_end;
  if (got.key_begin != want.key_begin || !ends_ok) {
    return IoStatus::Fail(context + ": covers keys [" + std::to_string(got.key_begin) +
                          ", " + std::to_string(got.key_end) +
                          ") but the manifest assigns [" +
                          std::to_string(want.key_begin) + ", " +
                          std::to_string(want.key_end) + ")" +
                          (coverage == Coverage::kPrefix ? " or a prefix of it" : ""));
  }
  return IoStatus::Ok();
}

namespace {

IoStatus WriteGridFileImpl(const std::string& path, const GridMeta& meta,
                           std::span<const uint64_t> cells, bool durable) {
  if (IoStatus status = ValidateMeta(meta, path); !status.ok()) {
    return status;
  }
  if (cells.size() != meta.cell_count()) {
    return IoStatus::Fail(path + ": meta describes " +
                          std::to_string(meta.cell_count()) +
                          " cells, caller passed " +
                          std::to_string(cells.size()));
  }
  const std::vector<uint8_t> meta_section = SerializeMeta(meta);
  const uint64_t cells_offset =
      (kHeaderBytes + meta_section.size() + kCellsAlignment - 1) /
      kCellsAlignment * kCellsAlignment;
  BinaryWriter writer(path);
  writer.WriteU64(kGridFileMagic);
  writer.WriteU64(kGridFormatVersion);
  writer.WriteU64(meta_section.size());
  writer.WriteU64(SectionCrc(meta_section));
  writer.WriteU64(cells_offset);
  writer.WriteU64(cells.size_bytes());
  writer.WriteU64(SectionCrc(AsBytes(cells)));
  writer.WriteBytes(meta_section);
  const std::vector<uint8_t> padding(
      cells_offset - kHeaderBytes - meta_section.size(), 0);
  writer.WriteBytes(padding);
  writer.WriteU64s(cells);
  return durable ? writer.CommitDurable() : writer.Commit();
}

}  // namespace

IoStatus WriteGridFile(const std::string& path, const GridMeta& meta,
                       std::span<const uint64_t> cells) {
  return WriteGridFileImpl(path, meta, cells, /*durable=*/false);
}

IoStatus WriteGridFileDurable(const std::string& path, const GridMeta& meta,
                              std::span<const uint64_t> cells) {
  return WriteGridFileImpl(path, meta, cells, /*durable=*/true);
}

IoStatus ReadGridFile(const std::string& path, StoredGrid* out) {
  MmapFile map;
  if (IoStatus status = MmapFile::Open(path, &map); !status.ok()) {
    return status;
  }
  std::span<const uint64_t> cells;
  if (IoStatus status = ParseGridImage(map.bytes(), path, &out->meta, &cells);
      !status.ok()) {
    return status;
  }
  out->cells.assign(cells.begin(), cells.end());
  return IoStatus::Ok();
}

IoStatus GridFileView::Open(const std::string& path) {
  if (IoStatus status = MmapFile::Open(path, &map_); !status.ok()) {
    return status;
  }
  return ParseGridImage(map_.bytes(), path, &meta_, &cells_);
}

IoStatus GridFileView::OpenSlice(const std::string& path, const GridMeta& want,
                                 Coverage coverage) {
  if (IoStatus status = Open(path); !status.ok()) {
    return status;
  }
  return CheckSlice(want, meta_, coverage, path);
}

SingleByteGrid ToSingleByteGrid(StoredGrid stored) {
  return SingleByteGrid(std::move(stored.cells), stored.meta.samples);
}

DigraphGrid ToDigraphGrid(StoredGrid stored) {
  return DigraphGrid(std::move(stored.cells), stored.meta.samples);
}

}  // namespace rc4b::store
