// Versioned on-disk format for keystream-statistics grids (docs/store.md).
//
// The paper's empirical bias grids took ~2^44 keystreams across ~80 machines
// (Sect. 3.2); a durable grid format is what lets that scale of generation be
// split across processes and hosts, checkpointed, merged and cached instead
// of being recomputed in-process on every run. A grid file carries:
//
//   * full provenance — generator kind, AES-CTR seed, global key range
//     [key_begin, key_end), rows/pairs, drop, bytes-per-key, the lockstep
//     interleave width it was generated with (informational: counts are
//     bit-identical for every width), and the format version;
//   * the raw 64-bit counter cells of a SingleByteGrid / DigraphGrid,
//     page-aligned so readers can mmap the file and sum shards zero-copy;
//   * a CRC32 per section (header-described meta and cells, reusing
//     src/crypto/crc32), so corruption is always a loud, path-qualified
//     error — a flipped byte can never merge silently.
//
// Layout (little-endian, offsets in bytes):
//   [0]  u64 magic            "R4BGRID1"
//   [8]  u64 format_version   currently 1
//   [16] u64 meta_bytes       length of the meta section
//   [24] u64 meta_crc32       CRC32 of the meta section (low 32 bits)
//   [32] u64 cells_offset     4096-multiple; meta + padding end here
//   [40] u64 cells_bytes      8 * rows * cells-per-row
//   [48] u64 cells_crc32      CRC32 of the cells section (low 32 bits)
//   [56] meta section (u64 fields, see GridMeta), zero-padded to cells_offset
//   [cells_offset] u64 cells, row-major — exactly the grid's Cells() block
#ifndef SRC_STORE_GRID_FILE_H_
#define SRC_STORE_GRID_FILE_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/io.h"
#include "src/stats/counters.h"

namespace rc4b::store {

inline constexpr uint64_t kGridFileMagic = 0x3144495247423452ULL;  // "R4BGRID1"
inline constexpr uint64_t kGridFormatVersion = 1;

// The dataset families of src/biases/dataset.h that produce grids.
enum class GridKind : uint64_t {
  kSingleByte = 1,       // GenerateSingleByteDataset (rows x 256 cells)
  kConsecutive = 2,      // GenerateConsecutiveDataset (rows x 65536)
  kPair = 3,             // GeneratePairDataset (rows == pairs.size(), x 65536)
  kLongTermDigraph = 4,  // GenerateLongTermDigraphDataset (256 x 65536)
};

// Counter cells per grid row: 256 for single-byte grids, 65536 for digraphs.
size_t CellsPerRow(GridKind kind);

// Stable names used in manifests and cache file names ("singlebyte", ...).
const char* GridKindName(GridKind kind);
bool ParseGridKind(std::string_view name, GridKind* out);

// Full provenance of a grid: everything needed to regenerate it bit-exactly,
// and everything merge/caching must agree on before combining counts.
struct GridMeta {
  GridKind kind = GridKind::kSingleByte;
  uint64_t seed = 1;       // AES-CTR key-generator seed
  uint64_t key_begin = 0;  // global key range [key_begin, key_end)
  uint64_t key_end = 0;
  uint64_t rows = 0;          // grid positions (pairs.size() for kPair)
  uint64_t drop = 0;          // initial keystream bytes discarded per key
  uint64_t interleave = 0;    // lockstep width used (informational)
  uint64_t bytes_per_key = 0;  // long-term kinds only; 0 otherwise
  uint64_t samples = 0;        // grid.keys(): keys (short-term) or samples
  std::vector<std::pair<uint32_t, uint32_t>> pairs;  // kPair only

  uint64_t keys() const { return key_end - key_begin; }
  uint64_t cell_count() const { return rows * CellsPerRow(kind); }

  friend bool operator==(const GridMeta&, const GridMeta&) = default;
};

// Internal consistency: nonzero rows, ordered key range, pairs iff kPair,
// and every pair (a, b) satisfies 1 <= a < b.
IoStatus ValidateMeta(const GridMeta& meta, const std::string& context);

// Do two grids describe slices of the same logical dataset? Everything must
// match except the key range, sample count and the (informational) interleave
// width. Returns a diagnostic naming the first mismatching field.
IoStatus CheckSameDataset(const GridMeta& want, const GridMeta& got,
                          const std::string& context);

// How much of a wanted slice a stored grid must cover. A final shard grid, a
// cache entry or an equality check holds its slice exactly; a checkpoint or
// an incremental merge base holds a prefix of it.
enum class Coverage : uint8_t { kExact, kPrefix };

// The one rule for "this file holds the keys it should" (docs/store.md,
// "Which file holds which keys"): `got` is the same dataset as `want`
// (CheckSameDataset), starts at want.key_begin, and ends at want.key_end
// (kExact) or anywhere up to it (kPrefix). The diagnostic names `context`.
IoStatus CheckSlice(const GridMeta& want, const GridMeta& got, Coverage coverage,
                    const std::string& context);

// A fully-loaded grid file: provenance + owned counter cells.
struct StoredGrid {
  GridMeta meta;
  AlignedVector<uint64_t> cells;
};

// Serializes meta + cells to `path` atomically (temp file + rename); a
// concurrent reader or a crash never observes a torn grid.
IoStatus WriteGridFile(const std::string& path, const GridMeta& meta,
                       std::span<const uint64_t> cells);

// WriteGridFile with crash durability (fsync file before the rename, fsync
// the parent directory after it). Checkpoints, final shard grids and the
// merged output use this: a host crash right after the call must never
// resurrect the previous file, or a resumed worker would trust progress the
// disk no longer holds.
IoStatus WriteGridFileDurable(const std::string& path, const GridMeta& meta,
                              std::span<const uint64_t> cells);

// Reads and fully validates (magic, version, structure, both CRCs) `path`.
IoStatus ReadGridFile(const std::string& path, StoredGrid* out);

// Zero-copy validated view of a grid file: the header is parsed and both
// CRCs checked on Open(), then cells() aliases the mapped file directly —
// merging N shards touches every counter exactly once.
class GridFileView {
 public:
  IoStatus Open(const std::string& path);
  // Open() plus CheckSlice(want, meta(), coverage, path).
  IoStatus OpenSlice(const std::string& path, const GridMeta& want,
                     Coverage coverage);

  const GridMeta& meta() const { return meta_; }
  std::span<const uint64_t> cells() const { return cells_; }

 private:
  MmapFile map_;
  GridMeta meta_;
  std::span<const uint64_t> cells_;
};

// Rebuild in-memory grids from a stored one, moving its cells in. The caller
// must have checked the kind: ToSingleByteGrid requires kSingleByte,
// ToDigraphGrid one of the digraph kinds.
SingleByteGrid ToSingleByteGrid(StoredGrid stored);
DigraphGrid ToDigraphGrid(StoredGrid stored);

}  // namespace rc4b::store

#endif  // SRC_STORE_GRID_FILE_H_
