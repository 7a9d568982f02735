// Load-or-generate cache of keystream grids (docs/store.md).
//
// Scenarios and benches that need an engine-measured grid (e.g.
// singlebyte-beyond256, the Fig. 4/6 and Table 1-2 harnesses) can point
// DatasetOptions::cache_dir at a directory: the first run generates the grid
// and stores it as a provenance-stamped grid file; later runs load it back
// bit-exactly instead of recomputing — including grids produced offline by
// the grid_plan / grid_gen / grid_merge pipeline, since the file name and
// metadata are pure functions of the generation parameters. A cache hit is
// only accepted when the stored provenance matches the request exactly
// (kind, seed, key range, rows, drop, pairs, bytes-per-key); checksum or
// metadata mismatches are reported, warned about, and regenerated — never
// used silently.
#ifndef SRC_STORE_GRID_CACHE_H_
#define SRC_STORE_GRID_CACHE_H_

#include <string>
#include <utility>
#include <vector>

#include "src/biases/dataset.h"
#include "src/store/grid_file.h"

namespace rc4b::store {

// The provenance a DatasetOptions request pins down, per family.
GridMeta MetaForSingleByte(size_t positions, const DatasetOptions& options);
GridMeta MetaForConsecutive(size_t positions, const DatasetOptions& options);
GridMeta MetaForPair(const std::vector<std::pair<uint32_t, uint32_t>>& pairs,
                     const DatasetOptions& options);
GridMeta MetaForLongTermDigraph(const LongTermOptions& options);

class GridCache {
 public:
  explicit GridCache(std::string dir) : dir_(std::move(dir)) {}

  const std::string& dir() const { return dir_; }

  // Deterministic cache file for this provenance:
  // "<dir>/<kind>-r<rows>-s<seed>-k<begin>-<end>-d<drop>-b<bpk>[-p<crc>].grid".
  std::string PathFor(const GridMeta& want) const;

  // Probes the cache without generating. Fails with a path-qualified
  // diagnostic when the file is missing, corrupt (checksum / truncation /
  // version), or stores a grid of different provenance.
  IoStatus TryLoad(const GridMeta& want, StoredGrid* out) const;

  // The load-or-generate entry points used by src/biases/dataset.cc when
  // cache_dir is set. On any TryLoad failure other than a missing file a
  // warning with the diagnostic goes to stderr; the grid is then generated
  // in-process (bit-identical to the cached result by construction) and
  // stored back atomically.
  SingleByteGrid LoadOrGenerateSingleByte(size_t positions,
                                          DatasetOptions options);
  DigraphGrid LoadOrGenerateConsecutive(size_t positions, DatasetOptions options);
  DigraphGrid LoadOrGeneratePair(
      const std::vector<std::pair<uint32_t, uint32_t>>& pairs,
      DatasetOptions options);
  DigraphGrid LoadOrGenerateLongTermDigraph(LongTermOptions options);

 private:
  StoredGrid LoadOrGenerate(const GridMeta& want, unsigned workers);

  std::string dir_;
};

}  // namespace rc4b::store

#endif  // SRC_STORE_GRID_CACHE_H_
