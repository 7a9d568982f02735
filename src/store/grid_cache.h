// Load-or-generate cache of keystream grids (docs/store.md).
//
// Scenarios and benches that need an engine-measured grid (e.g.
// singlebyte-beyond256, the Fig. 4/6 and Table 1-2 harnesses) describe it as
// a GridMeta and pass a cache directory: the first run generates the grid
// and stores it as a provenance-stamped grid file; later runs load it back
// bit-exactly instead of recomputing — including grids produced offline by
// the grid_plan / grid_gen / grid_merge pipeline, since the file name and
// metadata are pure functions of the GridMeta. A cache hit is only accepted
// when the stored file holds exactly the requested slice (CheckSlice: kind,
// seed, key range, rows, drop, pairs, bytes-per-key); checksum or metadata
// mismatches are reported, warned about, and regenerated — never used
// silently.
#ifndef SRC_STORE_GRID_CACHE_H_
#define SRC_STORE_GRID_CACHE_H_

#include <string>

#include "src/store/grid_file.h"

namespace rc4b::store {

// Deterministic cache file for this provenance:
// "<dir>/<kind>-r<rows>-s<seed>-k<begin>-<end>-d<drop>-b<bpk>[-p<crc>].grid".
// The key range is part of the name, so a slice is cached under its own
// range and never answers a request for another.
std::string GridCachePath(const std::string& dir, const GridMeta& meta);

// The grid `meta` describes over its key range. With an empty `cache_dir`
// it is generated in-process on the lane kernel. Otherwise a file at
// GridCachePath holding exactly that slice is loaded; a file that is
// corrupt (checksum / truncation / version) or of different provenance is
// reported on stderr and the grid is generated (bit-identical to the cached
// result by construction) and stored back atomically.
StoredGrid LoadOrGenerateGrid(const GridMeta& meta, unsigned workers,
                              const std::string& cache_dir);

}  // namespace rc4b::store

#endif  // SRC_STORE_GRID_CACHE_H_
