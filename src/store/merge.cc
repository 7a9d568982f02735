#include "src/store/merge.h"

#include <span>

namespace rc4b::store {

namespace {

// Samples a slice's key range implies: one per key for the short-term kinds,
// one per whole 256-byte block of each key for longterm-digraph.
uint64_t ImpliedSamples(const GridMeta& meta) {
  return meta.kind == GridKind::kLongTermDigraph
             ? meta.keys() * (meta.bytes_per_key / 256)
             : meta.keys();
}

// Adds a validated slice's cells into `sum`, checking its counts on the way:
// `meta.samples` must be what its key range implies, and every row must sum
// to it. On a mismatch the rows already added are taken back out, so `sum`
// is left as it was.
IoStatus AddCheckedSlice(const GridMeta& meta, std::span<const uint64_t> cells,
                         const std::string& context, std::span<uint64_t> sum) {
  if (meta.samples != ImpliedSamples(meta)) {
    return IoStatus::Fail(context + ": records " + std::to_string(meta.samples) +
                          " samples, but its key range implies " +
                          std::to_string(ImpliedSamples(meta)));
  }
  const size_t per_row = CellsPerRow(meta.kind);
  for (size_t row = 0; row < meta.rows; ++row) {
    const size_t end = (row + 1) * per_row;
    uint64_t row_sum = 0;
    for (size_t i = row * per_row; i < end; ++i) {
      sum[i] += cells[i];
      row_sum += cells[i];
    }
    if (row_sum != meta.samples) {
      for (size_t i = 0; i < end; ++i) {
        sum[i] -= cells[i];
      }
      return IoStatus::Fail(context + ": row " + std::to_string(row) + " sums to " +
                            std::to_string(row_sum) + ", expected " +
                            std::to_string(meta.samples));
    }
  }
  return IoStatus::Ok();
}

}  // namespace

IoStatus MergeShardGridsEx(const Manifest& manifest,
                           const std::string& manifest_path,
                           const MergeOptions& options, StoredGrid* out,
                           MergeOutcome* outcome) {
  if (IoStatus status = ValidateManifest(manifest, manifest_path);
      !status.ok()) {
    return status;
  }
  MergeOutcome local;
  MergeOutcome& result = outcome != nullptr ? *outcome : local;
  result = MergeOutcome{};

  out->meta = manifest.grid;
  out->meta.samples = 0;
  out->cells.assign(manifest.grid.cell_count(), 0);
  uint64_t base_end = manifest.grid.key_begin;  // nothing covered yet
  bool first = true;
  uint64_t unanimous_interleave = 0;
  if (options.base != nullptr) {
    const StoredGrid& base = *options.base;
    if (IoStatus status = CheckSlice(manifest.grid, base.meta, Coverage::kPrefix,
                                     "incremental base");
        !status.ok()) {
      return status;
    }
    if (base.cells.size() != out->cells.size()) {
      return IoStatus::Fail("incremental base has " +
                            std::to_string(base.cells.size()) + " cells, grid " +
                            std::to_string(out->cells.size()));
    }
    if (IoStatus status =
            AddCheckedSlice(base.meta, base.cells, "incremental base", out->cells);
        !status.ok()) {
      return status;
    }
    base_end = base.meta.key_end;
    out->meta.samples = base.meta.samples;
    unanimous_interleave = base.meta.interleave;
    first = false;
  }
  for (uint32_t index = 0; index < manifest.shards.size(); ++index) {
    const ShardEntry& shard = manifest.shards[index];
    if (shard.key_end <= base_end) {
      result.skipped.push_back(index);  // covered by the base grid
      continue;
    }
    if (shard.key_begin < base_end) {
      return IoStatus::Fail(
          "incremental base ends at key " + std::to_string(base_end) +
          " inside shard " + shard.path + " [" +
          std::to_string(shard.key_begin) + ", " +
          std::to_string(shard.key_end) +
          ") — the base must end on a shard boundary");
    }
    const std::string path = ResolveManifestPath(manifest_path, shard.path);
    GridFileView view;
    IoStatus status = view.OpenSlice(path, ShardMeta(manifest, index), Coverage::kExact);
    if (status.ok()) {
      status = AddCheckedSlice(view.meta(), view.cells(), path, out->cells);
    }
    if (!status.ok()) {
      if (!options.allow_missing) {
        return status;
      }
      result.missing.push_back({index, path, status.message()});
      continue;
    }
    const GridMeta& got = view.meta();
    out->meta.samples += got.samples;
    result.merged.push_back(index);
    if (first) {
      unanimous_interleave = got.interleave;
      first = false;
    } else if (unanimous_interleave != got.interleave) {
      unanimous_interleave = 0;
    }
  }
  out->meta.interleave = unanimous_interleave;
  return IoStatus::Ok();
}

IoStatus CheckGridsEqual(const StoredGrid& a, const StoredGrid& b,
                         const std::string& a_name, const std::string& b_name) {
  const std::string context = a_name + " vs " + b_name;
  if (IoStatus status = CheckSlice(a.meta, b.meta, Coverage::kExact, context);
      !status.ok()) {
    return status;
  }
  if (a.meta.samples != b.meta.samples) {
    return IoStatus::Fail(context + ": sample counts differ (" +
                          std::to_string(a.meta.samples) + " vs " +
                          std::to_string(b.meta.samples) + ")");
  }
  if (a.cells.size() != b.cells.size()) {
    return IoStatus::Fail(context + ": cell counts differ");
  }
  for (size_t i = 0; i < a.cells.size(); ++i) {
    if (a.cells[i] != b.cells[i]) {
      return IoStatus::Fail(context + ": counters differ first at cell " +
                            std::to_string(i) + " (" +
                            std::to_string(a.cells[i]) + " vs " +
                            std::to_string(b.cells[i]) + ")");
    }
  }
  return IoStatus::Ok();
}

}  // namespace rc4b::store
