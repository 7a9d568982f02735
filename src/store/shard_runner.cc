#include "src/store/shard_runner.h"

#include <algorithm>
#include <cstdio>

#include <sys/stat.h>

#include "src/biases/dataset.h"
#include "src/common/fault_injector.h"
#include "src/rc4/kernel_registry.h"

namespace rc4b::store {

namespace {

bool PathExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

DatasetOptions ToDatasetOptions(const GridMeta& meta, unsigned workers,
                                size_t interleave) {
  DatasetOptions options;
  options.keys = meta.keys();
  options.first_key = meta.key_begin;
  options.seed = meta.seed;
  options.workers = workers;
  options.interleave = interleave;
  return options;
}

}  // namespace

StoredGrid GenerateStoredGrid(const GridMeta& meta, unsigned workers,
                              size_t interleave) {
  StoredGrid out;
  out.meta = meta;
  out.meta.interleave = ResolveKernelChoice("", interleave).width;
  switch (meta.kind) {
    case GridKind::kSingleByte: {
      const SingleByteGrid grid = GenerateSingleByteDataset(
          meta.rows, ToDatasetOptions(meta, workers, interleave));
      out.cells.assign(grid.Cells().begin(), grid.Cells().end());
      out.meta.samples = grid.keys();
      break;
    }
    case GridKind::kConsecutive: {
      const DigraphGrid grid = GenerateConsecutiveDataset(
          meta.rows, ToDatasetOptions(meta, workers, interleave));
      out.cells.assign(grid.Cells().begin(), grid.Cells().end());
      out.meta.samples = grid.keys();
      break;
    }
    case GridKind::kPair: {
      const DigraphGrid grid = GeneratePairDataset(
          meta.pairs, ToDatasetOptions(meta, workers, interleave));
      out.cells.assign(grid.Cells().begin(), grid.Cells().end());
      out.meta.samples = grid.keys();
      break;
    }
    case GridKind::kLongTermDigraph: {
      LongTermOptions options;
      options.keys = meta.keys();
      options.first_key = meta.key_begin;
      options.bytes_per_key = meta.bytes_per_key;
      options.drop = meta.drop;
      options.seed = meta.seed;
      options.workers = workers;
      options.interleave = interleave;
      const DigraphGrid grid = GenerateLongTermDigraphDataset(options);
      out.cells.assign(grid.Cells().begin(), grid.Cells().end());
      out.meta.samples = grid.keys();
      break;
    }
  }
  return out;
}

IoStatus RunShard(const Manifest& manifest, const std::string& manifest_path,
                  uint32_t shard_index, const ShardRunOptions& options,
                  ShardRunResult* result) {
  *result = ShardRunResult{};
  if (IoStatus status = ValidateManifest(manifest, manifest_path);
      !status.ok()) {
    return status;
  }
  if (shard_index >= manifest.shards.size()) {
    return IoStatus::Fail(manifest_path + ": shard index " +
                          std::to_string(shard_index) + " out of range (" +
                          std::to_string(manifest.shards.size()) + " shards)");
  }
  const ShardEntry& shard = manifest.shards[shard_index];
  const std::string final_path =
      ResolveManifestPath(manifest_path, shard.path);
  const std::string ckpt_path = CheckpointPath(final_path);

  GridMeta shard_meta = manifest.grid;
  shard_meta.key_begin = shard.key_begin;
  shard_meta.key_end = shard.key_end;
  shard_meta.samples = 0;

  // Idempotence: an existing valid final grid for this exact slice is done.
  // An existing final file that fails validation (corrupt, or provenance
  // from some other dataset) is a loud error, never silently overwritten.
  if (PathExists(final_path)) {
    StoredGrid existing;
    if (IoStatus status = ReadGridFile(final_path, &existing); !status.ok()) {
      return IoStatus::Fail("existing shard output is invalid (" +
                            status.message() +
                            "); remove the file to regenerate");
    }
    if (IoStatus status = CheckSameDataset(shard_meta, existing.meta, final_path);
        !status.ok()) {
      return status;
    }
    if (existing.meta.key_begin != shard.key_begin ||
        existing.meta.key_end != shard.key_end) {
      return IoStatus::Fail(final_path + ": existing file covers keys [" +
                            std::to_string(existing.meta.key_begin) + ", " +
                            std::to_string(existing.meta.key_end) +
                            "), shard owns [" + std::to_string(shard.key_begin) +
                            ", " + std::to_string(shard.key_end) + ")");
    }
    result->finished = true;
    result->resumed = true;
    result->keys_completed = shard.key_end - shard.key_begin;
    return IoStatus::Ok();
  }

  StoredGrid partial;
  partial.meta = shard_meta;
  partial.cells.assign(shard_meta.cell_count(), 0);
  uint64_t progress = shard.key_begin;

  if (PathExists(ckpt_path)) {
    StoredGrid checkpoint;
    if (IoStatus status = ReadGridFile(ckpt_path, &checkpoint); !status.ok()) {
      return IoStatus::Fail("checkpoint is corrupt (" + status.message() +
                            "); remove it to restart the shard from scratch");
    }
    if (IoStatus status = CheckSameDataset(shard_meta, checkpoint.meta, ckpt_path);
        !status.ok()) {
      return status;
    }
    if (checkpoint.meta.key_begin != shard.key_begin ||
        checkpoint.meta.key_end > shard.key_end) {
      return IoStatus::Fail(
          ckpt_path + ": checkpoint covers keys [" +
          std::to_string(checkpoint.meta.key_begin) + ", " +
          std::to_string(checkpoint.meta.key_end) + ") outside the shard's [" +
          std::to_string(shard.key_begin) + ", " +
          std::to_string(shard.key_end) + ")");
    }
    progress = checkpoint.meta.key_end;
    partial.cells = std::move(checkpoint.cells);
    partial.meta.samples = checkpoint.meta.samples;
    result->resumed = true;
  }

  const uint64_t step = options.checkpoint_keys == 0
                            ? shard.key_end - shard.key_begin
                            : options.checkpoint_keys;
  while (progress < shard.key_end) {
    GridMeta step_meta = shard_meta;
    step_meta.key_begin = progress;
    step_meta.key_end = std::min(progress + step, shard.key_end);
    const StoredGrid piece =
        GenerateStoredGrid(step_meta, options.workers, 0);
    for (size_t i = 0; i < partial.cells.size(); ++i) {
      partial.cells[i] += piece.cells[i];
    }
    partial.meta.samples += piece.meta.samples;
    partial.meta.interleave = piece.meta.interleave;
    progress = step_meta.key_end;
    result->keys_done += step_meta.keys();
    result->keys_completed = progress - shard.key_begin;
    if (progress >= shard.key_end) {
      break;
    }
    GridMeta ckpt_meta = partial.meta;
    ckpt_meta.key_end = progress;
    if (IoStatus status = WriteGridFileDurable(ckpt_path, ckpt_meta, partial.cells);
        !status.ok()) {
      return status;
    }
    FaultInjector::Instance().OnCheckpointCommitted();
    if (options.on_checkpoint) {
      if (IoStatus status = options.on_checkpoint(*result); !status.ok()) {
        return status;
      }
    }
    if (options.stop_after_keys != 0 &&
        result->keys_done >= options.stop_after_keys) {
      return IoStatus::Ok();  // finished stays false; checkpoint is on disk
    }
  }

  partial.meta.key_end = shard.key_end;
  if (IoStatus status =
          WriteGridFileDurable(final_path, partial.meta, partial.cells);
      !status.ok()) {
    return status;
  }
  std::remove(ckpt_path.c_str());
  result->finished = true;
  return IoStatus::Ok();
}

}  // namespace rc4b::store
