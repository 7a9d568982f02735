#include "src/store/shard_runner.h"

#include <algorithm>
#include <cstdio>
#include <type_traits>

#include "src/common/fault_injector.h"
#include "src/engine/accumulators.h"
#include "src/engine/keystream_engine.h"
#include "src/rc4/rc4_multi.h"

namespace rc4b::store {

namespace {

// Adds keys [begin, end) of `grid->meta`'s dataset into `grid` in place:
// its cells move into the engine accumulator for the kind and back out, and
// both engines add into that accumulator's grid, so nothing is copied.
// `interleave` == 1 selects the short-term scalar reference path; the
// long-term engine has one path. The meta records the lockstep width used.
void GenerateInto(StoredGrid* grid, uint64_t begin, uint64_t end,
                  unsigned workers, size_t interleave) {
  const GridMeta& meta = grid->meta;
  const auto run = [&](auto accumulator) {
    const auto range = [&](auto options) {
      options.keys = end - begin;
      options.first_key = begin;
      options.seed = meta.seed;
      options.workers = workers;
      return options;
    };
    if constexpr (std::is_same_v<decltype(accumulator), LongTermDigraphAccumulator>) {
      LongTermEngineOptions options = range(LongTermEngineOptions{});
      options.bytes_per_key = meta.bytes_per_key;
      options.drop = meta.drop;
      RunLongTermEngine(options, accumulator);
      grid->meta.interleave = kLaneWidth;
    } else {
      EngineOptions options = range(EngineOptions{});
      options.interleave = interleave;
      RunKeystreamEngine(options, accumulator);
      grid->meta.interleave = interleave == 1 ? 1 : kLaneWidth;
    }
    grid->meta.samples = accumulator.grid().keys();
    grid->cells = accumulator.TakeGrid().TakeCells();
  };
  AlignedVector<uint64_t>& cells = grid->cells;
  switch (meta.kind) {
    case GridKind::kSingleByte:
      run(SingleByteAccumulator(SingleByteGrid(std::move(cells), meta.samples)));
      break;
    case GridKind::kConsecutive:
      run(ConsecutiveAccumulator(DigraphGrid(std::move(cells), meta.samples)));
      break;
    case GridKind::kPair:
      run(PairAccumulator(meta.pairs, DigraphGrid(std::move(cells), meta.samples)));
      break;
    case GridKind::kLongTermDigraph:
      run(LongTermDigraphAccumulator(DigraphGrid(std::move(cells), meta.samples)));
      break;
  }
}

}  // namespace

StoredGrid GenerateStoredGrid(const GridMeta& meta, unsigned workers,
                              size_t interleave) {
  StoredGrid out;
  out.meta = meta;
  out.meta.samples = 0;
  out.cells.assign(meta.cell_count(), 0);
  GenerateInto(&out, meta.key_begin, meta.key_end, workers, interleave);
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

  const GridMeta want = ShardMeta(manifest, shard_index);

  // Idempotence: an existing valid final grid for this exact slice is done.
  // An existing final file that fails validation (corrupt, or provenance
  // from some other dataset) is a loud error, never silently overwritten.
  if (PathExists(final_path)) {
    GridFileView existing;
    if (IoStatus status = existing.Open(final_path); !status.ok()) {
      return IoStatus::Fail("existing shard output is invalid (" +
                            status.message() +
                            "); remove the file to regenerate");
    }
    if (IoStatus status =
            CheckSlice(want, existing.meta(), Coverage::kExact, final_path);
        !status.ok()) {
      return status;
    }
    result->finished = true;
    result->resumed = true;
    result->keys_completed = want.keys();
    return IoStatus::Ok();
  }

  StoredGrid partial;
  partial.meta = want;
  uint64_t progress = shard.key_begin;

  if (PathExists(ckpt_path)) {
    GridFileView checkpoint;
    if (IoStatus status = checkpoint.Open(ckpt_path); !status.ok()) {
      return IoStatus::Fail("checkpoint is corrupt (" + status.message() +
                            "); remove it to restart the shard from scratch");
    }
    if (IoStatus status =
            CheckSlice(want, checkpoint.meta(), Coverage::kPrefix, ckpt_path);
        !status.ok()) {
      return status;
    }
    progress = checkpoint.meta().key_end;
    partial.cells.assign(checkpoint.cells().begin(), checkpoint.cells().end());
    partial.meta.samples = checkpoint.meta().samples;
    result->resumed = true;
  } else {
    partial.cells.assign(want.cell_count(), 0);
  }

  const uint64_t step = options.checkpoint_keys == 0
                            ? shard.key_end - shard.key_begin
                            : options.checkpoint_keys;
  while (progress < shard.key_end) {
    const uint64_t step_end = std::min(progress + step, shard.key_end);
    GenerateInto(&partial, progress, step_end, options.workers, 0);
    result->keys_done += step_end - progress;
    progress = step_end;
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
