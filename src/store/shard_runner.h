// Checkpointed execution of one manifest shard (docs/store.md).
//
// A shard process adds its key sub-range, in checkpoint_keys-sized steps,
// into one 64-bit grid in place; after each step it atomically snapshots
// that grid plus the next key index to "<shard>.ckpt" (grid-file format
// with the partial key range as provenance). A killed shard resumes from
// its last snapshot without recomputing finished keys, and because every
// step covers an explicit global key slice, the final shard grid is
// bit-identical whether the shard ran straight through, was killed and
// resumed, or used a different worker count per run.
#ifndef SRC_STORE_SHARD_RUNNER_H_
#define SRC_STORE_SHARD_RUNNER_H_

#include <cstdint>
#include <functional>
#include <string>

#include "src/store/grid_file.h"
#include "src/store/manifest.h"

namespace rc4b::store {

// Generates the grid described by `meta` in-process over its full key range,
// through the same per-kind dispatch as the shard runner (used by the cache
// and the reference-grid tool). For short-term kinds `interleave` is 0 for
// the lane kernel or 1 for the scalar reference path (see
// EngineOptions::interleave); the cells are identical either way. The
// long-term kind has one engine path and ignores it.
StoredGrid GenerateStoredGrid(const GridMeta& meta, unsigned workers,
                              size_t interleave);

struct ShardRunResult {
  bool finished = false;     // final shard grid written
  bool resumed = false;      // a checkpoint (or final file) was picked up
  uint64_t keys_done = 0;    // keys newly generated by this invocation
  uint64_t keys_completed = 0;  // total shard progress including prior runs
};

struct ShardRunOptions {
  // Keys generated between checkpoint snapshots; 0 = no intermediate
  // checkpoints (one shot straight to the final file).
  uint64_t checkpoint_keys = uint64_t{1} << 16;
  unsigned workers = 0;    // in-shard threads (0 = hardware concurrency)
  // Test/CI kill hook: stop (with a checkpoint on disk, exit success,
  // finished == false) once at least this many keys were newly generated
  // this invocation. 0 = run to completion.
  uint64_t stop_after_keys = 0;
  // Called after each checkpoint commits durably — the natural heartbeat
  // cadence for campaign workers (the scheduler renews the shard lease
  // here). A failure aborts the run with that status, preserving its
  // transient/fatal classification: a lost lease means another worker owns
  // the shard now and this one must stop touching its files.
  std::function<IoStatus(const ShardRunResult&)> on_checkpoint;
};

// Runs shard `shard_index` of `manifest` (paths resolved relative to
// `manifest_path`). Idempotent: a final grid holding the shard's exact slice
// (ShardMeta, CheckSlice) returns immediately; a checkpoint holding a prefix
// of it resumes, its cells copied out of the mapped file once. A corrupt
// file, or one from another dataset or key range, is a loud error, never
// silently overwritten.
IoStatus RunShard(const Manifest& manifest, const std::string& manifest_path,
                  uint32_t shard_index, const ShardRunOptions& options,
                  ShardRunResult* result);

}  // namespace rc4b::store

#endif  // SRC_STORE_SHARD_RUNNER_H_
