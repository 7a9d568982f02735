#include "src/engine/keystream_engine.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>
#include <mutex>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/rc4/keygen.h"
#include "src/rc4/kernel_registry.h"
#include "src/rc4/rc4.h"
#include "src/rc4/rc4_multi.h"
#include "src/stats/counters.h"

namespace rc4b {

namespace {

constexpr size_t kKeySize = Rc4KeyGenerator::kRc4KeySize;

size_t ResolveBatchKeys(size_t requested) {
  return requested != 0 ? requested : 256;
}

// ------------------------------------------------------------------------
// Short-term batch generation.

// Scalar reference path (interleave == 1): one Rc4 per key, the pre-lockstep
// loop the bit-exactness tests compare the lane path against.
void FillRowsScalar(Rc4KeyGenerator& keygen, uint64_t drop, uint8_t* out,
                    size_t rows, size_t length) {
  for (size_t r = 0; r < rows; ++r) {
    Rc4 rc4(keygen.NextKey());
    if (drop != 0) {
      rc4.Skip(drop);
    }
    rc4.Keystream(std::span<uint8_t>(out + r * length, length));
  }
}

// ------------------------------------------------------------------------
// Long-term streaming generation.

struct StreamPlan {
  size_t lookahead = 0;
  uint64_t full_chunks = 0;
  size_t tail = 0;
  uint64_t drop = 0;
};

// Draws M keys and streams them through `sink` in lockstep: one row of
// `buffer` per key (stride kLongTermChunkBytes + lookahead), the lookahead
// primed once, then each window generated for all M keys and delivered
// round-robin in key order (see the StreamShardSink ordering note in
// keystream_engine.h). Each row slides its trailing lookahead bytes to the
// front before the next window.
template <size_t M>
void StreamGroup(Rc4KeyGenerator& keygen, StreamShardSink& sink,
                 const StreamPlan& plan, uint8_t* buffer) {
  std::array<uint8_t, M * kKeySize> keys;
  keygen.NextKeys(keys);
  Rc4MultiStream<M> rc4(keys, kKeySize);
  if (plan.drop != 0) {
    rc4.Skip(plan.drop);
  }
  const size_t stride = kLongTermChunkBytes + plan.lookahead;
  rc4.Keystream(buffer, plan.lookahead, stride);
  const auto window = [&](size_t owned) {
    rc4.Keystream(buffer + plan.lookahead, owned, stride);
    for (size_t m = 0; m < M; ++m) {
      sink.ConsumeChunk(
          std::span<const uint8_t>(buffer + m * stride, owned + plan.lookahead),
          owned);
    }
  };
  for (uint64_t c = 0; c < plan.full_chunks; ++c) {
    window(kLongTermChunkBytes);
    for (size_t m = 0; m < M; ++m) {
      std::memmove(buffer + m * stride, buffer + m * stride + kLongTermChunkBytes,
                   plan.lookahead);
    }
  }
  if (plan.tail != 0) {
    window(plan.tail);
  }
}

}  // namespace

void RunKeystreamEngine(const EngineOptions& options, BiasAccumulator& accumulator) {
  const size_t length = accumulator.KeystreamLength();
  assert(length > 0);
  // One width decision per run, shared with perfbench's replay.
  const KernelChoice choice = ResolveKernelChoice(options.kernel, options.interleave);
  // Batches hold at least one lockstep group so the lanes engage even with
  // tiny batch_keys settings; counts are batch-size invariant either way.
  const size_t batch_keys =
      std::max<size_t>(ResolveBatchKeys(options.batch_keys), choice.width);
  std::mutex merge_mutex;
  ParallelChunks(options.keys, options.workers,
                 [&](unsigned /*shard*/, uint64_t begin, uint64_t end) {
    // All shards draw from the same AES-CTR stream: key k is key number
    // first_key + k regardless of how [0, keys) was chunked, which makes the
    // merged statistics invariant under the worker count — and, with
    // first_key, under how a key range is split across processes.
    Rc4KeyGenerator keygen(options.seed);
    keygen.Seek(options.first_key + begin);
    std::unique_ptr<ShardSink> sink;
    {
      std::lock_guard<std::mutex> lock(merge_mutex);
      sink = accumulator.MakeShard();
    }
    std::vector<uint8_t> keys(batch_keys * kKeySize);
    AlignedVector<uint8_t> buffer(batch_keys * length, 0);
    uint64_t unmerged = 0;  // keys consumed since the last MergeShard()
    for (uint64_t k = begin; k < end;) {
      // A batch never straddles a merge point, so no merge covers more than
      // kMaxKeysPerMerge keys; counts do not depend on batch boundaries.
      const size_t rows = static_cast<size_t>(
          std::min({uint64_t{batch_keys}, end - k, kMaxKeysPerMerge - unmerged}));
      if (choice.width > 1) {
        // Keys in keygen draw order, so the batch is byte-identical to the
        // scalar path.
        const std::span<uint8_t> batch_key_bytes(keys.data(), rows * kKeySize);
        keygen.NextKeys(batch_key_bytes);
        KeystreamRows(batch_key_bytes, kKeySize, options.drop, buffer.data(),
                      length);
      } else {
        FillRowsScalar(keygen, options.drop, buffer.data(), rows, length);
      }
      sink->Consume(KeystreamBatch{buffer.data(), rows, length});
      k += rows;
      unmerged += rows;
      if (unmerged == kMaxKeysPerMerge || k == end) {
        std::lock_guard<std::mutex> lock(merge_mutex);
        accumulator.MergeShard(*sink, unmerged);
        unmerged = 0;
      }
    }
  });
}

void RunLongTermEngine(const LongTermEngineOptions& options,
                       StreamAccumulator& accumulator) {
  StreamPlan plan;
  plan.lookahead = accumulator.Lookahead();
  // bytes_per_key rounds down to whole 256-byte blocks only; a trailing
  // window smaller than kLongTermChunkBytes carries the rest.
  const uint64_t owned_per_key = options.bytes_per_key / 256 * 256;
  plan.full_chunks = owned_per_key / kLongTermChunkBytes;
  plan.tail = static_cast<size_t>(owned_per_key % kLongTermChunkBytes);
  plan.drop = options.drop;
  std::mutex merge_mutex;
  ParallelChunks(options.keys, options.workers,
                 [&](unsigned /*shard*/, uint64_t begin, uint64_t end) {
    Rc4KeyGenerator keygen(options.seed);
    keygen.Seek(options.first_key + begin);
    std::unique_ptr<StreamShardSink> sink;
    {
      std::lock_guard<std::mutex> lock(merge_mutex);
      sink = accumulator.MakeShard();
    }
    // One window row per lockstep lane, cache-aligned like the short-term
    // batch buffer. Full groups run kLaneWidth keys, the remainder one key
    // at a time.
    AlignedVector<uint8_t> buffer(kLaneWidth * (kLongTermChunkBytes + plan.lookahead),
                                  0);
    uint64_t k = begin;
    for (; k + kLaneWidth <= end; k += kLaneWidth) {
      StreamGroup<kLaneWidth>(keygen, *sink, plan, buffer.data());
    }
    for (; k < end; ++k) {
      StreamGroup<1>(keygen, *sink, plan, buffer.data());
    }
    std::lock_guard<std::mutex> lock(merge_mutex);
    accumulator.MergeShard(*sink, end - begin, owned_per_key);
  });
}

}  // namespace rc4b
