// Sharded, batched RC4 keystream-statistics engine.
//
// The paper (Sect. 3.2) generated its keystream datasets on ~80 machines;
// every worker derived random 128-bit RC4 keys with AES-CTR, accumulated
// (position, value) counters locally, and merged them at the end. This engine
// reproduces that worker/merge structure on one machine and makes it the
// single hot path shared by dataset generation (src/biases/dataset.cc), the
// bias scans, and the benchmark harnesses:
//
//   * keys are sharded over the thread pool in contiguous [begin, end)
//     chunks; key number k is always key k of one AES-CTR stream (the shard
//     Seek()s to its range), so the generated key set — and therefore every
//     merged counter — is bit-exact for ANY worker count, including 1;
//   * each shard generates keystreams in batches (cache-friendly contiguous
//     rows) and feeds them to a shard-private sink: no locks, no sharing,
//     counters cache-line aligned;
//   * sinks merge into the accumulator serialized, short-term ones at least
//     once every kMaxKeysPerMerge keys, long-term ones when they retire.
//
// Two generation modes cover the paper's datasets:
//   * RunKeystreamEngine — per-key initial keystreams of a fixed length
//     (consec512/first16-style short-term statistics, Fig. 4/5, Table 2);
//   * RunLongTermEngine — few keys, long streams (2^24+ bytes) consumed in
//     overlapping chunks (Table 1 long-term digraphs, ABSAB/formula (1),
//     aligned digraphs/formula (8)).
#ifndef SRC_ENGINE_KEYSTREAM_ENGINE_H_
#define SRC_ENGINE_KEYSTREAM_ENGINE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>

namespace rc4b {

// A batch of `rows` keystreams of `length` bytes each, stored contiguously
// row-major. Row r holds Z_1 .. Z_length of one RC4 key (after any
// engine-level drop).
struct KeystreamBatch {
  const uint8_t* data = nullptr;
  size_t rows = 0;
  size_t length = 0;

  std::span<const uint8_t> Row(size_t r) const {
    return std::span<const uint8_t>(data + r * length, length);
  }
};

// Shard-private consumer. The engine creates one per shard and calls
// Consume() from exactly one thread, so implementations need no
// synchronization and should keep their counters shard-local.
class ShardSink {
 public:
  virtual ~ShardSink() = default;
  virtual void Consume(const KeystreamBatch& batch) = 0;
};

// The most keys a shard sink consumes between two MergeShard() calls. Sinks
// count in 16-bit cells (WorkerTile) that every merge empties. The largest
// short-term cell probability is ~2 * 2^-8 (the Mantin–Shamir Z2 = 0 bias),
// so a cell expects ~2^12 counts per merge, far below 2^16; each merge
// checks that no cell wrapped.
inline constexpr uint64_t kMaxKeysPerMerge = uint64_t{1} << 19;

// A statistics accumulator fed by the engine. Implementations own the final
// merged statistic (typically a SingleByteGrid / DigraphGrid) and hand out
// shard sinks whose counters they fold back, and empty, in MergeShard(). The
// engine calls it serialized, at least once every kMaxKeysPerMerge keys of a
// shard and once after the shard's last Consume().
class BiasAccumulator {
 public:
  virtual ~BiasAccumulator() = default;

  // Keystream bytes the engine must generate per key.
  virtual size_t KeystreamLength() const = 0;

  virtual std::unique_ptr<ShardSink> MakeShard() = 0;

  // `keys` is the number of keystreams the shard consumed since its last
  // merge, at most kMaxKeysPerMerge.
  virtual void MergeShard(ShardSink& shard, uint64_t keys) = 0;
};

struct EngineOptions {
  uint64_t keys = 1 << 20;  // RC4 keys to sample
  unsigned workers = 0;     // shards; 0 = hardware concurrency
  uint64_t seed = 1;        // AES-CTR key-generator seed
  // Global index of the first key: the run covers keys [first_key,
  // first_key + keys) of the seed's AES-CTR stream. Separate processes can
  // therefore each generate a disjoint slice of one logical dataset and merge
  // the partial grids bit-exactly (src/store/), the same invariance the
  // in-process shards rely on.
  uint64_t first_key = 0;
  uint64_t drop = 0;  // initial keystream bytes discarded per key
  // Keystreams per generated batch; 0 = auto (256).
  size_t batch_keys = 256;
  // 1 = the scalar Rc4 reference path that the bit-exactness tests compare
  // against; any other value (0 by default) = KeystreamRows' kLaneWidth
  // lanes (src/rc4/rc4_multi.h). Batches are byte-identical either way —
  // the lanes only reorder the schedule, never the per-key math. This is an
  // oracle switch, not a tuning knob.
  size_t interleave = 0;
  // Lane-kernel name (src/rc4/kernel_registry.h): only "", "auto" and
  // "scalar" are accepted, and all three select the one scalar kernel. Any
  // other name warns once and falls back to scalar.
  std::string kernel;
};

// Generates `options.keys` keystreams of accumulator.KeystreamLength() bytes
// and streams them through per-shard sinks. Key k is key number k of the
// AES-CTR stream seeded with `options.seed`, independent of sharding:
// merged results are bit-identical for any `workers`.
void RunKeystreamEngine(const EngineOptions& options, BiasAccumulator& accumulator);

// ------------------------------------------------------------------------
// Long-term (streaming) mode.

// Owned bytes per long-term window. Sinks rely on each window starting on a
// 256-byte block boundary of its key's stream.
inline constexpr size_t kLongTermChunkBytes = size_t{1} << 16;
static_assert(kLongTermChunkBytes % 256 == 0);

// Shard-private consumer of one key's long keystream, delivered as
// overlapping windows chunk[0 .. owned + Lookahead()): the first `owned`
// positions belong to this call; the trailing Lookahead() bytes are context
// shared with the next window (a digraph or ABSAB pattern starting at an
// owned position may read up to Lookahead() bytes past it).
//
// Window ordering: each key's windows arrive in stream order, and every
// window's base offset within its key is a multiple of kLongTermChunkBytes.
// The engine generates kLaneWidth keys in lockstep and round-robins their
// windows — window w of key k, then window w of key k+1, ... — and a window
// does not say which key it came from. Every sink must therefore be
// commutative per window: its counts may depend only on the multiset of
// windows it sees, not on their order.
class StreamShardSink {
 public:
  virtual ~StreamShardSink() = default;

  virtual void ConsumeChunk(std::span<const uint8_t> chunk, size_t owned) = 0;
};

class StreamAccumulator {
 public:
  virtual ~StreamAccumulator() = default;

  // Context bytes past the owned region each window must carry.
  virtual size_t Lookahead() const = 0;

  virtual std::unique_ptr<StreamShardSink> MakeShard() = 0;

  // `keys` is the shard's key count, `owned_per_key` the number of owned
  // positions each key contributed.
  virtual void MergeShard(StreamShardSink& shard, uint64_t keys,
                          uint64_t owned_per_key) = 0;
};

struct LongTermEngineOptions {
  uint64_t keys = 1 << 8;
  uint64_t bytes_per_key = 1 << 24;  // rounded down to a 256-byte multiple
  uint64_t drop = 1024;              // initial bytes discarded per key
  unsigned workers = 0;
  uint64_t seed = 1;
  uint64_t first_key = 0;  // global key-range offset (see EngineOptions)
};

// Streams `bytes_per_key` keystream bytes per key (rounded down to whole
// 256-byte blocks) through per-shard stream sinks, as kLongTermChunkBytes
// windows plus one shorter tail window. Each shard runs its keys in lockstep
// groups of kLaneWidth and the remaining keys % kLaneWidth one at a time.
// Sharding-invariant exactly like RunKeystreamEngine.
void RunLongTermEngine(const LongTermEngineOptions& options,
                       StreamAccumulator& accumulator);

}  // namespace rc4b

#endif  // SRC_ENGINE_KEYSTREAM_ENGINE_H_
