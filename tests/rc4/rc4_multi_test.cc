#include "src/rc4/rc4_multi.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/crypto/aes128.h"
#include "src/engine/keystream_engine.h"
#include "src/rc4/kernel_registry.h"
#include "src/rc4/rc4.h"

namespace rc4b {
namespace {

// The kernel's whole contract: stream m of Rc4MultiStream<M> is bit-identical
// to a scalar Rc4 over the same key, for any width M, any length, and any
// drop. The engines run kLaneWidth, and the long-term engine runs M = 1 for
// the keys left over after its full groups; sweeping the other widths keeps
// the template honest for a future re-measurement. The engine's batch/grid bit-exactness rests on
// this.

Bytes RandomKeys(size_t count, size_t key_size, uint64_t seed) {
  Xoshiro256 rng(seed);
  Bytes keys(count * key_size);
  rng.Fill(keys);
  return keys;
}

Bytes ScalarReference(std::span<const uint8_t> key, uint64_t drop, size_t length) {
  Rc4 rc4(key);
  rc4.Skip(drop);
  Bytes out(length);
  rc4.Keystream(out);
  return out;
}

template <size_t M>
void ExpectMatchesScalar(size_t key_size, uint64_t drop, size_t length,
                         uint64_t seed) {
  const Bytes keys = RandomKeys(M, key_size, seed);
  Rc4MultiStream<M> streams(keys, key_size);
  if (drop != 0) {
    streams.Skip(drop);
  }
  Bytes batch(M * length);
  streams.Keystream(batch.data(), length, length);
  for (size_t m = 0; m < M; ++m) {
    const auto key = std::span<const uint8_t>(keys).subspan(m * key_size, key_size);
    const Bytes expected = ScalarReference(key, drop, length);
    const Bytes actual(batch.begin() + m * length, batch.begin() + (m + 1) * length);
    ASSERT_EQ(actual, expected) << "M=" << M << " stream=" << m
                                << " drop=" << drop << " length=" << length;
  }
}

template <size_t M>
void SweepLengthsAndDrops(uint64_t seed) {
  // Lengths cover the paper's workloads: 1-byte grids, first16, consec512
  // rows (256/513) crossing the i-counter wrap; drops cover RC4-drop[n] and
  // the long-term engine's 256-aligned discard.
  for (const size_t length : {size_t{1}, size_t{16}, size_t{256}, size_t{513}}) {
    ExpectMatchesScalar<M>(16, 0, length, seed ^ length);
  }
  for (const uint64_t drop : {uint64_t{1}, uint64_t{256}, uint64_t{1024}}) {
    ExpectMatchesScalar<M>(16, drop, 64, seed ^ (drop << 16));
  }
}

TEST(Rc4MultiStreamTest, MatchesScalarForEverySupportedWidth) {
  SweepLengthsAndDrops<1>(6);
  SweepLengthsAndDrops<2>(1);
  SweepLengthsAndDrops<4>(2);
  SweepLengthsAndDrops<8>(3);
  SweepLengthsAndDrops<16>(4);
  SweepLengthsAndDrops<32>(5);
}

TEST(Rc4MultiStreamTest, ShortKeysMatchScalar) {
  // The KSA cycles the key; non-16-byte uniform key sizes must still match.
  ExpectMatchesScalar<8>(5, 0, 256, 7);
  ExpectMatchesScalar<8>(3, 17, 40, 8);
}

TEST(Rc4MultiStreamTest, SplitGenerationCarriesState) {
  // Keystream() in several calls must equal one shot: the engine generates
  // long-term streams window by window from one kernel instance.
  constexpr size_t kStreams = 16;
  const Bytes keys = RandomKeys(kStreams, 16, 11);
  Rc4MultiStream<kStreams> one_shot(keys, 16);
  Bytes full(kStreams * 513);
  one_shot.Keystream(full.data(), 513, 513);

  Rc4MultiStream<kStreams> split(keys, 16);
  Bytes pieces(kStreams * 513);
  size_t offset = 0;
  for (const size_t piece : {size_t{1}, size_t{255}, size_t{257}}) {
    // Stride stays the full row so rows stay parallel across calls.
    split.Keystream(pieces.data() + offset, piece, 513);
    offset += piece;
  }
  EXPECT_EQ(pieces, full);
}

TEST(Rc4MultiStreamTest, StridedStoresStayInsideRows) {
  // stride > length: bytes past `length` in each row must be untouched —
  // this is where a strided-store off-by-one would corrupt neighbor rows.
  constexpr size_t kStreams = 8;
  constexpr size_t kLength = 33;
  constexpr size_t kStride = 48;
  const Bytes keys = RandomKeys(kStreams, 16, 13);
  Bytes batch(kStreams * kStride, 0xAA);
  Rc4MultiStream<kStreams> streams(keys, 16);
  streams.Keystream(batch.data(), kLength, kStride);
  for (size_t m = 0; m < kStreams; ++m) {
    const auto key = std::span<const uint8_t>(keys).subspan(m * 16, 16);
    const Bytes expected = ScalarReference(key, 0, kLength);
    for (size_t t = 0; t < kLength; ++t) {
      ASSERT_EQ(batch[m * kStride + t], expected[t]) << "m=" << m << " t=" << t;
    }
    for (size_t t = kLength; t < kStride; ++t) {
      ASSERT_EQ(batch[m * kStride + t], 0xAA) << "m=" << m << " t=" << t;
    }
  }
}

TEST(Rc4MultiStreamDeathTest, KeyBufferOfWrongSizeAborts) {
  const Bytes seven_keys(7 * 16);
  const Bytes nine_keys(9 * 16);
  EXPECT_DEATH((Rc4MultiStream<8>(seven_keys, 16)),
               "Rc4MultiStream: got 112 key bytes for 8 keys of 16 bytes");
  EXPECT_DEATH((Rc4MultiStream<8>(nine_keys, 16)),
               "Rc4MultiStream: got 144 key bytes for 8 keys of 16 bytes");
  EXPECT_DEATH((Rc4MultiStream<8>(Bytes(), 0)),
               "Rc4MultiStream: got 0 key bytes for 8 keys of 0 bytes");
}

// KeystreamRows: the short-term engine's and the TKIP model's key loop. Row
// counts straddle the lane width (full groups, M = 1 remainders, both), key
// sizes include one the KSA cycles, and bytes past the last row stay
// untouched.
TEST(KeystreamRowsTest, EveryRowMatchesScalar) {
  constexpr uint8_t kGuard = 0xAA;
  constexpr size_t kGuardBytes = 16;
  for (const size_t key_size : {size_t{16}, size_t{5}}) {
    for (const size_t rows : {size_t{1}, size_t{7}, size_t{8}, size_t{9}, size_t{17}}) {
      for (const uint64_t drop : {uint64_t{0}, uint64_t{1}, uint64_t{256}}) {
        for (const size_t length : {size_t{1}, size_t{16}, size_t{67}}) {
          const Bytes keys =
              RandomKeys(rows, key_size, rows * 1000 + drop * 10 + length + key_size);
          Bytes out(rows * length + kGuardBytes, kGuard);
          KeystreamRows(keys, key_size, drop, out.data(), length);
          for (size_t r = 0; r < rows; ++r) {
            const auto key =
                std::span<const uint8_t>(keys).subspan(r * key_size, key_size);
            const Bytes expected = ScalarReference(key, drop, length);
            const Bytes actual(out.begin() + r * length,
                               out.begin() + (r + 1) * length);
            ASSERT_EQ(actual, expected)
                << "key_size=" << key_size << " rows=" << rows << " row=" << r
                << " drop=" << drop << " length=" << length;
          }
          for (size_t t = rows * length; t < out.size(); ++t) {
            ASSERT_EQ(out[t], kGuard) << "rows=" << rows << " length=" << length;
          }
        }
      }
    }
  }
}

TEST(KeystreamRowsDeathTest, KeySpanOfPartialKeysAborts) {
  const Bytes keys(17);
  Bytes out(64);
  EXPECT_DEATH(KeystreamRows(keys, 16, 0, out.data(), 4),
               "KeystreamRows: 17 key bytes are not whole keys of 16 bytes");
  EXPECT_DEATH(KeystreamRows(keys, 0, 0, out.data(), 4),
               "KeystreamRows: 17 key bytes are not whole keys of 0 bytes");
}

// ------------------------------------------------------------------------
// Lane-kernel dispatch (src/rc4/kernel_registry.h). The last test sets
// process-wide environment variables; gtest runs this binary's tests
// serially, and the guard clears them again.

class DispatchEnvGuard {
 public:
  DispatchEnvGuard() { Clear(); }
  ~DispatchEnvGuard() { Clear(); }

 private:
  static void Clear() {
    ::unsetenv("RC4B_KERNEL");
    ::unsetenv("RC4B_AUTOTUNE_CACHE");
  }
};

TEST(CpuFeatureStringTest, NamesAesExactlyWhenKeygenUsesAesNi) {
  std::string features(",");
  features += CpuFeatureString();
  features += ',';
  EXPECT_EQ(features.find(",aes,") != std::string::npos, Aes128::UsesAesNi())
      << features;
}

TEST(ResolveKernelChoiceTest, InterleaveOneIsTheScalarOracle) {
  for (const std::string_view name : {"", "auto", "scalar"}) {
    const KernelChoice choice = ResolveKernelChoice(name, 1);
    EXPECT_EQ(choice.name(), "scalar") << name;
    EXPECT_EQ(choice.width, 1u);
  }
}

TEST(ResolveKernelChoiceTest, EveryOtherInterleaveIsTheLaneWidth) {
  // 0 is the default; every value other than 1 maps to the one lane width.
  for (const size_t interleave : {size_t{0}, size_t{2}, size_t{8}, size_t{16},
                                  size_t{1000}, SIZE_MAX}) {
    const KernelChoice choice = ResolveKernelChoice("", interleave);
    EXPECT_EQ(choice.name(), "scalar") << interleave;
    EXPECT_EQ(choice.width, kLaneWidth) << interleave;
  }
  EXPECT_EQ(kLaneWidth, 8u);
}

TEST(ResolveKernelChoiceTest, UnknownNameFallsBackToScalar) {
  const KernelChoice choice = ResolveKernelChoice("no-such-kernel", 0);
  EXPECT_EQ(choice.name(), "scalar");
  EXPECT_EQ(choice.width, kLaneWidth);
}

TEST(ResolveKernelChoiceTest, MakeBuildsOnlyTheLaneWidth) {
  const KernelDesc& desc = *ResolveKernelChoice("", 0).kernel;
  const auto kernel = desc.make(kLaneWidth);
  ASSERT_NE(kernel, nullptr);
  EXPECT_EQ(kernel->Width(), kLaneWidth);
  for (const size_t width : {size_t{1}, size_t{4}, size_t{16}, size_t{64}}) {
    EXPECT_EQ(desc.make(width), nullptr) << width;
  }
}

TEST(ResolveKernelChoiceTest, DispatchIgnoresKernelAndAutotuneEnvironment) {
  // Former overrides: a forced kernel name and a cached tuning choice for
  // this host, in the last format the cache reader accepted. Neither may
  // change what auto dispatch or the engine's auto batch size resolve to.
  DispatchEnvGuard guard;
  std::array<char, 256> host{};
  ASSERT_EQ(::gethostname(host.data(), host.size() - 1), 0);
  const std::string cache =
      ::testing::TempDir() + "rc4b_dispatch_env_test.autotune";
  {
    std::ofstream out(cache);
    out << "rc4b-autotune 1\nkernel scalar\nwidth 32\nbatch_keys 64\n"
           "ks_per_s 123456\nhost " << host.data()
        << "\ncpu_features baseline\n";
  }
  ::setenv("RC4B_KERNEL", "avx512", 1);
  ::setenv("RC4B_AUTOTUNE_CACHE", cache.c_str(), 1);

  const KernelChoice choice = ResolveKernelChoice("", 0);
  EXPECT_EQ(choice.name(), "scalar");
  EXPECT_EQ(choice.width, 8u);

  // batch_keys = 0 resolves to 256 rows per batch: with 257 keys the second
  // batch is a single row, so the engine's shard sees exactly two batches.
  class BatchCounter final : public BiasAccumulator {
   public:
    size_t KeystreamLength() const override { return 1; }
    std::unique_ptr<ShardSink> MakeShard() override {
      return std::make_unique<Sink>(&rows);
    }
    void MergeShard(ShardSink&, uint64_t) override {}
    std::vector<size_t> rows;

   private:
    struct Sink final : ShardSink {
      explicit Sink(std::vector<size_t>* out) : out(out) {}
      void Consume(const KeystreamBatch& batch) override {
        out->push_back(batch.rows);
      }
      std::vector<size_t>* out;
    };
  };
  EngineOptions options;
  options.keys = 257;
  options.workers = 1;
  options.batch_keys = 0;
  BatchCounter counter;
  RunKeystreamEngine(options, counter);
  EXPECT_EQ(counter.rows, (std::vector<size_t>{256, 1}));
  std::remove(cache.c_str());
}

}  // namespace
}  // namespace rc4b
