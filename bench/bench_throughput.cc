// Substrate micro-throughput (google-benchmark): the building blocks whose
// speed determined the paper's practical rates (Sect. 5.4: ~2500 injected
// packets/s; Sect. 6.3: ~4450 HTTPS requests/s, 20000 cookie tests/s).
// For machine-readable output use google-benchmark's own flags, e.g.
// --benchmark_out=throughput.json --benchmark_out_format=json.
#include <benchmark/benchmark.h>

#include "src/biases/fluhrer_mcgrew.h"
#include "src/common/rng.h"
#include "src/core/candidates.h"
#include "src/core/likelihood.h"
#include "src/engine/accumulators.h"
#include "src/engine/keystream_engine.h"
#include "src/crypto/aes128.h"
#include "src/crypto/crc32.h"
#include "src/crypto/hmac.h"
#include "src/crypto/michael.h"
#include "src/crypto/sha1.h"
#include "src/rc4/rc4.h"
#include "src/rc4/rc4_multi.h"
#include "src/tkip/frame.h"
#include "src/tkip/key_mixing.h"
#include "src/tls/cookie_attack.h"
#include "src/tls/record.h"

namespace rc4b {
namespace {

Bytes RandomBytes(size_t n, uint64_t seed) {
  Xoshiro256 rng(seed);
  Bytes out(n);
  rng.Fill(out);
  return out;
}

void BM_Rc4Ksa(benchmark::State& state) {
  const Bytes key = RandomBytes(16, 1);
  for (auto _ : state) {
    Rc4 rc4(key);
    benchmark::DoNotOptimize(rc4);
  }
}
BENCHMARK(BM_Rc4Ksa);

void BM_Rc4Keystream(benchmark::State& state) {
  const Bytes key = RandomBytes(16, 2);
  Rc4 rc4(key);
  Bytes buffer(state.range(0));
  for (auto _ : state) {
    rc4.Keystream(buffer);
    benchmark::DoNotOptimize(buffer.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Rc4Keystream)->Arg(256)->Arg(4096);

// Interleaved kernel KSA: M lockstep key schedules per iteration. The
// per-key rate versus BM_Rc4Ksa is the KSA half of the engine's short-term
// speedup (256 swaps per key dominate 16-byte first16-style datasets).
template <size_t M>
void BM_Rc4MultiKsa(benchmark::State& state) {
  const Bytes keys = RandomBytes(M * 16, 21);
  for (auto _ : state) {
    Rc4MultiStream<M> streams(keys, 16);
    benchmark::DoNotOptimize(streams);
  }
  state.SetItemsProcessed(state.iterations() * M);
}
BENCHMARK_TEMPLATE(BM_Rc4MultiKsa, 4);
BENCHMARK_TEMPLATE(BM_Rc4MultiKsa, 8);
BENCHMARK_TEMPLATE(BM_Rc4MultiKsa, 16);
BENCHMARK_TEMPLATE(BM_Rc4MultiKsa, 32);

// Interleaved kernel PRGA: bytes/sec across all M streams (row stride =
// keystream length, as in the engine's batch buffer). Compare against
// BM_Rc4Keystream at the same length for the per-core PRGA speedup; this
// sweep and the KSA one above are how to re-check kLaneWidth on new hardware.
// M = 1 is the long-term engine's remainder width, to compare with
// BM_Rc4Keystream/4096.
template <size_t M>
void BM_Rc4MultiKeystream(benchmark::State& state) {
  const Bytes keys = RandomBytes(M * 16, 22);
  Rc4MultiStream<M> streams(keys, 16);
  const size_t length = static_cast<size_t>(state.range(0));
  Bytes buffer(M * length);
  for (auto _ : state) {
    streams.Keystream(buffer.data(), length, length);
    benchmark::DoNotOptimize(buffer.data());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(M * length));
}
BENCHMARK_TEMPLATE(BM_Rc4MultiKeystream, 1)->Arg(4096);
BENCHMARK_TEMPLATE(BM_Rc4MultiKeystream, 4)->Arg(256);
BENCHMARK_TEMPLATE(BM_Rc4MultiKeystream, 8)->Arg(256)->Arg(4096);
BENCHMARK_TEMPLATE(BM_Rc4MultiKeystream, 16)->Arg(256);
BENCHMARK_TEMPLATE(BM_Rc4MultiKeystream, 32)->Arg(256);

// Arg is the read size: one RC4 key (16 B), one lane group of keys (128 B),
// and a long run (4096 B).
void BM_AesCtr(benchmark::State& state) {
  Aes128Ctr ctr(RandomBytes(16, 3));
  Bytes buffer(state.range(0));
  for (auto _ : state) {
    ctr.Generate(buffer);
    benchmark::DoNotOptimize(buffer.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AesCtr)->Arg(16)->Arg(128)->Arg(4096);

void BM_Sha1(benchmark::State& state) {
  const Bytes data = RandomBytes(512, 4);
  for (auto _ : state) {
    auto digest = Sha1::Digest(data);
    benchmark::DoNotOptimize(digest.data());
  }
  state.SetBytesProcessed(state.iterations() * 512);
}
BENCHMARK(BM_Sha1);

void BM_HmacSha1(benchmark::State& state) {
  const Bytes key = RandomBytes(20, 5);
  const Bytes data = RandomBytes(512, 6);
  for (auto _ : state) {
    auto mac = HmacSha1::Digest(key, data);
    benchmark::DoNotOptimize(mac.data());
  }
  state.SetBytesProcessed(state.iterations() * 512);
}
BENCHMARK(BM_HmacSha1);

// Arg = buffer bytes: 8 (TKIP's per-candidate Crc32Update), 1500 (a frame),
// 1 MiB (grid-file sections).
void BM_Crc32(benchmark::State& state) {
  const Bytes data = RandomBytes(state.range(0), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(8)->Arg(1500)->Arg(1 << 20);

void BM_MichaelMic(benchmark::State& state) {
  const MichaelKey key{0x12345678, 0x9abcdef0};
  const Bytes data = RandomBytes(64, 8);
  for (auto _ : state) {
    auto mic = MichaelMic(key, data);
    benchmark::DoNotOptimize(mic.data());
  }
}
BENCHMARK(BM_MichaelMic);

void BM_MichaelKeyRecovery(benchmark::State& state) {
  const MichaelKey key{0x12345678, 0x9abcdef0};
  const Bytes data = RandomBytes(64, 9);
  const auto mic = MichaelMic(key, data);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MichaelRecoverKey(data, mic));
  }
}
BENCHMARK(BM_MichaelKeyRecovery);

void BM_TkipKeyMixing(benchmark::State& state) {
  const Bytes tk = RandomBytes(16, 10);
  const Bytes ta = RandomBytes(6, 11);
  uint64_t tsc = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(TkipMixKey(tk, ta, ++tsc));
  }
}
BENCHMARK(BM_TkipKeyMixing);

// One full injected-packet encryption: the victim-side cost bounding the
// paper's ~2500 packets/s live rate.
void BM_TkipEncapsulate(benchmark::State& state) {
  Xoshiro256 rng(12);
  TkipPeer peer;
  rng.Fill(peer.tk);
  peer.mic_key = MichaelKey{1, 2};
  rng.Fill(peer.ta);
  rng.Fill(peer.da);
  rng.Fill(peer.sa);
  const Bytes msdu = RandomBytes(55, 13);
  uint64_t tsc = 0;
  for (auto _ : state) {
    auto frame = TkipEncapsulate(peer, msdu, ++tsc);
    benchmark::DoNotOptimize(frame.ciphertext.data());
  }
}
BENCHMARK(BM_TkipEncapsulate);

// One 492-byte HTTPS request: the victim-side cost bounding ~4450 requests/s.
void BM_TlsSealRequest(benchmark::State& state) {
  const Bytes mac_key = RandomBytes(20, 14);
  const Bytes rc4_key = RandomBytes(16, 15);
  TlsWriteState writer(mac_key, rc4_key);
  const Bytes payload = RandomBytes(492, 16);
  for (auto _ : state) {
    auto record = writer.Seal(payload);
    benchmark::DoNotOptimize(record.data());
  }
  state.SetBytesProcessed(state.iterations() * 492);
}
BENCHMARK(BM_TlsSealRequest);

// Sparse double-byte likelihood over the FM cells: the per-pair cost of the
// TLS attack's estimate (paper: ~2^19 operations instead of 2^32).
void BM_SparseDoubleByteLikelihood(benchmark::State& state) {
  const auto model = FmSparseModel(17, 1 << 20);
  Xoshiro256 rng(17);
  std::vector<uint64_t> counts(65536);
  for (auto& c : counts) {
    c = rng() & 0xff;
  }
  for (auto _ : state) {
    auto lambda = DoubleByteLogLikelihoodSparse(counts, 1 << 24, model);
    benchmark::DoNotOptimize(lambda.data());
  }
}
BENCHMARK(BM_SparseDoubleByteLikelihood);

// Sharded keystream-statistics engine: the dataset hot path under every
// attack scenario. Args are {shard count (0 = all cores), interleave
// (1 = scalar reference path, 0 = lane kernel)}; items/sec is keystreams/sec.
// tests/engine/engine_multi_test.cc checks the two paths agree bit for bit.
void BM_EngineSingleByteStats(benchmark::State& state) {
  EngineOptions options;
  options.keys = 1 << 14;
  options.workers = static_cast<unsigned>(state.range(0));
  options.interleave = static_cast<size_t>(state.range(1));
  options.seed = 19;
  for (auto _ : state) {
    SingleByteAccumulator accumulator(256);
    RunKeystreamEngine(options, accumulator);
    benchmark::DoNotOptimize(accumulator.grid().keys());
  }
  state.SetItemsProcessed(state.iterations() * options.keys);
}
BENCHMARK(BM_EngineSingleByteStats)->Args({1, 1})->Args({1, 0})->Args({0, 0});

void BM_EngineDigraphStats(benchmark::State& state) {
  EngineOptions options;
  options.keys = 1 << 14;
  options.workers = static_cast<unsigned>(state.range(0));
  options.interleave = static_cast<size_t>(state.range(1));
  options.seed = 20;
  for (auto _ : state) {
    ConsecutiveAccumulator accumulator(256);
    RunKeystreamEngine(options, accumulator);
    benchmark::DoNotOptimize(accumulator.grid().keys());
  }
  state.SetItemsProcessed(state.iterations() * options.keys);
}
BENCHMARK(BM_EngineDigraphStats)->Args({1, 1})->Args({1, 0})->Args({0, 0});

// Candidate generation throughput (paper: 20000 cookies tested per second,
// dominated by candidate generation + HTTP pipelining).
void BM_LazyCandidateEnumeration(benchmark::State& state) {
  Xoshiro256 rng(18);
  SingleByteTables tables(12, std::vector<double>(256));
  for (auto& table : tables) {
    for (auto& v : table) {
      v = -rng.UnitDouble();
    }
  }
  LazyCandidateEnumerator enumerator(tables);
  for (auto _ : state) {
    benchmark::DoNotOptimize(enumerator.Next());
  }
}
BENCHMARK(BM_LazyCandidateEnumeration);

// Algorithm 2 streamed lazily, as the cookie brute force draws it: one
// 16-character cookie over the 64-symbol alphabet, the first N candidates
// from a fresh enumerator per iteration (N = the argument).
void BM_Algorithm2Stream(benchmark::State& state) {
  Xoshiro256 rng(19);
  DoubleByteTables transitions(17, std::vector<double>(65536));
  for (auto& table : transitions) {
    for (auto& v : table) {
      v = -rng.UnitDouble() * 4.0;
    }
  }
  const std::vector<uint8_t> alphabet = CookieAlphabet64();
  const auto n = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    LazyDoubleCandidateEnumerator enumerator(transitions, '=', ';', alphabet);
    for (uint64_t i = 0; i < n; ++i) {
      benchmark::DoNotOptimize(enumerator.Next());
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_Algorithm2Stream)->Arg(1 << 10)->Arg(1 << 13)->Arg(1 << 16);

}  // namespace
}  // namespace rc4b

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
