// Quickstart: the library in five minutes.
//   1. Run RC4 and see a classic keystream bias with your own eyes.
//   2. Detect it soundly with a hypothesis test (Sect. 3.1 of the paper).
//   3. Recover a plaintext byte from many ciphertexts via Bayesian
//      likelihoods (Sect. 4.1), then walk a candidate list (Sect. 4.4).
//
// Build & run:  ./build/examples/quickstart
#include <cctype>
#include <cstdio>

#include "src/biases/bias_scan.h"
#include "src/common/rng.h"
#include "src/core/candidates.h"
#include "src/core/likelihood.h"
#include "src/rc4/rc4.h"
#include "src/stats/tests.h"
#include "src/store/grid_cache.h"

using namespace rc4b;

int main() {
  // --- 1. RC4 and the Mantin-Shamir bias -------------------------------
  std::printf("== 1. The second keystream byte is biased toward zero ==\n");
  const uint64_t keys = 1 << 18;
  store::GridMeta meta;
  meta.kind = store::GridKind::kSingleByte;
  meta.seed = 42;
  meta.key_end = keys;
  meta.rows = 2;
  const SingleByteGrid grid =
      store::ToSingleByteGrid(store::LoadOrGenerateGrid(meta, 0, ""));
  std::printf("Pr[Z2 = 0] over %llu random 128-bit keys: %.5f (uniform: %.5f)\n",
              static_cast<unsigned long long>(keys), grid.Probability(1, 0),
              1.0 / 256);

  // --- 2. Sound detection with a proportion test ------------------------
  std::printf("\n== 2. Detecting it with a hypothesis test ==\n");
  const TestResult test = ProportionTest(grid.Count(1, 0), keys, 1.0 / 256);
  std::printf("proportion z-test: z = %.1f, p-value = %.3g -> %s\n",
              test.statistic, test.p_value,
              test.p_value < kPaperAlpha ? "BIASED (null rejected)"
                                         : "no detection");

  // --- 3. Plaintext recovery from the bias ------------------------------
  std::printf("\n== 3. Recovering a plaintext byte from 2^20 ciphertexts ==\n");
  // A fixed plaintext byte is encrypted under many keys; only the second
  // keystream byte's distribution makes the plaintext recoverable.
  const uint8_t secret = 'S';
  Xoshiro256 rng(7);
  std::vector<uint64_t> ciphertext_counts(256, 0);
  Bytes key(16);
  for (int k = 0; k < (1 << 20); ++k) {
    rng.Fill(key);
    Rc4 rc4(key);
    rc4.Next();                       // Z1
    const uint8_t z2 = rc4.Next();    // Z2, biased toward 0
    ciphertext_counts[secret ^ z2] += 1;
  }
  // Keystream model: the empirical Z2 distribution from step 1.
  std::vector<double> model(256);
  for (int v = 0; v < 256; ++v) {
    model[v] = grid.Probability(1, static_cast<uint8_t>(v));
  }
  const auto lambda = SingleByteLogLikelihood(ciphertext_counts,
                                              LogProbabilities(model));
  const uint8_t best = static_cast<uint8_t>(ArgMax(lambda));
  std::printf("most likely plaintext byte: '%c' (true: '%c') -> %s\n", best,
              secret, best == secret ? "recovered" : "missed");

  // --- 4. Candidate lists ----------------------------------------------
  std::printf("\n== 4. The five most likely candidates in order ==\n");
  const auto candidates = GenerateCandidatesSingle({lambda}, 5);
  for (size_t i = 0; i < candidates.size(); ++i) {
    std::printf("  #%zu: 0x%02x ('%c')  log-likelihood %.2f\n", i + 1,
                candidates[i].plaintext[0],
                isprint(candidates[i].plaintext[0]) ? candidates[i].plaintext[0]
                                                    : '?',
                candidates[i].log_likelihood);
  }
  std::printf("\nNext steps: examples/bias_hunter.cpp (Sect. 3), "
              "examples/tkip_attack.cpp (Sect. 5), "
              "examples/https_cookie.cpp (Sect. 6).\n");
  return 0;
}
