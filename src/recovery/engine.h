// The unified plaintext-recovery loop (docs/recovery.md).
//
// Both headline attacks of the paper are instances of one algorithm:
//   1. accumulate ciphertext statistics,
//   2. turn them into per-position likelihood tables (plain functions of
//      the statistics: TkipTrailerLikelihoods, CookieTransitionTables,
//      sim::SampleCookieTransitions, SingleByteLogLikelihood per row),
//   3. enumerate plaintext candidates in decreasing likelihood (Algorithm 1
//      for single-byte tables, Algorithm 2 for double-byte tables, both
//      streamed lazily),
//   4. test each candidate against a verification predicate — the CRC-32
//      relation between MIC and ICV for TKIP (Sect. 5.3), the server oracle
//      for HTTPS cookies (Sect. 6.2) — until one is accepted or the
//      candidate budget runs out.
// RecoveryEngine owns steps 3-4 and takes only the tables: callers build
// them with step 2's functions and pass their domain predicate.
// RecoverTkipTrailer (src/tkip/attack.h) wraps RecoverSingle with the CRC
// check; the cookie attack calls RecoverDouble with the server oracle; and
// every scenario in src/recovery/scenario.h runs through this loop.
#ifndef SRC_RECOVERY_ENGINE_H_
#define SRC_RECOVERY_ENGINE_H_

#include <cstdint>
#include <functional>
#include <span>

#include "src/core/candidates.h"

namespace rc4b::recovery {

// Accepts or rejects a candidate plaintext: the CRC/ICV consistency check, a
// (simulated) server query, or any other oracle. Returning true ends the
// traversal with this candidate.
using VerifyPredicate = std::function<bool(const Bytes&)>;

struct RecoveryOptions {
  // Candidate-traversal budget (the paper uses ~2^30 for TKIP, 2^23 for
  // cookies). The traversal also stops early if the candidate space is
  // exhausted.
  uint64_t max_candidates = uint64_t{1} << 20;
  // Optional ground truth for evaluation: when non-empty, the result's
  // `correct` flag marks whether the accepted candidate equals it.
  Bytes truth;
};

struct RecoveryResult {
  bool found = false;    // a candidate was accepted by the predicate
  bool correct = false;  // ... and it equals the configured truth
  // Candidates drawn from the enumerator: the accepted candidate's 1-based
  // position on success, or the total number tried on failure.
  uint64_t candidates_tried = 0;
  Bytes plaintext;               // the accepted candidate
  double log_likelihood = 0.0;   // its score
};

// Known boundary bytes around the unknown plaintext in the double-byte
// (Algorithm 2) pipeline: m1 precedes it, m_last follows it.
struct PairBoundary {
  uint8_t m1 = 0;
  uint8_t m_last = 0;
};

class RecoveryEngine {
 public:
  explicit RecoveryEngine(RecoveryOptions options)
      : options_(std::move(options)) {}

  const RecoveryOptions& options() const { return options_; }

  // Single-byte pipeline: lazy best-first traversal of Algorithm 1's
  // ordering (LazyCandidateEnumerator), testing each candidate against the
  // predicate. Empty tables yield an empty result.
  RecoveryResult RecoverSingle(const SingleByteTables& tables,
                               const VerifyPredicate& verify) const;

  // Double-byte pipeline: streams Algorithm 2 lazily
  // (LazyDoubleCandidateEnumerator, optionally restricted to `alphabet`),
  // testing each candidate against the predicate, so only the candidates up
  // to the accepted one are ever built. Fewer than two transition tables
  // yield an empty result.
  RecoveryResult RecoverDouble(const DoubleByteTables& transitions,
                               const PairBoundary& boundary,
                               std::span<const uint8_t> alphabet,
                               const VerifyPredicate& verify) const;

 private:
  RecoveryResult Accept(const Candidate& candidate, uint64_t tried) const;

  RecoveryOptions options_;
};

}  // namespace rc4b::recovery

#endif  // SRC_RECOVERY_ENGINE_H_
