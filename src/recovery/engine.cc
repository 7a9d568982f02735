#include "src/recovery/engine.h"

namespace rc4b::recovery {
namespace {

// Draws candidates from `enumerator` until `verify` accepts one, the budget
// runs out or the candidate space is exhausted.
template <typename Enumerator>
RecoveryResult Traverse(const RecoveryOptions& options, Enumerator& enumerator,
                        const VerifyPredicate& verify) {
  RecoveryResult result;
  for (uint64_t n = 0;
       n < options.max_candidates && !enumerator.Exhausted(); ++n) {
    const Candidate candidate = enumerator.Next();
    result.candidates_tried = n + 1;
    if (verify(candidate.plaintext)) {
      result.found = true;
      result.plaintext = candidate.plaintext;
      result.log_likelihood = candidate.log_likelihood;
      result.correct =
          !options.truth.empty() && options.truth == candidate.plaintext;
      return result;
    }
  }
  return result;
}

}  // namespace

RecoveryResult RecoveryEngine::RecoverSingle(
    const SingleByteTables& tables, const VerifyPredicate& verify) const {
  if (tables.empty()) {
    return {};
  }
  LazyCandidateEnumerator enumerator(tables);
  return Traverse(options_, enumerator, verify);
}

RecoveryResult RecoveryEngine::RecoverDouble(
    const DoubleByteTables& transitions, const PairBoundary& boundary,
    std::span<const uint8_t> alphabet, const VerifyPredicate& verify) const {
  if (transitions.size() < 2) {
    return {};  // Algorithm 2 needs at least one unknown byte
  }
  LazyDoubleCandidateEnumerator enumerator(transitions, boundary.m1,
                                           boundary.m_last, alphabet);
  return Traverse(options_, enumerator, verify);
}

}  // namespace rc4b::recovery
