#include "src/recovery/engine.h"

namespace rc4b::recovery {

RecoveryResult RecoveryEngine::Accept(const Candidate& candidate,
                                      uint64_t tried) const {
  RecoveryResult result;
  result.found = true;
  result.candidates_tried = tried;
  result.plaintext = candidate.plaintext;
  result.log_likelihood = candidate.log_likelihood;
  result.correct =
      !options_.truth.empty() && options_.truth == candidate.plaintext;
  return result;
}

RecoveryResult RecoveryEngine::RecoverSingle(
    const SingleByteTables& tables, const VerifyPredicate& verify) const {
  RecoveryResult result;
  if (tables.empty()) {
    return result;
  }
  LazyCandidateEnumerator enumerator(tables);
  for (uint64_t n = 0;
       n < options_.max_candidates && !enumerator.Exhausted(); ++n) {
    const Candidate candidate = enumerator.Next();
    result.candidates_tried = n + 1;
    if (verify(candidate.plaintext)) {
      return Accept(candidate, n + 1);
    }
  }
  return result;
}

RecoveryResult RecoveryEngine::RecoverDouble(
    const DoubleByteTables& transitions, const PairBoundary& boundary,
    std::span<const uint8_t> alphabet, const VerifyPredicate& verify) const {
  RecoveryResult result;
  if (transitions.size() < 2) {
    return result;  // Algorithm 2 needs at least one unknown byte
  }
  const auto candidates =
      GenerateCandidatesDouble(transitions, boundary.m1, boundary.m_last,
                               options_.max_candidates, alphabet);
  for (const Candidate& candidate : candidates) {
    ++result.candidates_tried;
    if (verify(candidate.plaintext)) {
      return Accept(candidate, result.candidates_tried);
    }
  }
  return result;
}

}  // namespace rc4b::recovery
