// Algorithm 2 as a list, for tests: the first n candidates of
// LazyDoubleCandidateEnumerator, which is how the library itself draws them.
// tests/core/eager_candidates_double.h builds the same list eagerly.
#ifndef TESTS_CORE_GENERATE_CANDIDATES_DOUBLE_H_
#define TESTS_CORE_GENERATE_CANDIDATES_DOUBLE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/core/candidates.h"

namespace rc4b {

inline std::vector<Candidate> GenerateCandidatesDouble(
    const DoubleByteTables& transitions, uint8_t m1, uint8_t m_last, size_t n,
    std::span<const uint8_t> alphabet = {}) {
  LazyDoubleCandidateEnumerator enumerator(transitions, m1, m_last, alphabet);
  std::vector<Candidate> out;
  while (out.size() < n && !enumerator.Exhausted()) {
    out.push_back(enumerator.Next());
  }
  return out;
}

}  // namespace rc4b

#endif  // TESTS_CORE_GENERATE_CANDIDATES_DOUBLE_H_
