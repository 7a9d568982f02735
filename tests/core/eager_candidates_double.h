// Test-only oracle: the eager Algorithm 2 list that src/core/candidates.cc
// built before it streamed candidates lazily. It materialises n entries for
// every (transition, alphabet value) pair, then merges the last transition
// into one list. The lazy stream must equal its output candidate for
// candidate, ties included, for every n.
#ifndef TESTS_CORE_EAGER_CANDIDATES_DOUBLE_H_
#define TESTS_CORE_EAGER_CANDIDATES_DOUBLE_H_

#include <cassert>
#include <cstdint>
#include <numeric>
#include <queue>
#include <span>
#include <vector>

#include "src/core/candidates.h"

namespace rc4b {

// Heap node for merging sorted candidate streams: (previous-entry index,
// value/stream identifier).
struct EagerHeapNode {
  double score;
  uint32_t prev_index;
  uint32_t stream;
  friend bool operator<(const EagerHeapNode& a, const EagerHeapNode& b) {
    return a.score < b.score;
  }
};

inline std::vector<uint8_t> EagerFullAlphabet() {
  std::vector<uint8_t> a(256);
  std::iota(a.begin(), a.end(), 0);
  return a;
}

inline std::vector<Candidate> EagerCandidatesDouble(const DoubleByteTables& transitions,
                                                    uint8_t m1, uint8_t m_last, size_t n,
                                                    std::span<const uint8_t> alphabet = {}) {
  const std::vector<uint8_t> full =
      alphabet.empty() ? EagerFullAlphabet() : std::vector<uint8_t>();
  const std::span<const uint8_t> a = alphabet.empty() ? std::span<const uint8_t>(full)
                                                      : alphabet;
  const size_t inner = transitions.size() - 1;  // number of unknown bytes
  assert(inner >= 1);

  // lists[t][value_index] = N-best entries for prefixes ending in a[value_index]
  // after consuming transition t. Entries point into lists[t-1].
  // An entry's `prev` packs (previous value index, index in its list).
  struct ListEntry {
    double score;
    uint32_t prev_value_index;
    uint32_t prev_list_index;
  };
  std::vector<std::vector<std::vector<ListEntry>>> lists(inner);

  // Transition 0: m1 -> first unknown byte.
  assert(transitions[0].size() == 65536);
  lists[0].resize(a.size());
  for (size_t vi = 0; vi < a.size(); ++vi) {
    const double score = transitions[0][static_cast<size_t>(m1) * 256 + a[vi]];
    lists[0][vi].push_back(ListEntry{score, 0, 0});
  }

  // Transitions between unknown bytes.
  for (size_t t = 1; t < inner; ++t) {
    assert(transitions[t].size() == 65536);
    lists[t].resize(a.size());
    for (size_t vi = 0; vi < a.size(); ++vi) {
      const uint8_t mu2 = a[vi];
      // Merge |A| sorted streams: stream ui yields
      // lists[t-1][ui][j].score + log lambda_t(a[ui], mu2) for j = 0, 1, ...
      std::priority_queue<EagerHeapNode> heap;
      for (uint32_t ui = 0; ui < a.size(); ++ui) {
        if (!lists[t - 1][ui].empty()) {
          const double trans =
              transitions[t][static_cast<size_t>(a[ui]) * 256 + mu2];
          heap.push(EagerHeapNode{lists[t - 1][ui][0].score + trans, 0, ui});
        }
      }
      auto& out_list = lists[t][vi];
      while (out_list.size() < n && !heap.empty()) {
        const EagerHeapNode top = heap.top();
        heap.pop();
        out_list.push_back(ListEntry{top.score, top.stream, top.prev_index});
        const auto& src = lists[t - 1][top.stream];
        if (top.prev_index + 1 < src.size()) {
          const double trans =
              transitions[t][static_cast<size_t>(a[top.stream]) * 256 + mu2];
          heap.push(EagerHeapNode{src[top.prev_index + 1].score + trans,
                                   top.prev_index + 1, top.stream});
        }
      }
    }
  }

  // Final transition: last unknown byte -> m_last. Merge into one list.
  const auto& final_table = transitions[inner];
  assert(final_table.size() == 65536);
  std::priority_queue<EagerHeapNode> heap;
  for (uint32_t vi = 0; vi < a.size(); ++vi) {
    if (!lists[inner - 1][vi].empty()) {
      const double trans = final_table[static_cast<size_t>(a[vi]) * 256 + m_last];
      heap.push(EagerHeapNode{lists[inner - 1][vi][0].score + trans, 0, vi});
    }
  }
  std::vector<Candidate> out;
  while (out.size() < n && !heap.empty()) {
    const EagerHeapNode top = heap.top();
    heap.pop();
    Candidate c;
    c.log_likelihood = top.score;
    c.plaintext.resize(inner);
    uint32_t value_index = top.stream;
    uint32_t list_index = top.prev_index;
    for (size_t t = inner; t-- > 0;) {
      c.plaintext[t] = a[value_index];
      const ListEntry& e = lists[t][value_index][list_index];
      value_index = e.prev_value_index;
      list_index = e.prev_list_index;
    }
    out.push_back(std::move(c));
    const auto& src = lists[inner - 1][top.stream];
    if (top.prev_index + 1 < src.size()) {
      const double trans =
          final_table[static_cast<size_t>(a[top.stream]) * 256 + m_last];
      heap.push(EagerHeapNode{src[top.prev_index + 1].score + trans,
                               top.prev_index + 1, top.stream});
    }
  }
  return out;
}

}  // namespace rc4b

#endif  // TESTS_CORE_EAGER_CANDIDATES_DOUBLE_H_
