#include "src/core/candidates.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>

namespace rc4b {

namespace {

// Backpointer entry of Algorithm 1's rounds.
struct Entry {
  double score;
  uint8_t value;      // byte appended at this round
  uint32_t prev;      // index into the previous round's entry list
};

// Heap node for merging sorted candidate streams: (previous-entry index,
// value/stream identifier). Defined at namespace scope so std::priority_queue
// can find operator< (hidden friends of function-local classes are not
// visible to name lookup).
struct StreamHeapNode {
  double score;
  uint32_t prev_index;
  uint32_t stream;
  friend bool operator<(const StreamHeapNode& a, const StreamHeapNode& b) {
    return a.score < b.score;
  }
};

std::vector<uint8_t> FullAlphabet() {
  std::vector<uint8_t> a(256);
  std::iota(a.begin(), a.end(), 0);
  return a;
}

}  // namespace

std::vector<Candidate> GenerateCandidatesSingle(const SingleByteTables& likelihoods,
                                                size_t n) {
  const size_t length = likelihoods.size();
  assert(length > 0);

  // rounds[r] holds the candidates of length r+1 in decreasing likelihood,
  // as backpointer entries into rounds[r-1].
  std::vector<std::vector<Entry>> rounds(length);

  std::vector<Entry> previous{{0.0, 0, 0}};  // the empty prefix
  for (size_t r = 0; r < length; ++r) {
    assert(likelihoods[r].size() == 256);
    // Sort byte values by their log-likelihood once; then merge the 256
    // streams (previous candidate index, value rank) with a heap. This is
    // Algorithm 1 with the per-value position pointers pos(mu) made explicit.
    std::array<std::pair<double, uint8_t>, 256> sorted_values;
    for (size_t mu = 0; mu < 256; ++mu) {
      sorted_values[mu] = {likelihoods[r][mu], static_cast<uint8_t>(mu)};
    }
    std::sort(sorted_values.begin(), sorted_values.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });

    std::priority_queue<StreamHeapNode> heap;
    for (uint32_t vr = 0; vr < 256; ++vr) {
      heap.push(StreamHeapNode{previous[0].score + sorted_values[vr].first, 0, vr});
    }
    std::vector<Entry>& current = rounds[r];
    const size_t want = std::min<size_t>(n, previous.size() * 256);
    while (current.size() < want && !heap.empty()) {
      const StreamHeapNode top = heap.top();
      heap.pop();
      current.push_back(Entry{top.score, sorted_values[top.stream].second,
                              top.prev_index});
      if (top.prev_index + 1 < previous.size()) {
        heap.push(StreamHeapNode{previous[top.prev_index + 1].score +
                                     sorted_values[top.stream].first,
                                 top.prev_index + 1, top.stream});
      }
    }
    previous = current;
  }

  // Reconstruct plaintexts by walking backpointers.
  std::vector<Candidate> out;
  out.reserve(rounds.back().size());
  for (size_t i = 0; i < rounds.back().size(); ++i) {
    Candidate c;
    c.log_likelihood = rounds.back()[i].score;
    c.plaintext.resize(length);
    uint32_t index = static_cast<uint32_t>(i);
    for (size_t r = length; r-- > 0;) {
      c.plaintext[r] = rounds[r][index].value;
      index = rounds[r][index].prev;
    }
    out.push_back(std::move(c));
  }
  return out;
}

LazyCandidateEnumerator::LazyCandidateEnumerator(const SingleByteTables& likelihoods)
    : length_(likelihoods.size()) {
  sorted_.resize(length_);
  double best_score = 0.0;
  for (size_t r = 0; r < length_; ++r) {
    if (likelihoods[r].size() != 256) {
      std::fprintf(stderr,
                   "Algorithm 1: likelihood table %zu has %zu entries, needs 256\n",
                   r, likelihoods[r].size());
      std::abort();
    }
    sorted_[r].resize(256);
    for (size_t mu = 0; mu < 256; ++mu) {
      sorted_[r][mu] = {likelihoods[r][mu], static_cast<uint8_t>(mu)};
    }
    std::sort(sorted_[r].begin(), sorted_[r].end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    best_score += sorted_[r][0].first;
  }
  heap_.push(Node{best_score, std::vector<uint8_t>(length_, 0)});
}

Candidate LazyCandidateEnumerator::Next() {
  assert(!heap_.empty());
  const Node top = heap_.top();
  heap_.pop();
  ++popped_;

  // Successor rule: from a node, bump the rank at every position at or after
  // the last non-zero rank position. This generates each rank vector exactly
  // once (a vector's unique parent decrements its final non-zero rank).
  size_t first_successor_pos = 0;
  for (size_t r = 0; r < length_; ++r) {
    if (top.ranks[r] != 0) {
      first_successor_pos = r;
    }
  }
  for (size_t r = first_successor_pos; r < length_; ++r) {
    if (top.ranks[r] == 255) {
      continue;
    }
    Node child = top;
    child.score += sorted_[r][top.ranks[r] + 1].first - sorted_[r][top.ranks[r]].first;
    ++child.ranks[r];
    heap_.push(std::move(child));
  }

  Candidate c;
  c.log_likelihood = top.score;
  c.plaintext.resize(length_);
  for (size_t r = 0; r < length_; ++r) {
    c.plaintext[r] = sorted_[r][top.ranks[r]].second;
  }
  return c;
}

LazyDoubleCandidateEnumerator::LazyDoubleCandidateEnumerator(
    const DoubleByteTables& transitions, uint8_t m1, uint8_t m_last,
    std::span<const uint8_t> alphabet) {
  if (transitions.size() < 2) {
    std::fprintf(stderr,
                 "Algorithm 2: got %zu transition tables, needs at least 2 "
                 "(one unknown byte)\n",
                 transitions.size());
    std::abort();
  }
  for (size_t t = 0; t < transitions.size(); ++t) {
    if (transitions[t].size() != 65536) {
      std::fprintf(stderr,
                   "Algorithm 2: transition table %zu has %zu entries, needs 65536\n",
                   t, transitions[t].size());
      std::abort();
    }
  }
  alphabet_ = alphabet.empty() ? FullAlphabet()
                               : std::vector<uint8_t>(alphabet.begin(), alphabet.end());
  std::array<bool, 256> seen{};
  for (const uint8_t value : alphabet_) {
    if (seen[value]) {
      std::fprintf(stderr, "Algorithm 2: the alphabet repeats byte 0x%02x\n", value);
      std::abort();
    }
    seen[value] = true;
  }

  inner_ = transitions.size() - 1;
  const size_t a = alphabet_.size();
  pair_.resize((inner_ - 1) * a * a);
  for (size_t t = 1; t < inner_; ++t) {
    for (size_t v = 0; v < a; ++v) {
      for (size_t u = 0; u < a; ++u) {
        pair_[((t - 1) * a + v) * a + u] =
            transitions[t][static_cast<size_t>(alphabet_[u]) * 256 + alphabet_[v]];
      }
    }
  }
  last_.resize(a);
  for (size_t v = 0; v < a; ++v) {
    last_[v] = transitions[inner_][static_cast<size_t>(alphabet_[v]) * 256 + m_last];
  }

  // Transition 0 (m1 -> first unknown byte) gives each list (0, v) its one
  // entry; later lists are seeded when first asked for an entry.
  lists_.resize(inner_ * a);
  for (uint32_t v = 0; v < a; ++v) {
    List& list = ListAt(0, v);
    list.entries.push_back(
        ListEntry{transitions[0][static_cast<size_t>(m1) * 256 + alphabet_[v]], 0, 0});
  }
  for (uint32_t v = 0; v < a; ++v) {
    Reach(inner_ - 1, v, 0);
    heap_.push(HeapNode{ListAt(inner_ - 1, v).entries[0].score + last_[v], 0, v});
  }
}

bool LazyDoubleCandidateEnumerator::Reach(size_t t, uint32_t value_index,
                                          uint32_t index) {
  // `list` stays valid: lists_ never resizes, and the recursion below only
  // grows the entry vectors of lists at t - 1, which are re-indexed after
  // each call. A list at t >= 1 pops its first entry as soon as it is
  // seeded, so an empty list is one not seeded yet.
  List& list = ListAt(t, value_index);
  if (list.entries.empty()) {
    for (uint32_t u = 0; u < alphabet_.size(); ++u) {
      Reach(t - 1, u, 0);
      list.heap.push(HeapNode{ListAt(t - 1, u).entries[0].score + Pair(t, u, value_index),
                              0, u});
    }
  }
  while (list.entries.size() <= index && !list.heap.empty()) {
    const HeapNode top = list.heap.top();
    list.heap.pop();
    list.entries.push_back(ListEntry{top.score, top.stream, top.prev_index});
    const uint32_t next = top.prev_index + 1;
    if (Reach(t - 1, top.stream, next)) {
      list.heap.push(HeapNode{ListAt(t - 1, top.stream).entries[next].score +
                                  Pair(t, top.stream, value_index),
                              next, top.stream});
    }
  }
  return index < list.entries.size();
}

Candidate LazyDoubleCandidateEnumerator::Next() {
  assert(!heap_.empty());
  const HeapNode top = heap_.top();
  heap_.pop();

  Candidate c;
  c.log_likelihood = top.score;
  c.plaintext.resize(inner_);
  uint32_t value_index = top.stream;
  uint32_t list_index = top.prev_index;
  for (size_t t = inner_; t-- > 0;) {
    c.plaintext[t] = alphabet_[value_index];
    const ListEntry& e = ListAt(t, value_index).entries[list_index];
    value_index = e.prev_value_index;
    list_index = e.prev_list_index;
  }

  const uint32_t next = top.prev_index + 1;
  if (Reach(inner_ - 1, top.stream, next)) {
    heap_.push(HeapNode{ListAt(inner_ - 1, top.stream).entries[next].score +
                            last_[top.stream],
                        next, top.stream});
  }
  return c;
}

}  // namespace rc4b
