// Plaintext candidate lists in decreasing likelihood (Sect. 4.4).
//
// Three generators are provided:
//   * Algorithm 1 of the paper: incremental N-best over single-byte
//     likelihoods, length by length.
//   * A lazy best-first enumerator over single-byte likelihoods. It yields
//     candidates one at a time in exactly the same order, with memory
//     proportional to the number of candidates popped — this is what the
//     TKIP attack uses to traverse a huge candidate space until a CRC match.
//   * Algorithm 2 of the paper, which streams lazily: an N-best list-Viterbi
//     decoder over double-byte (Markov / HMM transition) likelihoods with
//     known first and last bytes and an optional restricted plaintext
//     alphabet (the cookie character-set optimization of Sect. 6.2). Each
//     per-(transition, value) list grows only when a later list asks for an
//     entry it does not have yet (lazy k-best after Huang & Chiang, "Better
//     k-best parsing", IWPT 2005, Algorithm 3), so time and memory grow
//     with the candidates drawn, not with N for every (transition, value)
//     pair.
#ifndef SRC_CORE_CANDIDATES_H_
#define SRC_CORE_CANDIDATES_H_

#include <cstdint>
#include <queue>
#include <span>
#include <vector>

#include "src/common/bytes.h"

namespace rc4b {

struct Candidate {
  Bytes plaintext;
  double log_likelihood = 0.0;
};

// Per-position single-byte log-likelihood tables: likelihoods[r][mu] for
// 0 <= r < L, 0 <= mu < 256.
using SingleByteTables = std::vector<std::vector<double>>;

// Algorithm 1: the N most likely plaintexts of length likelihoods.size().
std::vector<Candidate> GenerateCandidatesSingle(const SingleByteTables& likelihoods,
                                                size_t n);

// Lazy best-first enumeration of the same ordering.
class LazyCandidateEnumerator {
 public:
  explicit LazyCandidateEnumerator(const SingleByteTables& likelihoods);

  // Returns the next most likely candidate. Never exhausts before 256^L
  // candidates have been returned; callers must check Exhausted() first.
  Candidate Next();

  // True once all 256^L candidates have been returned: calling Next() again
  // would be invalid.
  bool Exhausted() const { return heap_.empty(); }

  uint64_t popped() const { return popped_; }

 private:
  struct Node {
    double score;
    std::vector<uint8_t> ranks;  // per-position index into the sorted table
    friend bool operator<(const Node& a, const Node& b) { return a.score < b.score; }
  };

  size_t length_;
  // sorted_[r][k] = (log-likelihood, byte value) of the k-th best value.
  std::vector<std::vector<std::pair<double, uint8_t>>> sorted_;
  std::priority_queue<Node> heap_;
  uint64_t popped_ = 0;
};

// Double-byte transition tables for Algorithm 2: transitions[t] is a 65536
// log-likelihood table for the pair (byte_t, byte_{t+1}) of the padded
// plaintext m1 || P || mL; t ranges over 0 .. L-2 where L = |P| + 2.
using DoubleByteTables = std::vector<std::vector<double>>;

// Algorithm 2 as a stream: the plaintexts (inner bytes only, |P| =
// transitions.size() - 1 bytes) in decreasing likelihood given the known
// boundary bytes m1 and mL, with inner bytes restricted to `alphabet`
// (empty = all 256). The first n candidates drawn are Algorithm 2's N-best
// list for N = n.
//
// Tie order. List (t, v) holds the best prefixes of length t + 1 ending in
// alphabet value v. Its entries come from a std::priority_queue that merges
// one stream per alphabet index u of list (t - 1, u), each stream's entries
// extended by transition t from u to v. The heap is seeded with entry 0 of
// every stream in increasing u, and each pop pushes the popped stream's next
// entry, if it has one. The final stream merges the lists (|P| - 1, v) the
// same way, extended by the transition into mL. Equal scores therefore come
// out in whatever order those heaps pop them. That order depends only on the
// tables and the alphabet order, never on how far the stream has been
// drawn; tests/core/eager_candidates_double.h builds the same N-best list
// eagerly, and the tests compare the two candidate for candidate.
//
// The enumerator copies the table entries it needs, so `transitions` and
// `alphabet` may go away after construction. It aborts with a message,
// also in Release builds, unless there are at least 2 transition tables,
// each of 65536 entries, and the alphabet has no repeated value.
class LazyDoubleCandidateEnumerator {
 public:
  LazyDoubleCandidateEnumerator(const DoubleByteTables& transitions, uint8_t m1,
                                uint8_t m_last, std::span<const uint8_t> alphabet = {});

  // Returns the next most likely candidate; callers must check Exhausted()
  // first.
  Candidate Next();

  // True once all |alphabet|^|P| candidates have been returned.
  bool Exhausted() const { return heap_.empty(); }

 private:
  struct ListEntry {
    double score;
    uint32_t prev_value_index;  // list (t - 1, prev_value_index) ...
    uint32_t prev_list_index;   // ... entry prev_list_index
  };
  struct HeapNode {
    double score;
    uint32_t prev_index;  // entry index in the stream's source list
    uint32_t stream;      // alphabet index of the source list
    friend bool operator<(const HeapNode& a, const HeapNode& b) {
      return a.score < b.score;
    }
  };
  struct List {
    std::vector<ListEntry> entries;      // the entries asked for so far
    std::priority_queue<HeapNode> heap;  // the merge that extends them
  };

  List& ListAt(size_t t, uint32_t value_index) {
    return lists_[t * alphabet_.size() + value_index];
  }
  // Transition t's log-likelihood from alphabet index u to v, 1 <= t < |P|.
  double Pair(size_t t, uint32_t u, uint32_t v) const {
    return pair_[((t - 1) * alphabet_.size() + v) * alphabet_.size() + u];
  }
  // True if list (t, v) has an entry at `index`, extending it as needed.
  bool Reach(size_t t, uint32_t value_index, uint32_t index);

  size_t inner_;                    // |P|
  std::vector<uint8_t> alphabet_;
  std::vector<double> pair_;        // Pair(t, u, v) for 1 <= t < |P|
  std::vector<double> last_;        // last_[v]: transition |P| into mL
  std::vector<List> lists_;         // ListAt(t, v) for 0 <= t < |P|
  std::priority_queue<HeapNode> heap_;  // the final merge into mL
};

// Algorithm 2: the first n candidates of LazyDoubleCandidateEnumerator.
std::vector<Candidate> GenerateCandidatesDouble(const DoubleByteTables& transitions,
                                                uint8_t m1, uint8_t m_last, size_t n,
                                                std::span<const uint8_t> alphabet = {});

}  // namespace rc4b

#endif  // SRC_CORE_CANDIDATES_H_
