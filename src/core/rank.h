// Candidate-rank computation.
//
// The paper's Fig. 8–10 evaluate success rates with candidate lists of up to
// ~2^30 entries. Materializing such lists is infeasible (tens of GB), but the
// success criterion only needs the *rank* of the true plaintext: the number
// of candidates with strictly higher likelihood. Because likelihood scores
// are sums of per-position (or per-transition) terms, ranks can be counted
// with a histogram-convolution dynamic program over quantized scores.
//
// The DP works in quanta of score. A candidate's deficit is its score's
// distance below the sum of the per-position maxima, in quanta; its bin b is
// the sum of its per-position deficits, each floored, so over L positions
// the deficit lies in [b, b + L). The quantum puts the truth's deficit x at
// about 0.45 * bins, and since deficits only grow along a path, the DP
// tracks just bins 0 .. ceil(x). See docs/sim.md ("Rank DP").
//
// Both functions abort with a message, also in Release builds, on an empty
// truth, table counts or sizes that do not fit it, an empty or repeating
// alphabet, a truth byte outside the alphabet, or a truth whose deficit does
// not fit below `bins` (only tiny `bins`, or scores so large that their sums
// cancel, get there).
#ifndef SRC_CORE_RANK_H_
#define SRC_CORE_RANK_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/core/candidates.h"

namespace rc4b {

struct RankBracket {
  // Bounds on the rank with one bin of floating-point slack on each side:
  // `lower` counts the candidates with b + L <= x - 1, which surely score
  // above the truth; `upper` counts those with b < x + 1, which may, less
  // the truth itself.
  double lower = 0.0;
  double upper = 0.0;
  // Midpoint of the count below the truth's own floored bin and that count
  // plus the candidates tying that bin. It lies in [lower, upper], but the
  // pair it averages can miss the rank (by ~2% at depth), so it is an
  // estimate, not a bound. The benchmarks report it.
  double estimate = 0.0;
};

// Rank of `truth` among all 256^L sequences under independent per-position
// scores. `bins` trades accuracy for time (default suits 12-byte TKIP runs).
RankBracket IndependentRank(const SingleByteTables& tables,
                            std::span<const uint8_t> truth, size_t bins = 1 << 14);

// Rank of the inner plaintext `truth` among all |alphabet|^L sequences under
// Markov transition scores with known boundary bytes (Algorithm 2's model).
// `transitions` has |truth| + 1 tables (m1 -> P_0, ..., P_last -> m_last).
RankBracket MarkovRank(const DoubleByteTables& transitions, uint8_t m1,
                       uint8_t m_last, std::span<const uint8_t> truth,
                       std::span<const uint8_t> alphabet, size_t bins = 1 << 12);

// Viterbi: the single most likely inner plaintext under the same model.
Bytes MarkovBest(const DoubleByteTables& transitions, uint8_t m1, uint8_t m_last,
                 size_t inner_length, std::span<const uint8_t> alphabet);

}  // namespace rc4b

#endif  // SRC_CORE_RANK_H_
