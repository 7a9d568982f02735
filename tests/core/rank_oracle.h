// Test-only oracle: the rank DPs that src/core/rank.cc ran before its DP
// stopped at the truth's window. They walk every bin up to a sticky overflow
// bin, test each source cell for zero and clamp each target index. The
// windowed DP must give the same floored-bin estimate, bit for bit, on any
// input these accept.
#ifndef TESTS_CORE_RANK_ORACLE_H_
#define TESTS_CORE_RANK_ORACLE_H_

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "src/core/candidates.h"

namespace rc4b {

// The oracle's bracket: `lower` counts paths whose floored bin is below the
// truth's, `upper` adds those tying it, the truth excluded.
struct OracleRankBracket {
  double lower = 0.0;
  double upper = 0.0;
  double estimate() const { return 0.5 * (lower + upper); }
};

// Chooses the score quantum so the truth's deficit from the per-position
// maxima sits near the middle of the tracked bin range.
inline double OracleChooseQuantum(double deficit, size_t bins) {
  const double usable = static_cast<double>(bins) * 0.45;
  return std::max(deficit / usable, 1e-9);
}

inline OracleRankBracket OracleIndependentRank(const SingleByteTables& tables,
                                               std::span<const uint8_t> truth,
                                               size_t bins = 1 << 14) {
  const size_t length = tables.size();
  assert(truth.size() == length);

  double best_sum = 0.0;
  double truth_sum = 0.0;
  for (size_t r = 0; r < length; ++r) {
    best_sum += *std::max_element(tables[r].begin(), tables[r].end());
    truth_sum += tables[r][truth[r]];
  }
  const double quantum = OracleChooseQuantum(best_sum - truth_sum, bins);

  // dist[b] = number of prefixes whose score deficit from the running best is
  // in [b * quantum, (b + 1) * quantum). Index `bins` is a sticky overflow
  // bucket for candidates too unlikely to matter. The truth's bin is computed
  // through the same per-position floor pipeline so quantization error
  // affects truth and competitors identically.
  std::vector<double> dist(bins + 1, 0.0);
  dist[0] = 1.0;
  std::vector<double> next(bins + 1, 0.0);
  size_t truth_bin = 0;
  for (size_t r = 0; r < length; ++r) {
    const double row_max = *std::max_element(tables[r].begin(), tables[r].end());
    // Per-value deficits in quanta.
    std::array<size_t, 256> offsets;
    for (size_t v = 0; v < 256; ++v) {
      const double deficit = (row_max - tables[r][v]) / quantum;
      offsets[v] = deficit >= static_cast<double>(bins)
                       ? bins
                       : static_cast<size_t>(deficit);
    }
    truth_bin = std::min(truth_bin + offsets[truth[r]], bins);
    std::fill(next.begin(), next.end(), 0.0);
    for (size_t b = 0; b <= bins; ++b) {
      if (dist[b] == 0.0) {
        continue;
      }
      if (b == bins) {
        next[bins] += dist[b] * 256.0;
        continue;
      }
      for (size_t v = 0; v < 256; ++v) {
        const size_t nb = std::min(b + offsets[v], bins);
        next[nb] += dist[b];
      }
    }
    dist.swap(next);
  }
  OracleRankBracket bracket;
  for (size_t b = 0; b < truth_bin; ++b) {
    bracket.lower += dist[b];
  }
  bracket.upper = bracket.lower + dist[truth_bin] - 1.0;  // exclude truth itself
  bracket.upper = std::max(bracket.upper, bracket.lower);
  return bracket;
}

inline OracleRankBracket OracleMarkovRank(const DoubleByteTables& transitions, uint8_t m1,
                                          uint8_t m_last, std::span<const uint8_t> truth,
                                          std::span<const uint8_t> alphabet,
                                          size_t bins = 1 << 12) {
  const size_t inner = truth.size();
  assert(transitions.size() == inner + 1);
  assert(!alphabet.empty());
  const size_t a_size = alphabet.size();

  // Truth score and an upper bound on the best path score (sum of per-
  // transition maxima over the alphabet — not necessarily attainable, which
  // only costs some bin headroom).
  double truth_sum = transitions[0][static_cast<size_t>(m1) * 256 + truth[0]];
  for (size_t t = 1; t < inner; ++t) {
    truth_sum += transitions[t][static_cast<size_t>(truth[t - 1]) * 256 + truth[t]];
  }
  truth_sum += transitions[inner][static_cast<size_t>(truth[inner - 1]) * 256 + m_last];

  double best_sum = 0.0;
  for (size_t t = 0; t <= inner; ++t) {
    double m = -std::numeric_limits<double>::infinity();
    for (size_t ui = 0; ui < a_size; ++ui) {
      const size_t u = (t == 0) ? m1 : alphabet[ui];
      for (size_t vi = 0; vi < a_size; ++vi) {
        const size_t v = (t == inner) ? m_last : alphabet[vi];
        m = std::max(m, transitions[t][u * 256 + v]);
        if (t == inner) {
          break;  // only one end value
        }
      }
      if (t == 0) {
        break;  // only one start value
      }
    }
    best_sum += m;
  }
  const double quantum = OracleChooseQuantum(best_sum - truth_sum, bins);

  // dist[vi][b]: number of paths ending in alphabet[vi] whose deficit from
  // the running per-transition maxima is bin b. The truth's bin accumulates
  // through the same per-transition floor pipeline as the DP.
  const size_t width = bins + 1;
  std::vector<double> dist(a_size * width, 0.0);
  std::vector<double> next(a_size * width, 0.0);
  size_t truth_bin = 0;
  const auto quantize = [&](double deficit_units) {
    return deficit_units >= static_cast<double>(bins)
               ? bins
               : static_cast<size_t>(deficit_units);
  };
  {
    double m = -std::numeric_limits<double>::infinity();
    for (size_t vi = 0; vi < a_size; ++vi) {
      m = std::max(m, transitions[0][static_cast<size_t>(m1) * 256 + alphabet[vi]]);
    }
    truth_bin = std::min(
        truth_bin +
            quantize((m - transitions[0][static_cast<size_t>(m1) * 256 + truth[0]]) /
                     quantum),
        bins);
    for (size_t vi = 0; vi < a_size; ++vi) {
      const double deficit =
          (m - transitions[0][static_cast<size_t>(m1) * 256 + alphabet[vi]]) / quantum;
      dist[vi * width + quantize(deficit)] += 1.0;
    }
  }

  for (size_t t = 1; t < inner; ++t) {
    double m = -std::numeric_limits<double>::infinity();
    for (size_t ui = 0; ui < a_size; ++ui) {
      for (size_t vi = 0; vi < a_size; ++vi) {
        m = std::max(m, transitions[t][static_cast<size_t>(alphabet[ui]) * 256 +
                                       alphabet[vi]]);
      }
    }
    truth_bin = std::min(
        truth_bin + quantize((m - transitions[t][static_cast<size_t>(truth[t - 1]) *
                                                     256 +
                                                 truth[t]]) /
                             quantum),
        bins);
    std::fill(next.begin(), next.end(), 0.0);
    for (size_t ui = 0; ui < a_size; ++ui) {
      for (size_t vi = 0; vi < a_size; ++vi) {
        const double deficit =
            (m - transitions[t][static_cast<size_t>(alphabet[ui]) * 256 +
                                alphabet[vi]]) /
            quantum;
        const size_t off = quantize(deficit);
        const double* src = dist.data() + ui * width;
        double* dst = next.data() + vi * width;
        for (size_t b = 0; b <= bins; ++b) {
          if (src[b] != 0.0) {
            dst[std::min(b + off, bins)] += src[b];
          }
        }
      }
    }
    dist.swap(next);
  }

  // Final transition into m_last.
  {
    double m = -std::numeric_limits<double>::infinity();
    for (size_t ui = 0; ui < a_size; ++ui) {
      m = std::max(m, transitions[inner][static_cast<size_t>(alphabet[ui]) * 256 +
                                         m_last]);
    }
    truth_bin = std::min(
        truth_bin +
            quantize((m - transitions[inner][static_cast<size_t>(truth[inner - 1]) *
                                                 256 +
                                             m_last]) /
                     quantum),
        bins);
    std::fill(next.begin(), next.begin() + width, 0.0);
    for (size_t ui = 0; ui < a_size; ++ui) {
      const double deficit =
          (m - transitions[inner][static_cast<size_t>(alphabet[ui]) * 256 + m_last]) /
          quantum;
      const size_t off = quantize(deficit);
      const double* src = dist.data() + ui * width;
      for (size_t b = 0; b <= bins; ++b) {
        if (src[b] != 0.0) {
          next[std::min(b + off, bins)] += src[b];
        }
      }
    }
  }
  OracleRankBracket bracket;
  for (size_t b = 0; b < truth_bin; ++b) {
    bracket.lower += next[b];
  }
  bracket.upper = bracket.lower + next[truth_bin] - 1.0;
  bracket.upper = std::max(bracket.upper, bracket.lower);
  return bracket;
}

}  // namespace rc4b

#endif  // TESTS_CORE_RANK_ORACLE_H_
