#include "src/core/rank.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <numeric>

namespace rc4b {

namespace {

[[noreturn, gnu::format(printf, 1, 2)]] void RankAbort(const char* format, ...) {
  va_list args;
  va_start(args, format);
  std::vfprintf(stderr, format, args);
  va_end(args);
  std::fputc('\n', stderr);
  std::abort();
}

// Chooses the score quantum so the truth's deficit from the per-position
// maxima sits near the middle of the tracked bin range.
double ChooseQuantum(double deficit, size_t bins) {
  const double usable = static_cast<double>(bins) * 0.45;
  return std::max(deficit / usable, 1e-9);
}

// The DP's cells: bins 0 .. ceil(x), where x is the truth's deficit in
// quanta, the sum of its unfloored per-step deficits.
struct Window {
  double x = 0.0;
  size_t truth_bin = 0;  // the sum of the truth's floored per-step deficits
  size_t width = 0;      // ceil(x) + 1
};

// ChooseQuantum puts x near 0.45 * bins, so the window ends well short of
// `bins`; only tiny `bins`, or sums of huge scores that cancel, miss that.
Window TruthWindow(std::span<const double> truth_units, size_t bins, const char* who) {
  Window window;
  for (const double units : truth_units) {
    window.x += units;
  }
  if (!(std::ceil(window.x) < static_cast<double>(bins))) {
    RankAbort("%s: the truth lies %.17g quanta deep, past the %zu bins", who, window.x,
              bins);
  }
  // A sum of non-negative terms bounds each term, so every cast is in range.
  for (const double units : truth_units) {
    window.truth_bin += static_cast<size_t>(units);
  }
  window.width = static_cast<size_t>(std::ceil(window.x)) + 1;
  return window;
}

// A step's deficit in whole quanta, or `width` (add nothing) if it reaches
// past the window.
size_t Offset(double units, size_t width) {
  return units < static_cast<double>(width) ? static_cast<size_t>(units) : width;
}

// dst[off + b] += src[b] for every off + b < width: the paths counted in
// src, each extended by a step `off` bins deep. Deficits never shrink, so a
// path pushed past the window cannot come back into it.
void AddShifted(double* __restrict dst, const double* __restrict src, size_t off,
                size_t width) {
  if (off >= width) {
    return;
  }
  dst += off;
  const size_t n = width - off;
  // Four vector adds per branch. With one, the loop's speed hung on where the
  // linker placed it: a change elsewhere in the library that moved this code
  // by 16 bytes cost MarkovRank 20-40%. Each cell still gets one add per
  // call, so the bins are unchanged.
#pragma GCC unroll 4
  for (size_t b = 0; b < n; ++b) {
    dst[b] += src[b];
  }
}

// Reads the bracket off `paths`, the count of whole candidates per bin,
// after `steps` floored steps: a candidate in bin b has its deficit in
// [b, b + steps).
RankBracket ReadBracket(std::span<const double> paths, const Window& window,
                        size_t steps) {
  const auto below = [&](size_t end) {
    return std::accumulate(paths.begin(), paths.begin() + end, 0.0);
  };
  RankBracket bracket;
  const size_t floor_x = static_cast<size_t>(window.x);
  bracket.lower = floor_x > steps ? below(floor_x - steps) : 0.0;
  // truth_bin <= x, so the truth is one of the counted paths.
  bracket.upper = below(paths.size()) - 1.0;
  const double floored_lower = below(window.truth_bin);
  const double floored_upper =
      std::max(floored_lower + paths[window.truth_bin] - 1.0, floored_lower);
  bracket.estimate = 0.5 * (floored_lower + floored_upper);
  return bracket;
}

}  // namespace

RankBracket IndependentRank(const SingleByteTables& tables,
                            std::span<const uint8_t> truth, size_t bins) {
  const size_t length = truth.size();
  if (length == 0) {
    RankAbort("IndependentRank: the truth is empty");
  }
  if (tables.size() != length) {
    RankAbort("IndependentRank: got %zu tables for a %zu-byte truth", tables.size(),
              length);
  }
  for (size_t r = 0; r < length; ++r) {
    if (tables[r].size() != 256) {
      RankAbort("IndependentRank: table %zu has %zu entries, needs 256", r,
                tables[r].size());
    }
  }

  std::vector<double> row_max(length);
  double best_sum = 0.0;
  double truth_sum = 0.0;
  for (size_t r = 0; r < length; ++r) {
    row_max[r] = *std::max_element(tables[r].begin(), tables[r].end());
    best_sum += row_max[r];
    truth_sum += tables[r][truth[r]];
  }
  const double quantum = ChooseQuantum(best_sum - truth_sum, bins);
  std::vector<double> truth_units(length);
  for (size_t r = 0; r < length; ++r) {
    truth_units[r] = (row_max[r] - tables[r][truth[r]]) / quantum;
  }
  const Window window = TruthWindow(truth_units, bins, "IndependentRank");

  // dist[b] = number of prefixes whose per-position floored deficits sum to
  // b. Each cell gets its addends in a fixed order, source bin ascending and
  // then value ascending; the source bin is the cell minus the value's
  // offset, so values are visited by offset descending, ties by value.
  std::vector<double> dist(window.width, 0.0);
  std::vector<double> next(window.width);
  dist[0] = 1.0;
  for (size_t r = 0; r < length; ++r) {
    std::array<size_t, 256> offsets;
    for (size_t v = 0; v < 256; ++v) {
      offsets[v] = Offset((row_max[r] - tables[r][v]) / quantum, window.width);
    }
    std::array<size_t, 256> order;
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) { return offsets[a] > offsets[b]; });
    std::fill(next.begin(), next.end(), 0.0);
    for (const size_t v : order) {
      AddShifted(next.data(), dist.data(), offsets[v], window.width);
    }
    dist.swap(next);
  }
  return ReadBracket(dist, window, length);
}

RankBracket MarkovRank(const DoubleByteTables& transitions, uint8_t m1,
                       uint8_t m_last, std::span<const uint8_t> truth,
                       std::span<const uint8_t> alphabet, size_t bins) {
  const size_t inner = truth.size();
  if (inner == 0) {
    RankAbort("MarkovRank: the truth is empty");
  }
  if (transitions.size() != inner + 1) {
    RankAbort("MarkovRank: got %zu transition tables for a %zu-byte truth, needs %zu",
              transitions.size(), inner, inner + 1);
  }
  for (size_t t = 0; t <= inner; ++t) {
    if (transitions[t].size() != 65536) {
      RankAbort("MarkovRank: transition table %zu has %zu entries, needs 65536", t,
                transitions[t].size());
    }
  }
  if (alphabet.empty()) {
    RankAbort("MarkovRank: the alphabet is empty");
  }
  std::array<bool, 256> in_alphabet{};
  for (const uint8_t value : alphabet) {
    if (in_alphabet[value]) {
      RankAbort("MarkovRank: the alphabet repeats byte 0x%02x", value);
    }
    in_alphabet[value] = true;
  }
  for (size_t i = 0; i < inner; ++i) {
    if (!in_alphabet[truth[i]]) {
      RankAbort("MarkovRank: truth byte %zu (0x%02x) is not in the alphabet", i,
                truth[i]);
    }
  }

  // Transition t runs from a byte of sources(t) to a byte of targets(t):
  // m1 -> alphabet, alphabet -> alphabet, ..., alphabet -> m_last.
  const std::array<uint8_t, 1> start = {m1};
  const std::array<uint8_t, 1> end = {m_last};
  const auto sources = [&](size_t t) {
    return t == 0 ? std::span<const uint8_t>(start) : alphabet;
  };
  const auto targets = [&](size_t t) {
    return t == inner ? std::span<const uint8_t>(end) : alphabet;
  };
  const auto score = [&](size_t t, uint8_t u, uint8_t v) {
    return transitions[t][static_cast<size_t>(u) * 256 + v];
  };
  const auto truth_score = [&](size_t t) {
    return score(t, t == 0 ? m1 : truth[t - 1], t == inner ? m_last : truth[t]);
  };

  // Truth score and an upper bound on the best path score (sum of per-
  // transition maxima over the alphabet — not necessarily attainable, which
  // only costs some bin headroom).
  std::vector<double> maxima(inner + 1, -std::numeric_limits<double>::infinity());
  double best_sum = 0.0;
  double truth_sum = 0.0;
  for (size_t t = 0; t <= inner; ++t) {
    for (const uint8_t u : sources(t)) {
      for (const uint8_t v : targets(t)) {
        maxima[t] = std::max(maxima[t], score(t, u, v));
      }
    }
    best_sum += maxima[t];
    truth_sum += truth_score(t);
  }
  const double quantum = ChooseQuantum(best_sum - truth_sum, bins);
  std::vector<double> truth_units(inner + 1);
  for (size_t t = 0; t <= inner; ++t) {
    truth_units[t] = (maxima[t] - truth_score(t)) / quantum;
  }
  const Window window = TruthWindow(truth_units, bins, "MarkovRank");

  // dist[i * width + b]: number of paths ending in sources(t)[i] whose
  // per-transition floored deficits sum to b; row 0 starts as the empty
  // path at m1. Each cell gets its addends by source index ascending, one
  // per source. Target rows are filled one at a time, so the row being
  // summed stays in L1 and `dist` (about 1 MB for a 64-symbol alphabet) is
  // only read; that keeps the step within the core's own L2.
  const size_t width = window.width;
  std::vector<double> dist(alphabet.size() * width, 0.0);
  std::vector<double> next(alphabet.size() * width);
  dist[0] = 1.0;
  for (size_t t = 0; t <= inner; ++t) {
    const auto from = sources(t);
    const auto to = targets(t);
    for (size_t vi = 0; vi < to.size(); ++vi) {
      double* row = next.data() + vi * width;
      std::fill(row, row + width, 0.0);
      for (size_t ui = 0; ui < from.size(); ++ui) {
        const size_t off =
            Offset((maxima[t] - score(t, from[ui], to[vi])) / quantum, width);
        AddShifted(row, dist.data() + ui * width, off, width);
      }
    }
    dist.swap(next);
  }
  return ReadBracket(std::span<const double>(dist.data(), width), window, inner + 1);
}

Bytes MarkovBest(const DoubleByteTables& transitions, uint8_t m1, uint8_t m_last,
                 size_t inner_length, std::span<const uint8_t> alphabet) {
  if (inner_length == 0) {
    RankAbort("MarkovBest: the length is zero");
  }
  if (transitions.size() != inner_length + 1) {
    RankAbort("MarkovBest: got %zu transition tables for length %zu, needs %zu",
              transitions.size(), inner_length, inner_length + 1);
  }
  for (size_t t = 0; t <= inner_length; ++t) {
    if (transitions[t].size() != 65536) {
      RankAbort("MarkovBest: transition table %zu has %zu entries, needs 65536", t,
                transitions[t].size());
    }
  }
  if (alphabet.empty()) {
    RankAbort("MarkovBest: the alphabet is empty");
  }
  const size_t a_size = alphabet.size();
  std::vector<std::vector<uint32_t>> backptr(inner_length,
                                             std::vector<uint32_t>(a_size, 0));
  std::vector<double> score(a_size);
  for (size_t vi = 0; vi < a_size; ++vi) {
    score[vi] = transitions[0][static_cast<size_t>(m1) * 256 + alphabet[vi]];
  }
  std::vector<double> next_score(a_size);
  for (size_t t = 1; t < inner_length; ++t) {
    for (size_t vi = 0; vi < a_size; ++vi) {
      double best = -std::numeric_limits<double>::infinity();
      uint32_t arg = 0;
      for (size_t ui = 0; ui < a_size; ++ui) {
        const double s = score[ui] + transitions[t][static_cast<size_t>(alphabet[ui]) *
                                                        256 +
                                                    alphabet[vi]];
        if (s > best) {
          best = s;
          arg = static_cast<uint32_t>(ui);
        }
      }
      next_score[vi] = best;
      backptr[t][vi] = arg;
    }
    score.swap(next_score);
  }
  double best = -std::numeric_limits<double>::infinity();
  uint32_t arg = 0;
  for (size_t ui = 0; ui < a_size; ++ui) {
    const double s = score[ui] + transitions[inner_length]
                                     [static_cast<size_t>(alphabet[ui]) * 256 + m_last];
    if (s > best) {
      best = s;
      arg = static_cast<uint32_t>(ui);
    }
  }
  Bytes out(inner_length);
  uint32_t vi = arg;
  for (size_t t = inner_length; t-- > 0;) {
    out[t] = alphabet[vi];
    if (t > 0) {
      vi = backptr[t][vi];
    }
  }
  return out;
}

}  // namespace rc4b
