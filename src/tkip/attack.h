// The WPA-TKIP attack of Sect. 5: decrypt the injected packet's unknown
// MIC + ICV bytes from captured ciphertext statistics, prune candidates by
// the CRC-32 relation between MIC and ICV, and derive the Michael MIC key
// from the decrypted packet.
//
// Pipeline:
//   1. Per-position single-byte log-likelihoods from per-TSC1 keystream
//      models, multiplied over TSC classes (Paterson-style, Sect. 5.1).
//   2. Candidate traversal in decreasing likelihood (lazy enumeration of
//      Algorithm 1's ordering) pruning candidates whose ICV does not match
//      the CRC of the known MSDU plus candidate MIC (Sect. 5.3).
//   3. Michael key recovery from the decrypted MIC (invertible Michael).
//
// Steps 1-2 are instances of the unified recovery pipeline: step 1 is
// TkipTrailerLikelihoods and step 2 runs on the RecoveryEngine with the CRC
// relation as its verification predicate (docs/recovery.md); this module
// keeps the TKIP-specific glue and the Michael inversion.
#ifndef SRC_TKIP_ATTACK_H_
#define SRC_TKIP_ATTACK_H_

#include <cstdint>
#include <optional>

#include "src/core/candidates.h"
#include "src/crypto/michael.h"
#include "src/tkip/injection.h"
#include "src/tkip/tsc_model.h"

namespace rc4b {

// Per-position log-likelihood tables for the unknown trailer bytes, computed
// from captured ciphertext statistics and the attacker's per-TSC1 model:
//   lambda_pos(mu) = sum_tsc1 sum_c counts[tsc1][pos][c] * log p[tsc1][pos][c ^ mu].
// Positions covered: [stats.first_position(), stats.last_position()]. The
// stats and model position ranges must match; on a mismatch the function
// returns empty tables instead of reading out of bounds.
SingleByteTables TkipTrailerLikelihoods(const TkipCaptureStats& stats,
                                        const TkipTscModel& model);

struct TkipAttackResult {
  bool found = false;            // a candidate with a consistent ICV was found
  bool correct = false;          // ... and it equals the true trailer
  // Candidates drawn from the enumerator: the accepted candidate's 1-based
  // position on success, or the total number tried on failure.
  uint64_t candidates_tried = 0;
  Bytes trailer;                 // recovered MIC || ICV
  MichaelKey mic_key;            // derived from the recovered MIC
};

// Runs the candidate traversal. `known_msdu` is the plaintext MSDU (headers +
// payload, assumed known per Sect. 5.3), `likelihoods` are the 12 trailer
// tables (anything else returns an empty result), `max_candidates` bounds the
// traversal (paper: ~2^30); it also stops early if the enumerator exhausts
// the candidate space. `true_trailer` (optional, for evaluation) marks
// whether the accepted candidate is actually correct.
TkipAttackResult RecoverTkipTrailer(std::span<const uint8_t> known_msdu,
                                    const SingleByteTables& likelihoods,
                                    uint64_t max_candidates,
                                    std::span<const uint8_t> true_trailer,
                                    const TkipPeer& peer);

// True iff `trailer` (MIC || ICV) is internally consistent with `msdu`:
// CRC-32(msdu || mic) == icv. This is the pruning predicate; it does not need
// any key material. A trailer of the wrong size is never consistent.
bool TkipTrailerConsistent(std::span<const uint8_t> msdu,
                           std::span<const uint8_t> trailer);

}  // namespace rc4b

#endif  // SRC_TKIP_ATTACK_H_
