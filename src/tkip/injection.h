// Packet-injection simulation (Sect. 5.2) and ciphertext-statistics capture.
//
// In the paper's live attack, a malicious server retransmits one identical
// TCP packet ~2500 times per second to the victim; the attacker sniffs the
// Wi-Fi side and collects one TKIP-encrypted copy per TSC. This module plays
// both roles in-process: it encrypts the same MSDU under incrementing TSCs
// with the *real* TKIP key mixing and RC4, and accumulates exactly the
// statistics the attacker would extract from captured frames — per-TSC1
// counts of the ciphertext bytes covering the unknown MIC and ICV fields.
#ifndef SRC_TKIP_INJECTION_H_
#define SRC_TKIP_INJECTION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/bytes.h"
#include "src/tkip/frame.h"

namespace rc4b {

// Ciphertext byte counts at positions [first_position, last_position]
// (1-based within the encrypted MSDU||MIC||ICV), bucketed by the TSC1 byte
// of the frame's public sequence counter.
class TkipCaptureStats {
 public:
  TkipCaptureStats(size_t first_position, size_t last_position);

  size_t first_position() const { return first_position_; }
  size_t last_position() const { return last_position_; }
  size_t position_count() const { return last_position_ - first_position_ + 1; }
  uint64_t frames() const { return frames_; }

  // Returns false — and records nothing — if the frame's ciphertext does not
  // cover last_position().
  bool AddFrame(const TkipFrame& frame);

  const uint64_t* Row(uint8_t tsc1, size_t pos) const {
    return counts_.data() + (static_cast<size_t>(tsc1) * position_count() +
                             (pos - first_position_)) *
                                256;
  }

 private:
  size_t first_position_;
  size_t last_position_;
  uint64_t frames_ = 0;
  std::vector<uint64_t> counts_;  // [tsc1][pos][byte]
};

// A "perfect-model" victim for Fig. 8/9-style simulations: keystream bytes
// at the trailer positions are drawn from a TkipTscModel's per-TSC1
// distributions instead of running the full cipher. Useful because an honest
// attacker model at the trailer positions needs ~2^36 keys (the paper's
// cluster scale) — this mode evaluates the attack machinery
// in the perfect-information limit at any --keys-per-tsc budget, while
// TkipInjectionSource below provides the fully faithful path.
class ModelVictimSource {
 public:
  // `plaintext` is the fixed MSDU||MIC||ICV; only positions
  // [model.first_position(), model.last_position()] of the emitted frames
  // carry meaningful ciphertext (the rest is zero-filled).
  ModelVictimSource(const class TkipTscModel& model, Bytes plaintext,
                    uint64_t initial_tsc, uint64_t seed);
  ~ModelVictimSource();

  TkipFrame NextFrame();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// A transmitting victim: encrypts one fixed MSDU under incrementing TSCs.
// Mirrors the attack setup where the injected TCP packet never changes but
// every retransmission uses a fresh per-packet RC4 key.
class TkipInjectionSource {
 public:
  TkipInjectionSource(TkipPeer peer, Bytes msdu, uint64_t initial_tsc = 1);

  // Encrypts and returns the next frame (TSC auto-increments).
  TkipFrame NextFrame();

  const TkipPeer& peer() const { return peer_; }
  const Bytes& msdu() const { return msdu_; }
  uint64_t tsc() const { return tsc_; }

 private:
  TkipPeer peer_;
  Bytes msdu_;
  uint64_t tsc_;
  TkipPhase1Key phase1_{};
  uint32_t phase1_iv32_ = 0;
  bool phase1_valid_ = false;
  Bytes plaintext_;  // MSDU || MIC || ICV, fixed across frames
};

}  // namespace rc4b

#endif  // SRC_TKIP_INJECTION_H_
