// Per-TSC keystream distribution models for the TKIP attack (Sect. 5.1).
//
// Paterson et al. observed that because the first three RC4 key bytes are a
// public function of the TSC, the keystream distribution at each position
// depends strongly on the TSC. The paper regenerated such per-(TSC0, TSC1)
// statistics with 2^32 keys per TSC pair (10 CPU-years).
//
// Substitution: we condition on TSC1 only — TSC1 determines
// the first *two* key bytes (K0 = TSC1, K1 = (TSC1|0x20) & 0x7f) and thus
// carries the dominant key-structure bias — and marginalize over TSC0 by
// sampling it uniformly. This shrinks the model from 65536 to 256 classes:
// at 2^14 keys per class it generates in about half a second on 4 cores,
// through the engine's lockstep key loop (KeystreamRows, src/rc4/rc4_multi.h).
// `keys_per_class` scales fidelity, and `SetRow` admits externally trained
// (including full per-(TSC0, TSC1)) distributions.
#ifndef SRC_TKIP_TSC_MODEL_H_
#define SRC_TKIP_TSC_MODEL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/bytes.h"

namespace rc4b {

class TkipTscModel {
 public:
  // Positions are 1-based keystream positions [first_position, last_position].
  TkipTscModel(size_t first_position, size_t last_position);

  size_t first_position() const { return first_position_; }
  size_t last_position() const { return last_position_; }
  size_t position_count() const { return last_position_ - first_position_ + 1; }

  // log Pr[Z_pos = value | TSC1 = tsc1], pos 1-based within the range.
  const double* LogRow(uint8_t tsc1, size_t pos) const {
    return log_p_.data() + (static_cast<size_t>(tsc1) * position_count() +
                            (pos - first_position_)) *
                               256;
  }

  double LogProb(uint8_t tsc1, size_t pos, uint8_t value) const {
    return LogRow(tsc1, pos)[value];
  }

  // Pr[Z_pos = value | TSC1] (exp of the stored log-probability).
  double Probability(uint8_t tsc1, size_t pos, uint8_t value) const;

  uint64_t keys_per_class() const { return keys_per_class_; }

  // Estimates the model by sampling `keys_per_class` keys per TSC1 value with
  // the paper's key model: K0..K2 fixed by the TSC, remaining 13 bytes (and
  // TSC0) uniformly random. Laplace smoothing (+1) keeps log-probabilities
  // finite at small sample sizes.
  void Generate(uint64_t keys_per_class, uint64_t seed, unsigned workers = 0);

  // Overrides one conditional distribution (256 probabilities, need not be
  // normalized — stored as log). For tests and externally-trained models.
  void SetRow(uint8_t tsc1, size_t pos, std::span<const double> probabilities);

  // Rescales every conditional distribution toward uniform:
  //   p <- 1/256 + factor * (p - 1/256).
  // Used by the perfect-model simulation harness to calibrate the model's
  // effective bias magnitude to the measured real per-TSC1 signal (a model
  // estimated from K keys/class carries sampling noise of RMS 16/sqrt(K)
  // relative, which would otherwise act as inflated bias).
  void ShrinkTowardUniform(double factor);

  // RMS relative deviation from uniform across all cells.
  double RmsRelativeDeviation() const;

 private:
  size_t first_position_;
  size_t last_position_;
  uint64_t keys_per_class_ = 0;
  std::vector<double> log_p_;  // [tsc1][pos][value]
};

}  // namespace rc4b

#endif  // SRC_TKIP_TSC_MODEL_H_
