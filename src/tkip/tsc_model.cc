#include "src/tkip/tsc_model.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/core/likelihood.h"
#include "src/rc4/rc4.h"
#include "src/tkip/key_mixing.h"

namespace rc4b {

TkipTscModel::TkipTscModel(size_t first_position, size_t last_position)
    : first_position_(first_position), last_position_(last_position) {
  if (first_position < 1 || first_position > last_position) {
    std::fprintf(stderr,
                 "TkipTscModel: positions [%zu, %zu] need 1 <= first <= last\n",
                 first_position, last_position);
    std::abort();
  }
  log_p_.assign(256 * position_count() * 256, 0.0);
}

void TkipTscModel::Generate(uint64_t keys_per_class, uint64_t seed, unsigned workers) {
  keys_per_class_ = keys_per_class;
  const size_t positions = position_count();
  std::vector<uint64_t> counts(256 * positions * 256, 0);
  std::mutex merge_mutex;

  // Shard the 256 TSC1 classes across workers.
  ParallelChunks(256, workers, [&](unsigned w, uint64_t begin, uint64_t end) {
    (void)w;
    std::vector<uint64_t> local((end - begin) * positions * 256, 0);
    std::vector<uint8_t> keystream(last_position_);
    for (uint64_t tsc1 = begin; tsc1 < end; ++tsc1) {
      Xoshiro256 rng(seed * 1000003 + tsc1);
      std::array<uint8_t, 16> key;
      const uint8_t k0 = static_cast<uint8_t>(tsc1);
      const uint8_t k1 = static_cast<uint8_t>((tsc1 | 0x20) & 0x7f);
      for (uint64_t k = 0; k < keys_per_class; ++k) {
        key[0] = k0;
        key[1] = k1;
        // K2 = TSC0 drawn uniformly: the TSC1-conditional model marginalizes
        // over TSC0. Remaining bytes model KM's output as uniformly random.
        rng.Fill(std::span<uint8_t>(key.data() + 2, 14));
        Rc4 rc4(key);
        rc4.Keystream(keystream);
        uint64_t* base = local.data() + (tsc1 - begin) * positions * 256;
        for (size_t pos = first_position_; pos <= last_position_; ++pos) {
          base[(pos - first_position_) * 256 + keystream[pos - 1]] += 1;
        }
      }
    }
    std::lock_guard<std::mutex> lock(merge_mutex);
    std::copy(local.begin(), local.end(),
              counts.begin() + begin * positions * 256);
  });

  const double denom = static_cast<double>(keys_per_class) + 256.0;
  for (size_t i = 0; i < log_p_.size(); ++i) {
    log_p_[i] = std::log((static_cast<double>(counts[i]) + 1.0) / denom);
  }
}

double TkipTscModel::Probability(uint8_t tsc1, size_t pos, uint8_t value) const {
  return std::exp(LogProb(tsc1, pos, value));
}

void TkipTscModel::ShrinkTowardUniform(double factor) {
  constexpr double kUniform = 1.0 / 256.0;
  for (double& lp : log_p_) {
    const double p = kUniform + factor * (std::exp(lp) - kUniform);
    lp = SafeLog(p);
  }
}

double TkipTscModel::RmsRelativeDeviation() const {
  double sum = 0.0;
  for (double lp : log_p_) {
    const double q = std::exp(lp) * 256.0 - 1.0;
    sum += q * q;
  }
  return std::sqrt(sum / static_cast<double>(log_p_.size()));
}

void TkipTscModel::SetRow(uint8_t tsc1, size_t pos,
                          std::span<const double> probabilities) {
  // Load-bearing: a bad position or row size would write outside log_p_.
  if (pos < first_position_ || pos > last_position_ ||
      probabilities.size() != 256) {
    std::fprintf(stderr,
                 "TkipTscModel::SetRow: position %zu with %zu probabilities; "
                 "needs a position in [%zu, %zu] and 256 probabilities\n",
                 pos, probabilities.size(), first_position_, last_position_);
    std::abort();
  }
  double* row = log_p_.data() + (static_cast<size_t>(tsc1) * position_count() +
                                 (pos - first_position_)) *
                                    256;
  // SafeLog keeps zero-probability cells finite — a -inf here would turn a
  // zero count into NaN in the likelihood layer (src/core/likelihood.h).
  for (size_t v = 0; v < 256; ++v) {
    row[v] = SafeLog(probabilities[v]);
  }
}

}  // namespace rc4b
