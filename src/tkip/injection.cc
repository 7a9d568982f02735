#include "src/tkip/injection.h"

#include <cstdio>
#include <cstdlib>

#include "src/common/alias.h"
#include "src/rc4/rc4.h"
#include "src/tkip/tsc_model.h"

namespace rc4b {

struct ModelVictimSource::Impl {
  Bytes plaintext;
  size_t first = 0;
  size_t last = 0;
  uint64_t tsc = 0;
  Xoshiro256 rng;
  // samplers[tsc1 * positions + (pos - first)]
  std::vector<AliasTable> samplers;

  Impl(const TkipTscModel& model, Bytes plain, uint64_t initial_tsc, uint64_t seed)
      : plaintext(std::move(plain)),
        first(model.first_position()),
        last(model.last_position()),
        tsc(initial_tsc),
        rng(seed) {
    // Load-bearing: NextFrame reads plaintext[pos - 1] up to `last`. Checked
    // before the 256 x positions alias tables are built.
    if (plaintext.size() < last) {
      std::fprintf(stderr,
                   "ModelVictimSource: plaintext of %zu bytes ends before last "
                   "position %zu\n",
                   plaintext.size(), last);
      std::abort();
    }
    const size_t positions = model.position_count();
    samplers.resize(256 * positions);
    std::vector<double> weights(256);
    for (int tsc1 = 0; tsc1 < 256; ++tsc1) {
      for (size_t pos = first; pos <= last; ++pos) {
        for (int v = 0; v < 256; ++v) {
          weights[v] =
              model.Probability(static_cast<uint8_t>(tsc1), pos,
                                static_cast<uint8_t>(v));
        }
        samplers[static_cast<size_t>(tsc1) * positions + (pos - first)].Build(
            weights);
      }
    }
  }
};

ModelVictimSource::ModelVictimSource(const TkipTscModel& model, Bytes plaintext,
                                     uint64_t initial_tsc, uint64_t seed)
    : impl_(std::make_unique<Impl>(model, std::move(plaintext), initial_tsc, seed)) {}

ModelVictimSource::~ModelVictimSource() = default;

TkipFrame ModelVictimSource::NextFrame() {
  TkipFrame frame;
  frame.tsc = impl_->tsc++;
  frame.ciphertext.assign(impl_->last, 0);
  const uint8_t tsc1 = static_cast<uint8_t>(frame.tsc >> 8);
  const size_t positions = impl_->last - impl_->first + 1;
  const AliasTable* row =
      impl_->samplers.data() + static_cast<size_t>(tsc1) * positions;
  for (size_t pos = impl_->first; pos <= impl_->last; ++pos) {
    const uint8_t keystream =
        static_cast<uint8_t>(row[pos - impl_->first].Sample(impl_->rng));
    frame.ciphertext[pos - 1] =
        static_cast<uint8_t>(impl_->plaintext[pos - 1] ^ keystream);
  }
  return frame;
}

TkipCaptureStats::TkipCaptureStats(size_t first_position, size_t last_position)
    : first_position_(first_position), last_position_(last_position) {
  if (first_position < 1 || first_position > last_position) {
    std::fprintf(stderr,
                 "TkipCaptureStats: positions [%zu, %zu] need 1 <= first <= last\n",
                 first_position, last_position);
    std::abort();
  }
  counts_.assign(256 * position_count() * 256, 0);
}

bool TkipCaptureStats::AddFrame(const TkipFrame& frame) {
  // Positions up to last_position_ are read below; reject short frames
  // instead of reading out of bounds in Release builds.
  if (frame.ciphertext.size() < last_position_) {
    return false;
  }
  const uint8_t tsc1 = static_cast<uint8_t>(frame.tsc >> 8);
  uint64_t* base =
      counts_.data() + static_cast<size_t>(tsc1) * position_count() * 256;
  for (size_t pos = first_position_; pos <= last_position_; ++pos) {
    base[(pos - first_position_) * 256 + frame.ciphertext[pos - 1]] += 1;
  }
  ++frames_;
  return true;
}

void TkipCaptureStats::Merge(const TkipCaptureStats& other) {
  // Load-bearing: a different range would read past other.counts_.
  if (first_position_ != other.first_position_ ||
      last_position_ != other.last_position_) {
    std::fprintf(stderr,
                 "TkipCaptureStats::Merge: positions [%zu, %zu] do not match "
                 "[%zu, %zu]\n",
                 other.first_position_, other.last_position_, first_position_,
                 last_position_);
    std::abort();
  }
  for (size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  frames_ += other.frames_;
}

TkipInjectionSource::TkipInjectionSource(TkipPeer peer, Bytes msdu, uint64_t initial_tsc)
    : peer_(std::move(peer)), msdu_(std::move(msdu)), tsc_(initial_tsc) {
  plaintext_ = msdu_;
  const Bytes trailer = TkipTrailer(peer_, msdu_);
  plaintext_.insert(plaintext_.end(), trailer.begin(), trailer.end());
}

TkipFrame TkipInjectionSource::NextFrame() {
  // Phase 1 only depends on the upper 32 TSC bits; recompute it once per
  // 65536 packets exactly as a real station would.
  const uint32_t iv32 = static_cast<uint32_t>(tsc_ >> 16);
  if (!phase1_valid_ || iv32 != phase1_iv32_) {
    phase1_ = TkipPhase1(peer_.tk, peer_.ta, iv32);
    phase1_iv32_ = iv32;
    phase1_valid_ = true;
  }
  const Rc4PacketKey key =
      TkipPhase2(phase1_, peer_.tk, static_cast<uint16_t>(tsc_));

  TkipFrame frame;
  frame.tsc = tsc_++;
  frame.ciphertext.resize(plaintext_.size());
  Rc4 rc4(key);
  rc4.Process(plaintext_, frame.ciphertext);
  return frame;
}

}  // namespace rc4b
