#include "src/tkip/header_recovery.h"

#include <utility>

#include "src/recovery/engine.h"

namespace rc4b {

std::vector<size_t> UnknownHeaderLayout::Positions() {
  std::vector<size_t> positions;
  positions.push_back(kTtl);
  positions.push_back(kIpChecksum);
  positions.push_back(kIpChecksum + 1);
  for (size_t i = 0; i < 4; ++i) {
    positions.push_back(kClientAddress + i);
  }
  positions.push_back(kClientPort);
  positions.push_back(kClientPort + 1);
  positions.push_back(kTcpChecksum);
  positions.push_back(kTcpChecksum + 1);
  return positions;
}

bool HeaderChecksumsValid(const Bytes& msdu) {
  if (msdu.size() < 48) {
    return false;
  }
  const std::span<const uint8_t> ip(msdu.data() + 8, 20);
  const std::span<const uint8_t> tcp_segment(msdu.data() + 28, msdu.size() - 28);
  return VerifyIpv4Checksum(ip) && VerifyTcpChecksum(ip, tcp_segment);
}

HeaderRecoveryResult RecoverHeaderFields(const Bytes& template_msdu,
                                         const SingleByteTables& likelihoods,
                                         uint64_t max_candidates) {
  const auto positions = UnknownHeaderLayout::Positions();
  HeaderRecoveryResult result;
  // Checked in every build: both are indexed below.
  if (likelihoods.size() != positions.size() || template_msdu.size() < 48) {
    return result;
  }

  // The unified recovery loop (src/recovery/engine.h) with the checksum
  // predicate. The traversal stops on the accepted candidate, so `msdu`
  // holds it patched in afterwards.
  Bytes msdu = template_msdu;
  recovery::RecoveryOptions options;
  options.max_candidates = max_candidates;
  const auto recovered = recovery::RecoveryEngine(std::move(options))
                             .RecoverSingle(likelihoods, [&](const Bytes& fields) {
                               for (size_t i = 0; i < positions.size(); ++i) {
                                 msdu[positions[i]] = fields[i];
                               }
                               return HeaderChecksumsValid(msdu);
                             });
  result.candidates_tried = recovered.candidates_tried;
  if (!recovered.found) {
    return result;
  }
  result.found = true;
  result.ttl = msdu[UnknownHeaderLayout::kTtl];
  result.client_address = LoadBe32(msdu.data() + UnknownHeaderLayout::kClientAddress);
  result.client_port = LoadBe16(msdu.data() + UnknownHeaderLayout::kClientPort);
  result.msdu = std::move(msdu);
  return result;
}

}  // namespace rc4b
