// Recovery of the unknown IP/TCP header fields of the injected packet
// (Sect. 5.3): the internal client IP, the client's source port, and the IP
// TTL are a priori unknown to the attacker, but both the IP header checksum
// and the TCP checksum cover them. The paper applies "exactly the same
// technique" as for the MIC/ICV: generate candidates for the unknown bytes
// in decreasing likelihood and prune those whose checksums do not validate.
//
// This module implements that step for the attack's packet layout: the
// victim-side unknowns are the TTL (1 byte), the IP destination = internal
// client address (4 bytes, server -> client direction), the TCP destination
// port (2 bytes), plus the two checksums themselves (4 bytes) — 11 unknown
// plaintext bytes, each with a per-position likelihood table.
#ifndef SRC_TKIP_HEADER_RECOVERY_H_
#define SRC_TKIP_HEADER_RECOVERY_H_

#include <cstdint>
#include <optional>

#include "src/core/candidates.h"
#include "src/net/packet.h"

namespace rc4b {

// Byte offsets of the unknown fields within the MSDU (LLC/SNAP 8 bytes, then
// IP header at 8..27, TCP header at 28..47). All offsets 0-based.
struct UnknownHeaderLayout {
  static constexpr size_t kTtl = 8 + 8;             // IP TTL
  static constexpr size_t kIpChecksum = 8 + 10;     // 2 bytes
  static constexpr size_t kClientAddress = 8 + 16;  // IP destination, 4 bytes
  static constexpr size_t kClientPort = 28 + 2;     // TCP destination port
  static constexpr size_t kTcpChecksum = 28 + 16;   // 2 bytes

  // The unknown positions in ascending order.
  static std::vector<size_t> Positions();
};

struct HeaderRecoveryResult {
  bool found = false;
  uint64_t candidates_tried = 0;
  uint8_t ttl = 0;
  uint32_t client_address = 0;
  uint16_t client_port = 0;
  Bytes msdu;  // the template with all recovered fields patched in
};

// `template_msdu` is the injected packet with the unknown fields zeroed
// (everything else — addresses the attacker controls, payload, lengths — is
// known). `likelihoods` has one 256-entry table per unknown position, in
// UnknownHeaderLayout::Positions() order. Candidates are enumerated in
// decreasing likelihood (RecoveryEngine::RecoverSingle); a candidate is
// accepted when both the IP header checksum and the TCP checksum validate.
// A table count other than Positions().size() or a template shorter than 48
// bytes yields an empty result.
HeaderRecoveryResult RecoverHeaderFields(const Bytes& template_msdu,
                                         const SingleByteTables& likelihoods,
                                         uint64_t max_candidates);

// Checksum predicate used for pruning (exposed for tests): true iff the MSDU
// has valid IP and TCP checksums.
bool HeaderChecksumsValid(const Bytes& msdu);

}  // namespace rc4b

#endif  // SRC_TKIP_HEADER_RECOVERY_H_
