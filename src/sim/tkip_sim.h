// Trial-parallel Monte-Carlo simulation of the WPA-TKIP trailer/MIC-key
// attack (Sect. 5, Figs. 8-9): a victim retransmitting the injected packet
// under incrementing TSCs, the attacker accumulating per-TSC1 statistics, and
// rank evaluations at checkpoint ciphertext counts with a geometric model of
// CRC-32 false positives.
//
// Promoted to library code from the former bench-local harness so the
// figure benches, the examples, and the tests all drive one implementation.
// Trials run on src/sim/runner.h: trial t's randomness derives from
// (options.seed, t) alone, so the aggregates RunTkipSimulations() returns are
// bit-exact for any worker count (docs/sim.md).
#ifndef SRC_SIM_TKIP_SIM_H_
#define SRC_SIM_TKIP_SIM_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/common/rng.h"
#include "src/tkip/frame.h"
#include "src/tkip/injection.h"
#include "src/tkip/tsc_model.h"

namespace rc4b::sim {

struct TkipSimOptions {
  std::vector<uint64_t> checkpoints;  // packet counts at which to evaluate
  // Payload of the injected TCP packet. Empty selects Sect. 5.2's optimal
  // 7-byte payload; other lengths shift the MIC+ICV trailer to different
  // keystream positions (the scenario table's TKIP variants).
  Bytes payload;
  // Traversal budget for the success criterion ("nearly 2^30 candidates").
  uint64_t candidate_budget = uint64_t{1} << 30;
  uint64_t trials = 16;  // simulated attacks (the paper runs 256)
  unsigned workers = 0;  // 0 = hardware concurrency
  uint64_t seed = 1;
  // true: perfect-model limit (victim trailer keystream drawn from the
  // attacker's model; see ModelVictimSource). false: real TKIP key mixing +
  // RC4 — honest, but the scaled-down attacker model then needs
  // --keys-per-tsc near 2^28 per class to carry signal.
  bool oracle_model = true;
};

struct TkipSimPoint {
  uint64_t packets = 0;
  double truth_rank = 0.0;           // rank of truth among all 2^96
  double first_icv_position = 0.0;   // min(rank, CRC false positive draw)
  bool success_with_budget = false;  // found before budget & any false hit
  bool success_with_two = false;     // truth within the two best candidates
};

// Builds the attack's injected packet: 48 bytes of headers + 7-byte payload
// (Sect. 5.2's optimal structure).
Bytes InjectedPacket();

// Same headers with an arbitrary payload — longer payloads place the
// MIC+ICV trailer at deeper keystream positions.
Bytes InjectedPacket(std::span<const uint8_t> payload);

// A TKIP peer with uniformly random keys and addresses, drawn from `rng` —
// the victim of one simulated attack.
TkipPeer RandomPeer(Xoshiro256& rng);

// The simulated victim's frame stream for the trailer positions: either the
// perfect-model path (keystream sampled from the attacker's model) or the
// fully faithful one (real TKIP key mixing + RC4 per packet). Shared by the
// simulation trials and the end-to-end example.
class TrailerFrameSource {
 public:
  // `trailer` is TkipTrailer(peer, msdu); `seed` only drives the
  // model-sampling path. When `oracle` is false the model is not consulted.
  TrailerFrameSource(const TkipTscModel& model, bool oracle,
                     const TkipPeer& peer, const Bytes& msdu,
                     const Bytes& trailer, uint64_t initial_tsc, uint64_t seed);

  TkipFrame NextFrame();

 private:
  std::optional<ModelVictimSource> model_source_;
  std::optional<TkipInjectionSource> real_source_;
};

// Runs one simulated attack with the given per-trial generator (normally
// TrialRng(options.seed, trial)): victim setup, capture, and a rank
// evaluation at each checkpoint.
std::vector<TkipSimPoint> RunTkipTrial(const TkipTscModel& model,
                                       const TkipSimOptions& options,
                                       Xoshiro256& rng);

// Per-checkpoint aggregates over all trials, folded in trial order.
struct TkipSimAggregate {
  std::vector<uint64_t> checkpoints;
  uint64_t trials = 0;
  std::vector<uint64_t> budget_wins;  // [checkpoint] success_with_budget count
  std::vector<uint64_t> two_wins;     // [checkpoint] success_with_two count
  // [checkpoint][trial] first_icv_position, in trial order (Fig. 9 medians).
  std::vector<std::vector<double>> icv_positions;
  // [checkpoint][trial] truth_rank, in trial order (the recovery layer's rank
  // metric).
  std::vector<std::vector<double>> truth_ranks;

  // Field-wise equality: the worker-count bit-exactness checks in tests/sim/
  // compare whole aggregates with this.
  bool operator==(const TkipSimAggregate&) const = default;
};

// Runs options.trials simulated attacks across the thread pool. Bit-exact
// for any options.workers (including 1) at a fixed options.seed.
TkipSimAggregate RunTkipSimulations(const TkipTscModel& model,
                                    const TkipSimOptions& options);

}  // namespace rc4b::sim

#endif  // SRC_SIM_TKIP_SIM_H_
