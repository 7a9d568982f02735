#include "src/sim/tkip_sim.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/core/rank.h"
#include "src/net/packet.h"
#include "src/sim/runner.h"
#include "src/tkip/attack.h"

namespace rc4b::sim {

Bytes InjectedPacket() { return InjectedPacket(FromString("7bytes!")); }

Bytes InjectedPacket(std::span<const uint8_t> payload) {
  Ipv4Header ip;
  ip.source = 0xc0a80164;
  ip.destination = 0x5db8d822;
  ip.ttl = 64;
  TcpHeader tcp;
  tcp.source_port = 80;
  tcp.destination_port = 52341;
  return BuildTcpPacket(LlcSnapHeader{}, ip, tcp, payload);
}

TkipPeer RandomPeer(Xoshiro256& rng) {
  TkipPeer peer;
  rng.Fill(peer.tk);
  peer.mic_key =
      MichaelKey{static_cast<uint32_t>(rng()), static_cast<uint32_t>(rng())};
  rng.Fill(peer.ta);
  rng.Fill(peer.da);
  rng.Fill(peer.sa);
  return peer;
}

TrailerFrameSource::TrailerFrameSource(const TkipTscModel& model, bool oracle,
                                       const TkipPeer& peer, const Bytes& msdu,
                                       const Bytes& trailer,
                                       uint64_t initial_tsc, uint64_t seed) {
  if (oracle) {
    Bytes plaintext = msdu;
    plaintext.insert(plaintext.end(), trailer.begin(), trailer.end());
    model_source_.emplace(model, std::move(plaintext), initial_tsc, seed);
  } else {
    real_source_.emplace(peer, msdu, initial_tsc);
  }
}

TkipFrame TrailerFrameSource::NextFrame() {
  return model_source_ ? model_source_->NextFrame()
                       : real_source_->NextFrame();
}

std::vector<TkipSimPoint> RunTkipTrial(const TkipTscModel& model,
                                       const TkipSimOptions& options,
                                       Xoshiro256& rng) {
  const TkipPeer peer = RandomPeer(rng);
  const Bytes msdu = options.payload.empty() ? InjectedPacket()
                                             : InjectedPacket(options.payload);
  const Bytes trailer = TkipTrailer(peer, msdu);
  const size_t first = msdu.size() + 1;
  const size_t last = msdu.size() + kTkipTrailerSize;

  TkipCaptureStats stats(first, last);
  // Randomize the TSC starting point across trials.
  const uint64_t initial_tsc = rng() & 0xffffffff;
  TrailerFrameSource source(model, options.oracle_model, peer, msdu, trailer,
                            initial_tsc, rng());

  std::vector<TkipSimPoint> points;
  uint64_t sent = 0;
  for (uint64_t checkpoint : options.checkpoints) {
    while (sent < checkpoint) {
      const bool accepted = stats.AddFrame(source.NextFrame());
      assert(accepted);  // both sources emit full-length ciphertexts
      (void)accepted;
      ++sent;
    }
    const auto tables = TkipTrailerLikelihoods(stats, model);
    const auto bracket = IndependentRank(tables, trailer);

    TkipSimPoint point;
    point.packets = checkpoint;
    point.truth_rank = bracket.estimate;
    // CRC-32 false positives: candidates ahead of the truth pass the ICV
    // check with probability 2^-32 each. Model the first false hit as a
    // geometric draw (paper Sect. 5.4 observed exactly this failure mode).
    const double u = rng.UnitDouble();
    const double false_hit = -std::log(std::max(u, 1e-300)) * 4294967296.0;
    point.first_icv_position = std::min(point.truth_rank, false_hit);
    point.success_with_budget =
        point.truth_rank <= false_hit &&
        point.truth_rank < static_cast<double>(options.candidate_budget);
    point.success_with_two = point.truth_rank < 2.0;
    points.push_back(point);
  }
  return points;
}

TkipSimAggregate RunTkipSimulations(const TkipTscModel& model,
                                    const TkipSimOptions& options) {
  const auto per_trial = RunTrials<std::vector<TkipSimPoint>>(
      TrialRunnerOptions{options.trials, options.workers, options.seed},
      [&](uint64_t, Xoshiro256& rng) {
        return RunTkipTrial(model, options, rng);
      });

  TkipSimAggregate aggregate;
  aggregate.checkpoints = options.checkpoints;
  aggregate.trials = options.trials;
  const size_t n = options.checkpoints.size();
  aggregate.budget_wins.assign(n, 0);
  aggregate.two_wins.assign(n, 0);
  aggregate.icv_positions.assign(n, {});
  aggregate.truth_ranks.assign(n, {});
  // Fold in trial order: the aggregate is a pure function of (seed, trials),
  // independent of how trials were sharded.
  for (const auto& points : per_trial) {
    for (size_t c = 0; c < points.size(); ++c) {
      aggregate.budget_wins[c] += points[c].success_with_budget ? 1 : 0;
      aggregate.two_wins[c] += points[c].success_with_two ? 1 : 0;
      aggregate.icv_positions[c].push_back(points[c].first_icv_position);
      aggregate.truth_ranks[c].push_back(points[c].truth_rank);
    }
  }
  return aggregate;
}

}  // namespace rc4b::sim
