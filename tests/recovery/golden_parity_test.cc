// Golden-parity pins for the recovery refactor: the TKIP and cookie attacks
// rewired onto the RecoveryEngine must produce bit-identical candidate
// orderings and recovery outcomes to the pre-refactor implementations. The
// reference functions below are copies of the hand-rolled loops that
// src/tkip/attack.cc and src/tls/cookie_attack.cc contained before the
// refactor; the cookie loop reports through RecoveryResult, the type the
// engine returns, and walks the eager Algorithm 2 list
// (tests/core/eager_candidates_double.h) that the engine now streams.
#include <gtest/gtest.h>

#include <cstring>

#include "src/core/candidates.h"
#include "src/crypto/crc32.h"
#include "src/recovery/engine.h"
#include "src/sim/cookie_sim.h"
#include "src/sim/runner.h"
#include "src/sim/tkip_sim.h"
#include "src/tkip/attack.h"
#include "src/tls/cookie_attack.h"
#include "tests/core/eager_candidates_double.h"

namespace rc4b {
namespace {

// --- Pre-refactor reference implementations ------------------------------

TkipAttackResult ReferenceRecoverTkipTrailer(
    std::span<const uint8_t> known_msdu, const SingleByteTables& likelihoods,
    uint64_t max_candidates, std::span<const uint8_t> true_trailer,
    const TkipPeer& peer) {
  TkipAttackResult result;
  if (likelihoods.size() != kTkipTrailerSize) {
    return result;
  }
  uint32_t msdu_state = Crc32Init();
  msdu_state = Crc32Update(msdu_state, known_msdu);

  LazyCandidateEnumerator enumerator(likelihoods);
  for (uint64_t n = 0; n < max_candidates && !enumerator.Exhausted(); ++n) {
    const Candidate candidate = enumerator.Next();
    result.candidates_tried = n + 1;
    const std::span<const uint8_t> trailer(candidate.plaintext);
    const uint32_t crc =
        Crc32Final(Crc32Update(msdu_state, trailer.subspan(0, 8)));
    if (crc != LoadLe32(trailer.data() + 8)) {
      continue;
    }
    result.found = true;
    result.trailer = candidate.plaintext;
    result.correct = !true_trailer.empty() &&
                     true_trailer.size() == trailer.size() &&
                     std::memcmp(true_trailer.data(), trailer.data(),
                                 trailer.size()) == 0;
    const auto header = MichaelHeader(peer.da, peer.sa, peer.priority);
    Bytes authenticated(header.begin(), header.end());
    authenticated.insert(authenticated.end(), known_msdu.begin(),
                         known_msdu.end());
    result.mic_key = MichaelRecoverKey(authenticated, trailer.subspan(0, 8));
    return result;
  }
  return result;
}

recovery::RecoveryResult ReferenceRecoverCookie(
    const DoubleByteTables& transitions, uint8_t m1, uint8_t m_last,
    std::span<const uint8_t> alphabet, size_t max_candidates,
    const std::function<bool(const Bytes&)>& try_cookie) {
  recovery::RecoveryResult result;
  const auto candidates = EagerCandidatesDouble(transitions, m1, m_last,
                                                max_candidates, alphabet);
  for (const Candidate& candidate : candidates) {
    ++result.candidates_tried;
    if (try_cookie(candidate.plaintext)) {
      result.found = true;
      result.plaintext = candidate.plaintext;
      return result;
    }
  }
  return result;
}

// --- Shared fixtures ------------------------------------------------------

// Strongly biased per-TSC1 oracle model over the injected packet's trailer
// positions (same construction as tests/sim/tkip_sim_test.cc).
TkipTscModel StrongModel(double boost) {
  const Bytes msdu = sim::InjectedPacket();
  const size_t first = msdu.size() + 1;
  const size_t last = msdu.size() + kTkipTrailerSize;
  TkipTscModel model(first, last);
  for (int tsc1 = 0; tsc1 < 256; ++tsc1) {
    for (size_t pos = first; pos <= last; ++pos) {
      std::vector<double> p(256, (1.0 - (1.0 / 256 + boost)) / 255.0);
      p[(tsc1 * 31 + static_cast<int>(pos)) & 0xff] = 1.0 / 256 + boost;
      model.SetRow(static_cast<uint8_t>(tsc1), pos, p);
    }
  }
  return model;
}

struct TkipCase {
  Bytes msdu;
  Bytes trailer;
  TkipPeer peer;
  SingleByteTables tables;
};

void CaptureTkipCase(const TkipTscModel& model, uint64_t seed, uint64_t frames,
                     TkipCase* out) {
  Xoshiro256 rng = sim::TrialRng(seed, 0);
  out->peer = sim::RandomPeer(rng);
  out->msdu = sim::InjectedPacket();
  out->trailer = TkipTrailer(out->peer, out->msdu);
  TkipCaptureStats stats(out->msdu.size() + 1,
                         out->msdu.size() + kTkipTrailerSize);
  sim::TrailerFrameSource source(model, /*oracle=*/true, out->peer, out->msdu,
                                 out->trailer, /*initial_tsc=*/1, rng());
  for (uint64_t i = 0; i < frames; ++i) {
    ASSERT_TRUE(stats.AddFrame(source.NextFrame()));
  }
  out->tables = TkipTrailerLikelihoods(stats, model);
}

void ExpectEqualResults(const TkipAttackResult& a, const TkipAttackResult& b) {
  EXPECT_EQ(a.found, b.found);
  EXPECT_EQ(a.correct, b.correct);
  EXPECT_EQ(a.candidates_tried, b.candidates_tried);
  EXPECT_EQ(a.trailer, b.trailer);
  EXPECT_EQ(a.mic_key, b.mic_key);
}

TEST(GoldenParityTest, TkipRecoveryMatchesPreRefactorOnStrongSignal) {
  const TkipTscModel model = StrongModel(0.2);
  TkipCase c;
  CaptureTkipCase(model, 101, 4096, &c);
  for (uint64_t budget : {uint64_t{1}, uint64_t{2}, uint64_t{1} << 16}) {
    const auto reference = ReferenceRecoverTkipTrailer(c.msdu, c.tables, budget,
                                                       c.trailer, c.peer);
    const auto refactored =
        RecoverTkipTrailer(c.msdu, c.tables, budget, c.trailer, c.peer);
    ExpectEqualResults(refactored, reference);
  }
  // At a generous budget the strong signal must actually recover the truth —
  // otherwise this parity test would only compare failures.
  const auto result =
      RecoverTkipTrailer(c.msdu, c.tables, uint64_t{1} << 16, c.trailer, c.peer);
  EXPECT_TRUE(result.found);
  EXPECT_TRUE(result.correct);
  EXPECT_EQ(result.mic_key, c.peer.mic_key);
}

TEST(GoldenParityTest, TkipRecoveryMatchesPreRefactorOnFailure) {
  // No-signal tables: both implementations must walk the same 512 candidates
  // and report the same failure shape.
  Xoshiro256 rng(7);
  TkipCase c;
  c.peer = sim::RandomPeer(rng);
  c.msdu = sim::InjectedPacket();
  c.trailer = TkipTrailer(c.peer, c.msdu);
  c.tables.assign(kTkipTrailerSize, std::vector<double>(256));
  for (auto& row : c.tables) {
    for (double& cell : row) {
      cell = -rng.UnitDouble();
    }
  }
  const auto reference =
      ReferenceRecoverTkipTrailer(c.msdu, c.tables, 512, c.trailer, c.peer);
  const auto refactored =
      RecoverTkipTrailer(c.msdu, c.tables, 512, c.trailer, c.peer);
  ExpectEqualResults(refactored, reference);
  EXPECT_FALSE(refactored.found);
  EXPECT_EQ(refactored.candidates_tried, 512u);
}

TEST(GoldenParityTest, CookieBruteForceMatchesPreRefactor) {
  sim::CookieSimOptions options;
  options.cookie_length = 4;
  options.max_gap = 16;
  const sim::CookieSimContext context(options);
  const auto& alphabet = context.alphabet();

  Xoshiro256 rng = sim::TrialRng(55, 1);
  Bytes truth(options.cookie_length);
  for (auto& b : truth) {
    b = alphabet[rng.Below(alphabet.size())];
  }
  const auto transitions = sim::SampleCookieTransitions(
      context, truth, /*ciphertexts=*/uint64_t{1} << 34, rng);

  const recovery::PairBoundary boundary{options.m1, options.m_last};
  const auto recover = [&](size_t budget,
                           const recovery::VerifyPredicate& verify) {
    return recovery::RecoveryEngine(recovery::RecoveryOptions{budget, {}})
        .RecoverDouble(transitions, boundary, alphabet, verify);
  };
  const auto oracle = [&](const Bytes& candidate) { return candidate == truth; };
  for (size_t budget : {size_t{1}, size_t{64}, size_t{1} << 14}) {
    const auto reference = ReferenceRecoverCookie(
        transitions, options.m1, options.m_last, alphabet, budget, oracle);
    const auto refactored = recover(budget, oracle);
    EXPECT_EQ(refactored.found, reference.found) << "budget " << budget;
    EXPECT_EQ(refactored.candidates_tried, reference.candidates_tried)
        << "budget " << budget;
    EXPECT_EQ(refactored.plaintext, reference.plaintext) << "budget " << budget;
  }
  // At 2^34 ciphertexts the combined signal recovers the 4-char cookie.
  const auto result = recover(1 << 14, oracle);
  EXPECT_TRUE(result.found);
  EXPECT_EQ(result.plaintext, truth);

  // Candidate-ordering pin: the attempts consumed by a never-matching oracle
  // must equal the eager, materialized Algorithm 2 list walked in order.
  std::vector<Bytes> visited;
  recover(64, [&](const Bytes& candidate) {
    visited.push_back(candidate);
    return false;
  });
  const auto expected = EagerCandidatesDouble(transitions, options.m1,
                                              options.m_last, 64, alphabet);
  ASSERT_EQ(visited.size(), expected.size());
  for (size_t i = 0; i < visited.size(); ++i) {
    EXPECT_EQ(visited[i], expected[i].plaintext) << "candidate " << i;
  }
}

}  // namespace
}  // namespace rc4b
