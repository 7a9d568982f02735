#include "src/tkip/attack.h"

#include <gtest/gtest.h>

#include "src/core/likelihood.h"

#include "src/common/rng.h"
#include "src/net/packet.h"
#include "src/tkip/frame.h"

namespace rc4b {
namespace {

TkipPeer TestPeer(uint64_t seed) {
  Xoshiro256 rng(seed);
  TkipPeer peer;
  rng.Fill(peer.tk);
  peer.mic_key = MichaelKey{static_cast<uint32_t>(rng()), static_cast<uint32_t>(rng())};
  rng.Fill(peer.ta);
  rng.Fill(peer.da);
  rng.Fill(peer.sa);
  return peer;
}

Bytes InjectedPacket() {
  Ipv4Header ip;
  ip.source = 0x0a000001;
  ip.destination = 0x0a000002;
  TcpHeader tcp;
  tcp.source_port = 80;
  tcp.destination_port = 51000;
  return BuildTcpPacket(LlcSnapHeader{}, ip, tcp, FromString("7bytes!"));
}

// Likelihood tables where the true byte gets `boost` added on top of noise.
SingleByteTables SyntheticTables(std::span<const uint8_t> truth, double boost,
                                 uint64_t seed) {
  Xoshiro256 rng(seed);
  SingleByteTables tables(truth.size(), std::vector<double>(256));
  for (size_t r = 0; r < truth.size(); ++r) {
    for (int v = 0; v < 256; ++v) {
      tables[r][v] = -rng.UnitDouble();
    }
    tables[r][truth[r]] += boost;
  }
  return tables;
}

TEST(TkipAttackTest, TrailerConsistencyPredicate) {
  const TkipPeer peer = TestPeer(1);
  const Bytes msdu = InjectedPacket();
  const Bytes trailer = TkipTrailer(peer, msdu);
  EXPECT_TRUE(TkipTrailerConsistent(msdu, trailer));
  Bytes bad = trailer;
  bad[0] ^= 1;
  EXPECT_FALSE(TkipTrailerConsistent(msdu, bad));
  bad = trailer;
  bad[11] ^= 0x80;
  EXPECT_FALSE(TkipTrailerConsistent(msdu, bad));
}

TEST(TkipAttackTest, RecoversTrailerAndMicKeyWhenTruthIsTop) {
  const TkipPeer peer = TestPeer(2);
  const Bytes msdu = InjectedPacket();
  const Bytes trailer = TkipTrailer(peer, msdu);
  const auto tables = SyntheticTables(trailer, 2.0, 2);

  const auto result = RecoverTkipTrailer(msdu, tables, 1024, trailer, peer);
  ASSERT_TRUE(result.found);
  EXPECT_TRUE(result.correct);
  EXPECT_EQ(result.candidates_tried, 1u);
  EXPECT_EQ(result.trailer, trailer);
  EXPECT_EQ(result.mic_key, peer.mic_key);
}

TEST(TkipAttackTest, CrcPruningSkipsBadCandidates) {
  // Deterministic setup: the truth is the 2nd-best candidate; the best
  // candidate differs in one byte, so its CRC cannot match (false positives
  // are ~2^-32) and the traversal must accept the truth at attempt 2.
  const TkipPeer peer = TestPeer(3);
  const Bytes msdu = InjectedPacket();
  const Bytes trailer = TkipTrailer(peer, msdu);

  SingleByteTables tables(trailer.size(), std::vector<double>(256));
  for (size_t r = 0; r < trailer.size(); ++r) {
    for (int v = 0; v < 256; ++v) {
      // Score decays with byte distance from the true value.
      tables[r][v] = -0.01 * ((v - trailer[r]) & 0xff);
    }
  }
  // One impostor value at position 0 slightly outscoring the truth.
  tables[0][(trailer[0] + 1) & 0xff] = 0.005;

  const auto result = RecoverTkipTrailer(msdu, tables, 1 << 10, trailer, peer);
  ASSERT_TRUE(result.found);
  EXPECT_TRUE(result.correct);
  EXPECT_EQ(result.candidates_tried, 2u);
  EXPECT_EQ(result.mic_key, peer.mic_key);
}

TEST(TkipAttackTest, GivesUpWithinBudget) {
  const TkipPeer peer = TestPeer(4);
  const Bytes msdu = InjectedPacket();
  const Bytes trailer = TkipTrailer(peer, msdu);
  // No boost at all: truth is essentially at a random rank in 2^96.
  const auto tables = SyntheticTables(trailer, 0.0, 4);
  const auto result = RecoverTkipTrailer(msdu, tables, 512, trailer, peer);
  EXPECT_FALSE(result.found);
  EXPECT_FALSE(result.correct);
  // Regression: a failed traversal must report how many candidates it
  // actually tried, not 0.
  EXPECT_EQ(result.candidates_tried, 512u);
}

TEST(TkipAttackTest, RejectsWrongTableCount) {
  const TkipPeer peer = TestPeer(6);
  const Bytes msdu = InjectedPacket();
  const Bytes trailer = TkipTrailer(peer, msdu);
  const SingleByteTables short_tables(3, std::vector<double>(256, 0.0));
  const auto result = RecoverTkipTrailer(msdu, short_tables, 16, trailer, peer);
  EXPECT_FALSE(result.found);
  EXPECT_EQ(result.candidates_tried, 0u);
}

TEST(TkipAttackTest, LikelihoodsRejectMismatchedPositionRanges) {
  // Regression: a stats/model position mismatch used to be assert-only and
  // read out of bounds in Release builds; it must now return empty tables.
  TkipCaptureStats stats(10, 21);
  TkipTscModel model(11, 22);
  EXPECT_TRUE(TkipTrailerLikelihoods(stats, model).empty());
}

TEST(TkipAttackDeathTest, PositionRangesNeedFirstAtLeastOneAndAtMostLast) {
  // Release builds too: a reversed range makes position_count() zero or
  // wrap it, and every row access then lands outside the storage.
  EXPECT_DEATH(TkipTscModel(0, 11), "TkipTscModel: positions \\[0, 11\\]");
  EXPECT_DEATH(TkipTscModel(12, 11), "TkipTscModel: positions \\[12, 11\\]");
  EXPECT_DEATH(TkipCaptureStats(0, 11), "TkipCaptureStats: positions \\[0, 11\\]");
  EXPECT_DEATH(TkipCaptureStats(12, 11), "TkipCaptureStats: positions \\[12, 11\\]");
}

TEST(TkipAttackDeathTest, SetRowRejectsBadPositionOrSize) {
  TkipTscModel model(10, 21);
  const std::vector<double> row(256, 1.0 / 256.0);
  const std::vector<double> short_row(255, 1.0 / 255.0);
  EXPECT_DEATH(model.SetRow(0, 9, row), "SetRow: position 9 with 256");
  EXPECT_DEATH(model.SetRow(0, 22, row), "SetRow: position 22 with 256");
  EXPECT_DEATH(model.SetRow(0, 10, short_row), "SetRow: position 10 with 255");
}

TEST(TkipAttackTest, CaptureStatsRejectShortFrames) {
  TkipCaptureStats stats(10, 21);
  TkipFrame frame;
  frame.tsc = 0x1234;
  frame.ciphertext.assign(20, 0);  // one byte short of last_position
  EXPECT_FALSE(stats.AddFrame(frame));
  EXPECT_EQ(stats.frames(), 0u);
  frame.ciphertext.assign(21, 0);
  EXPECT_TRUE(stats.AddFrame(frame));
  EXPECT_EQ(stats.frames(), 1u);
}

TEST(TkipAttackTest, LikelihoodsRecoverTruthUnderOracleModel) {
  // Deterministic oracle setup: a synthetic per-TSC1 keystream model with a
  // strong TSC1-dependent bias, and captured ciphertexts drawn from exactly
  // that model. The multiplied per-TSC1 likelihoods must recover the true
  // trailer bytes. (Statistical strength at realistic model scales is the
  // Fig. 8 bench's job.)
  const TkipPeer peer = TestPeer(5);
  const Bytes msdu = InjectedPacket();
  const Bytes trailer = TkipTrailer(peer, msdu);
  const size_t first = msdu.size() + 1;                  // 1-based MIC start
  const size_t last = msdu.size() + kTkipTrailerSize;    // ICV end

  TkipTscModel model(first, last);
  const double boost = 0.05;
  for (int tsc1 = 0; tsc1 < 256; ++tsc1) {
    for (size_t pos = first; pos <= last; ++pos) {
      std::vector<double> p(256, (1.0 - (1.0 / 256 + boost)) / 255.0);
      // Keystream leans toward a TSC1- and position-dependent value.
      p[(tsc1 * 31 + static_cast<int>(pos)) & 0xff] = 1.0 / 256 + boost;
      model.SetRow(static_cast<uint8_t>(tsc1), pos, p);
    }
  }

  TkipCaptureStats stats(first, last);
  Xoshiro256 rng(55);
  for (int frame_index = 0; frame_index < (1 << 14); ++frame_index) {
    TkipFrame frame;
    frame.tsc = static_cast<uint64_t>(frame_index);
    frame.ciphertext.assign(last, 0);
    const int tsc1 = (frame_index >> 8) & 0xff;
    for (size_t pos = first; pos <= last; ++pos) {
      const uint8_t biased = static_cast<uint8_t>((tsc1 * 31 + pos) & 0xff);
      const uint8_t z = rng.UnitDouble() < boost + 1.0 / 256 ? biased : rng.Byte();
      const uint8_t plain =
          pos <= msdu.size() ? msdu[pos - 1] : trailer[pos - msdu.size() - 1];
      frame.ciphertext[pos - 1] = static_cast<uint8_t>(plain ^ z);
    }
    stats.AddFrame(frame);
  }

  const auto tables = TkipTrailerLikelihoods(stats, model);
  ASSERT_EQ(tables.size(), kTkipTrailerSize);
  for (size_t r = 0; r < kTkipTrailerSize; ++r) {
    EXPECT_EQ(ArgMax(tables[r]), trailer[r]) << "position " << r;
  }
}

}  // namespace
}  // namespace rc4b
