#include "src/tkip/injection.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/net/packet.h"

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
  // The attack's packet: 48 header bytes + 7-byte payload (Sect. 5.2).
  Ipv4Header ip;
  ip.source = 0x0a000001;
  ip.destination = 0x0a000002;
  TcpHeader tcp;
  tcp.source_port = 80;
  tcp.destination_port = 51000;
  return BuildTcpPacket(LlcSnapHeader{}, ip, tcp, FromString("7bytes!"));
}

TEST(InjectionTest, TscIncrementsPerFrame) {
  TkipInjectionSource source(TestPeer(1), InjectedPacket(), 100);
  EXPECT_EQ(source.NextFrame().tsc, 100u);
  EXPECT_EQ(source.NextFrame().tsc, 101u);
  EXPECT_EQ(source.tsc(), 102u);
}

TEST(InjectionTest, FramesMatchDirectEncapsulation) {
  const TkipPeer peer = TestPeer(2);
  const Bytes msdu = InjectedPacket();
  TkipInjectionSource source(peer, msdu, 5000);
  for (int i = 0; i < 300; ++i) {
    const TkipFrame frame = source.NextFrame();
    const TkipFrame direct = TkipEncapsulate(peer, msdu, frame.tsc);
    ASSERT_EQ(frame.ciphertext, direct.ciphertext) << "tsc " << frame.tsc;
  }
}

TEST(InjectionTest, Phase1BoundaryCrossing) {
  // Frames across an IV32 rollover (tsc crossing a multiple of 65536) must
  // still match direct encapsulation, exercising the phase-1 cache.
  const TkipPeer peer = TestPeer(3);
  const Bytes msdu = InjectedPacket();
  TkipInjectionSource source(peer, msdu, 65530);
  for (int i = 0; i < 12; ++i) {
    const TkipFrame frame = source.NextFrame();
    EXPECT_EQ(frame.ciphertext, TkipEncapsulate(peer, msdu, frame.tsc).ciphertext);
  }
}

TEST(CaptureStatsTest, CountsAccumulatePerTsc1) {
  const TkipPeer peer = TestPeer(4);
  const Bytes msdu = InjectedPacket();
  TkipCaptureStats stats(56, 67);
  TkipInjectionSource source(peer, msdu, 0);
  const int frames = 1024;
  for (int i = 0; i < frames; ++i) {
    stats.AddFrame(source.NextFrame());
  }
  EXPECT_EQ(stats.frames(), static_cast<uint64_t>(frames));
  // TSCs 0..1023 => TSC1 in {0..3}, 256 frames each; every row sums to the
  // frame count of its class.
  for (int tsc1 = 0; tsc1 < 4; ++tsc1) {
    uint64_t row_total = 0;
    for (int c = 0; c < 256; ++c) {
      row_total += stats.Row(static_cast<uint8_t>(tsc1), 56)[c];
    }
    EXPECT_EQ(row_total, 256u) << "tsc1 " << tsc1;
  }
  // Classes never seen stay empty.
  uint64_t empty_total = 0;
  for (int c = 0; c < 256; ++c) {
    empty_total += stats.Row(200, 60)[c];
  }
  EXPECT_EQ(empty_total, 0u);
}

TEST(CaptureStatsTest, PositionsAreOneBased) {
  const TkipPeer peer = TestPeer(6);
  const Bytes msdu = InjectedPacket();
  TkipCaptureStats stats(1, 4);
  TkipInjectionSource source(peer, msdu, 0);
  const TkipFrame frame = source.NextFrame();
  stats.AddFrame(frame);
  // Position 1 is ciphertext[0].
  EXPECT_EQ(stats.Row(static_cast<uint8_t>(frame.tsc >> 8), 1)[frame.ciphertext[0]],
            1u);
}

}  // namespace
}  // namespace rc4b
