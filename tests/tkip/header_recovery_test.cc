#include "src/tkip/header_recovery.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace rc4b {
namespace {

// Builds the injected packet from the attacker's side: controlled server
// address/port, but unknown victim-side fields filled in.
Bytes VictimPacket(uint8_t ttl, uint32_t client_address, uint16_t client_port) {
  Ipv4Header ip;
  ip.source = 0x5db8d822;  // attacker's server (known)
  ip.destination = client_address;
  ip.ttl = ttl;
  TcpHeader tcp;
  tcp.source_port = 80;
  tcp.destination_port = client_port;
  return BuildTcpPacket(LlcSnapHeader{}, ip, tcp, FromString("7bytes!"));
}

Bytes TemplateWithUnknownsZeroed(const Bytes& truth) {
  Bytes tmpl = truth;
  for (size_t pos : UnknownHeaderLayout::Positions()) {
    tmpl[pos] = 0;
  }
  return tmpl;
}

TEST(HeaderRecoveryTest, LayoutPositionsMatchPacketStructure) {
  const Bytes truth = VictimPacket(64, 0xc0a80142, 51234);
  const Bytes tmpl = TemplateWithUnknownsZeroed(truth);
  // Zeroing the unknown fields must break the checksums...
  EXPECT_FALSE(HeaderChecksumsValid(tmpl));
  // ...and the true packet must validate.
  EXPECT_TRUE(HeaderChecksumsValid(truth));
  // Exactly 11 unknown bytes.
  EXPECT_EQ(UnknownHeaderLayout::Positions().size(), 11u);
}

TEST(HeaderRecoveryTest, RecoversFieldsWhenTruthRanksHigh) {
  const uint8_t ttl = 57;
  const uint32_t client = 0x0a000123;
  const uint16_t port = 49877;
  const Bytes truth = VictimPacket(ttl, client, port);
  const Bytes tmpl = TemplateWithUnknownsZeroed(truth);

  const auto positions = UnknownHeaderLayout::Positions();
  Xoshiro256 rng(1);
  SingleByteTables tables(positions.size(), std::vector<double>(256));
  for (size_t i = 0; i < positions.size(); ++i) {
    for (int v = 0; v < 256; ++v) {
      tables[i][v] = -rng.UnitDouble();
    }
    tables[i][truth[positions[i]]] += 1.5;  // truth near the top
  }

  const auto result = RecoverHeaderFields(tmpl, tables, 1 << 16);
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.ttl, ttl);
  EXPECT_EQ(result.client_address, client);
  EXPECT_EQ(result.client_port, port);
  EXPECT_EQ(result.msdu, truth);
}

TEST(HeaderRecoveryTest, ChecksumsPruneNearMisses) {
  // Put an impostor ahead of the truth at one position: both checksums
  // cover every unknown byte, so the impostor must be rejected.
  const Bytes truth = VictimPacket(64, 0xc0a80107, 50001);
  const Bytes tmpl = TemplateWithUnknownsZeroed(truth);

  const auto positions = UnknownHeaderLayout::Positions();
  SingleByteTables tables(positions.size(), std::vector<double>(256));
  for (size_t i = 0; i < positions.size(); ++i) {
    for (int v = 0; v < 256; ++v) {
      tables[i][v] = -0.01 * ((v - truth[positions[i]]) & 0xff);
    }
  }
  tables[0][(truth[positions[0]] + 1) & 0xff] = 0.005;  // impostor TTL first

  const auto result = RecoverHeaderFields(tmpl, tables, 1 << 12);
  ASSERT_TRUE(result.found);
  EXPECT_GT(result.candidates_tried, 1u);
  EXPECT_EQ(result.msdu, truth);
}

TEST(HeaderRecoveryTest, FailsGracefullyWithinBudget) {
  const Bytes truth = VictimPacket(64, 0xc0a80107, 50001);
  const Bytes tmpl = TemplateWithUnknownsZeroed(truth);
  const auto positions = UnknownHeaderLayout::Positions();
  Xoshiro256 rng(2);
  SingleByteTables tables(positions.size(), std::vector<double>(256));
  for (auto& table : tables) {
    for (auto& v : table) {
      v = -rng.UnitDouble();  // no signal at all
    }
  }
  const auto result = RecoverHeaderFields(tmpl, tables, 256);
  EXPECT_FALSE(result.found);
  // Regression: a failed traversal must report how many candidates it
  // actually tried, not 0.
  EXPECT_EQ(result.candidates_tried, 256u);
}

TEST(HeaderRecoveryTest, RejectsWrongTableCountAndShortTemplate) {
  // Regression: both cases used to be assert-only and indexed out of bounds
  // in Release builds.
  const Bytes tmpl = TemplateWithUnknownsZeroed(VictimPacket(64, 0xc0a80107, 50001));
  const SingleByteTables short_tables(3, std::vector<double>(256, 0.0));
  auto result = RecoverHeaderFields(tmpl, short_tables, 16);
  EXPECT_FALSE(result.found);
  EXPECT_EQ(result.candidates_tried, 0u);

  const SingleByteTables tables(UnknownHeaderLayout::Positions().size(),
                                std::vector<double>(256, 0.0));
  result = RecoverHeaderFields(Bytes(tmpl.begin(), tmpl.begin() + 47), tables, 16);
  EXPECT_FALSE(result.found);
  EXPECT_EQ(result.candidates_tried, 0u);
}

TEST(HeaderRecoveryTest, IndependentOfTrailerRecovery) {
  // Sect. 5.3: header-field recovery "can be done independently ... of
  // decrypting the MIC and ICV" — the checksum predicate must not read
  // beyond the TCP payload.
  Bytes truth = VictimPacket(64, 0xc0a80150, 50002);
  EXPECT_TRUE(HeaderChecksumsValid(truth));
  // Appending a (would-be) encrypted MIC+ICV trailer must not change it.
  Bytes with_trailer = truth;
  with_trailer.resize(truth.size());  // predicate only sees the MSDU we pass
  EXPECT_TRUE(HeaderChecksumsValid(with_trailer));
}

}  // namespace
}  // namespace rc4b
