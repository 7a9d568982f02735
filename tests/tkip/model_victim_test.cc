#include <array>
#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/rc4/rc4.h"
#include "src/tkip/injection.h"
#include "src/tkip/tsc_model.h"

namespace rc4b {
namespace {

// A model with a deterministic value per (tsc1, pos): sampling from it must
// return exactly that value, and the emitted ciphertext must be the XOR with
// the plaintext.
TEST(ModelVictimTest, DeltaDistributionsRoundTrip) {
  TkipTscModel model(5, 8);
  for (int tsc1 = 0; tsc1 < 256; ++tsc1) {
    for (size_t pos = 5; pos <= 8; ++pos) {
      std::vector<double> p(256, 1e-12);
      p[(tsc1 + pos) & 0xff] = 1.0;
      model.SetRow(static_cast<uint8_t>(tsc1), pos, p);
    }
  }
  Bytes plaintext(8);
  for (size_t i = 0; i < 8; ++i) {
    plaintext[i] = static_cast<uint8_t>(0x11 * (i + 1));
  }
  ModelVictimSource source(model, plaintext, /*initial_tsc=*/0x300, /*seed=*/1);
  for (int i = 0; i < 600; ++i) {
    const TkipFrame frame = source.NextFrame();
    const uint8_t tsc1 = static_cast<uint8_t>(frame.tsc >> 8);
    for (size_t pos = 5; pos <= 8; ++pos) {
      const uint8_t keystream = static_cast<uint8_t>((tsc1 + pos) & 0xff);
      ASSERT_EQ(frame.ciphertext[pos - 1], plaintext[pos - 1] ^ keystream)
          << "tsc " << frame.tsc << " pos " << pos;
    }
    // Positions outside the model range are zero-filled.
    EXPECT_EQ(frame.ciphertext[0], 0);
  }
}

TEST(ModelVictimTest, TscIncrementsAndClassesCycle) {
  TkipTscModel model(1, 1);
  std::vector<double> uniform(256, 1.0 / 256);
  for (int tsc1 = 0; tsc1 < 256; ++tsc1) {
    model.SetRow(static_cast<uint8_t>(tsc1), 1, uniform);
  }
  Bytes plaintext(1, 0);
  ModelVictimSource source(model, plaintext, 250, 2);
  for (uint64_t expected_tsc = 250; expected_tsc < 600; ++expected_tsc) {
    EXPECT_EQ(source.NextFrame().tsc, expected_tsc);
  }
}

TEST(ModelVictimDeathTest, ShortPlaintextAbortsInReleaseBuilds) {
  // NextFrame reads the plaintext up to the model's last position, so a
  // shorter plaintext must abort in every build type, Release included.
  TkipTscModel model(5, 8);
  EXPECT_DEATH(ModelVictimSource(model, Bytes(7, 0), 0, 1),
               "ModelVictimSource: plaintext of 7 bytes ends before last position 8");
}

TEST(ModelVictimTest, SampledFrequenciesMatchModel) {
  // One biased cell in one class: capture statistics over many frames must
  // reproduce the bias for that class only.
  TkipTscModel model(3, 3);
  std::vector<double> uniform(256, 1.0 / 256);
  for (int tsc1 = 0; tsc1 < 256; ++tsc1) {
    model.SetRow(static_cast<uint8_t>(tsc1), 3, uniform);
  }
  std::vector<double> biased(256, (1.0 - 0.1) / 255.0);
  biased[42] = 0.1;  // ~25x uniform in class 7
  model.SetRow(7, 3, biased);

  Bytes plaintext(3, 0);  // zero plaintext => ciphertext == keystream
  ModelVictimSource source(model, plaintext, 0, 3);
  TkipCaptureStats stats(3, 3);
  const int frames = 1 << 20;
  for (int i = 0; i < frames; ++i) {
    stats.AddFrame(source.NextFrame());
  }
  const uint64_t class7_frames = frames / 256;
  const double rate42 =
      static_cast<double>(stats.Row(7, 3)[42]) / static_cast<double>(class7_frames);
  EXPECT_NEAR(rate42, 0.1, 6 * std::sqrt(0.1 / class7_frames));
  const double other_rate =
      static_cast<double>(stats.Row(8, 3)[42]) / static_cast<double>(class7_frames);
  EXPECT_NEAR(other_rate, 1.0 / 256, 6 * std::sqrt((1.0 / 256) / class7_frames));
}

TEST(TscModelTest, ShrinkTowardUniform) {
  TkipTscModel model(1, 1);
  std::vector<double> p(256, (1.0 - 0.5) / 255.0);
  p[0] = 0.5;
  for (int tsc1 = 0; tsc1 < 256; ++tsc1) {
    model.SetRow(static_cast<uint8_t>(tsc1), 1, p);
  }
  const double before = model.RmsRelativeDeviation();
  model.ShrinkTowardUniform(0.1);
  const double after = model.RmsRelativeDeviation();
  EXPECT_NEAR(after / before, 0.1, 1e-6);
  // Probabilities remain a distribution.
  double sum = 0.0;
  for (int v = 0; v < 256; ++v) {
    sum += model.Probability(0, 1, static_cast<uint8_t>(v));
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(TscModelTest, GenerateProducesNormalizedRows) {
  TkipTscModel model(1, 2);
  model.Generate(/*keys_per_class=*/1 << 10, /*seed=*/5, /*workers=*/8);
  for (int tsc1 = 0; tsc1 < 256; tsc1 += 51) {
    for (size_t pos = 1; pos <= 2; ++pos) {
      double sum = 0.0;
      for (int v = 0; v < 256; ++v) {
        sum += model.Probability(static_cast<uint8_t>(tsc1), pos,
                                 static_cast<uint8_t>(v));
      }
      EXPECT_NEAR(sum, 1.0, 1e-9) << "tsc1 " << tsc1 << " pos " << pos;
    }
  }
}

// TkipTscModel::Generate as a per-key scalar loop: class tsc1 seeds
// Xoshiro256(seed * 1000003 + tsc1), and each key is (tsc1,
// (tsc1 | 0x20) & 0x7f) followed by 14 bytes of that generator. Returns the
// Laplace-smoothed log-probabilities in LogRow order, [tsc1][pos][value].
std::vector<double> ScalarKeyLoopModel(size_t first, size_t last,
                                       uint64_t keys_per_class, uint64_t seed) {
  const size_t positions = last - first + 1;
  std::vector<uint64_t> counts(256 * positions * 256, 0);
  Bytes keystream(last);
  for (uint64_t tsc1 = 0; tsc1 < 256; ++tsc1) {
    Xoshiro256 rng(seed * 1000003 + tsc1);
    std::array<uint8_t, 16> key;
    for (uint64_t k = 0; k < keys_per_class; ++k) {
      key[0] = static_cast<uint8_t>(tsc1);
      key[1] = static_cast<uint8_t>((tsc1 | 0x20) & 0x7f);
      rng.Fill(std::span<uint8_t>(key.data() + 2, 14));
      Rc4 rc4(key);
      rc4.Keystream(keystream);
      for (size_t pos = first; pos <= last; ++pos) {
        counts[(tsc1 * positions + (pos - first)) * 256 + keystream[pos - 1]] += 1;
      }
    }
  }
  std::vector<double> log_p(counts.size());
  const double denom = static_cast<double>(keys_per_class) + 256.0;
  for (size_t i = 0; i < counts.size(); ++i) {
    log_p[i] = std::log((static_cast<double>(counts[i]) + 1.0) / denom);
  }
  return log_p;
}

TEST(TscModelTest, GenerateMatchesScalarKeyLoop) {
  // 37 keys per class are 4 lockstep groups and 5 one-lane keys; 300 span
  // two key batches. Every row must match bit for bit at any worker count.
  struct Range {
    size_t first, last;
  };
  for (const Range range : {Range{3, 19}, Range{1, 1}}) {
    for (const uint64_t keys_per_class : {uint64_t{37}, uint64_t{300}}) {
      const std::vector<double> expected =
          ScalarKeyLoopModel(range.first, range.last, keys_per_class, 9);
      for (const unsigned workers : {1u, 3u}) {
        TkipTscModel model(range.first, range.last);
        model.Generate(keys_per_class, 9, workers);
        for (int tsc1 = 0; tsc1 < 256; ++tsc1) {
          for (size_t pos = range.first; pos <= range.last; ++pos) {
            const size_t row =
                static_cast<size_t>(tsc1) * model.position_count() + (pos - range.first);
            ASSERT_EQ(std::memcmp(model.LogRow(static_cast<uint8_t>(tsc1), pos),
                                  expected.data() + row * 256, 256 * sizeof(double)),
                      0)
                << "positions [" << range.first << ", " << range.last
                << "] keys " << keys_per_class << " workers " << workers
                << " tsc1 " << tsc1 << " pos " << pos;
          }
        }
      }
    }
  }
}

TEST(TscModelTest, Position1ReflectsKeyStructure) {
  // The first keystream byte is strongly TSC1-dependent (K0 = TSC1); two
  // independently seeded models must agree on the *structure* at position 1
  // far beyond noise (the measured inter-seed correlation is ~0.83 at this
  // scale).
  TkipTscModel a(1, 1), b(1, 1);
  a.Generate(1 << 17, 100, 0);
  b.Generate(1 << 17, 200, 0);
  double saa = 0, sbb = 0, sab = 0;
  for (int t = 0; t < 256; ++t) {
    for (int v = 0; v < 256; ++v) {
      const double da =
          a.Probability(static_cast<uint8_t>(t), 1, static_cast<uint8_t>(v)) * 256 - 1;
      const double db =
          b.Probability(static_cast<uint8_t>(t), 1, static_cast<uint8_t>(v)) * 256 - 1;
      saa += da * da;
      sbb += db * db;
      sab += da * db;
    }
  }
  const double corr = sab / std::sqrt(saa * sbb);
  EXPECT_GT(corr, 0.2);
}

}  // namespace
}  // namespace rc4b
