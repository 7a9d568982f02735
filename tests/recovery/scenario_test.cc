#include "src/recovery/scenario.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "src/tls/cookie_attack.h"

namespace rc4b::recovery {
namespace {

// Tiny parameterizations so the 1/2/4-worker sweeps stay fast; the outcome
// contract (bit-exact for any worker count) is scale-independent.
ScenarioParams TinyParams() {
  ScenarioParams params;
  params.trials = 3;
  params.seed = 19;
  params.samples = 1 << 11;
  params.budget = 1 << 16;
  params.model_keys = 1 << 8;
  return params;
}

void ExpectBitExactAcrossWorkerCounts(const Scenario& scenario,
                                      ScenarioParams params) {
  params.workers = 1;
  const auto one = RunScenario(scenario, params);
  EXPECT_EQ(one.trials, params.trials);
  EXPECT_EQ(one.ranks.size(), params.trials);
  for (double rank : one.ranks) {
    EXPECT_TRUE(std::isfinite(rank));
  }
  for (unsigned workers : {2u, 4u}) {
    params.workers = workers;
    const auto many = RunScenario(scenario, params);
    EXPECT_TRUE(one == many) << scenario.name << " workers=" << workers;
  }
}

TEST(ScenarioTableTest, BuiltinNamesResolve) {
  const std::vector<Scenario>& builtins = BuiltinScenarios();
  for (const char* name :
       {"tkip-trailer", "tkip-trailer-long16", "cookie-base64-16",
        "cookie-hex-8-gap32", "singlebyte-beyond256"}) {
    const Scenario* scenario = FindScenario(builtins, name);
    ASSERT_NE(scenario, nullptr) << name;
    EXPECT_EQ(scenario->name, name);
    EXPECT_FALSE(scenario->description.empty());
  }
  EXPECT_EQ(FindScenario(builtins, "no-such-scenario"), nullptr);
  EXPECT_EQ(builtins.size(), 5u);
  // FindScenario returns the first match, so a duplicate name would hide a
  // scenario.
  std::set<std::string> names;
  for (const Scenario& scenario : builtins) {
    EXPECT_TRUE(names.insert(scenario.name).second) << "duplicate " << scenario.name;
  }
}

TEST(ScenarioTableTest, CustomScenariosRegisterNextToBuiltins) {
  CookieScenarioConfig config;
  config.cookie_length = 2;
  config.alphabet = CookieAlphabetHex();
  config.max_gap = 8;
  const std::vector<Scenario> table = {{"my-workload", "two hex bytes", config}};
  const Scenario* scenario = FindScenario(table, "my-workload");
  ASSERT_NE(scenario, nullptr);
  EXPECT_EQ(FindScenario(BuiltinScenarios(), "my-workload"), nullptr);

  ScenarioParams params;
  params.trials = 2;
  params.seed = 3;
  params.samples = uint64_t{1} << 32;
  params.budget = 64;
  const auto outcome = RunScenario(*scenario, params);
  EXPECT_EQ(outcome.trials, 2u);
  // Two hex characters at 2^32 ciphertexts: the combined FM + ABSAB signal
  // pins both bytes in every trial.
  EXPECT_EQ(outcome.budget_wins, 2u);
}

// The satellite contract extension: 1/2/4-worker bit-exactness of one
// built-in scenario from each family, mirroring tests/sim/.

TEST(ScenarioDeterminismTest, TkipFamilyBitExactAcrossWorkerCounts) {
  ExpectBitExactAcrossWorkerCounts(*FindScenario(BuiltinScenarios(), "tkip-trailer"),
                                   TinyParams());
}

TEST(ScenarioDeterminismTest, CookieFamilyBitExactAcrossWorkerCounts) {
  ScenarioParams params = TinyParams();
  params.samples = uint64_t{1} << 28;
  ExpectBitExactAcrossWorkerCounts(
      *FindScenario(BuiltinScenarios(), "cookie-hex-8-gap32"), params);
}

TEST(ScenarioDeterminismTest, SingleByteFamilyBitExactAcrossWorkerCounts) {
  ScenarioParams params = TinyParams();
  params.model_keys = 1 << 12;
  ExpectBitExactAcrossWorkerCounts(
      *FindScenario(BuiltinScenarios(), "singlebyte-beyond256"), params);
}

TEST(ScenarioDeterminismTest, PayloadVariantShiftsTheTrailerPositions) {
  // The long-payload variant must still run end-to-end (its model and stats
  // cover deeper keystream positions) and be deterministic at a fixed seed.
  const Scenario* scenario = FindScenario(BuiltinScenarios(), "tkip-trailer-long16");
  const Scenario* base = FindScenario(BuiltinScenarios(), "tkip-trailer");
  ASSERT_NE(scenario, nullptr);
  ASSERT_NE(base, nullptr);
  ScenarioParams params = TinyParams();
  params.trials = 2;
  const auto first = RunScenario(*scenario, params);
  const auto second = RunScenario(*scenario, params);
  EXPECT_TRUE(first == second);
  EXPECT_EQ(first.trials, 2u);
  // Regression: the ranks are the truth's, not the CRC false-hit draw both
  // variants share at a fixed seed.
  EXPECT_NE(RunScenario(*base, params).ranks, first.ranks);
}

}  // namespace
}  // namespace rc4b::recovery
