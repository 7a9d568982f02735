#include "src/recovery/scenario.h"

#include <utility>

#include "src/biases/dataset.h"
#include "src/core/likelihood.h"
#include "src/core/rank.h"
#include "src/core/synthetic.h"
#include "src/recovery/engine.h"
#include "src/sim/cookie_sim.h"
#include "src/sim/runner.h"
#include "src/sim/tkip_sim.h"
#include "src/tls/cookie_attack.h"

namespace rc4b::recovery {

namespace {

// Tag of the attacker-model seed stream: models and trials draw from
// independent streams of the same base seed (src/sim/runner.h).
constexpr uint64_t kModelStream = 0x6d6f64656cULL;  // "model"

uint64_t OrDefault(uint64_t value, uint64_t fallback) {
  return value != 0 ? value : fallback;
}

}  // namespace

ScenarioOutcome RunScenario(const TkipTrailerScenarioConfig& config,
                            const ScenarioParams& params) {
  const Bytes msdu = config.payload.empty() ? sim::InjectedPacket()
                                            : sim::InjectedPacket(config.payload);
  TkipTscModel model(msdu.size() + 1, msdu.size() + kTkipTrailerSize);
  model.Generate(OrDefault(params.model_keys, config.default_model_keys),
                 sim::TrialSeed(params.seed, kModelStream), params.workers);
  if (config.target_bias_rms > 0.0) {
    const double raw_rms = model.RmsRelativeDeviation();
    if (raw_rms > config.target_bias_rms) {
      model.ShrinkTowardUniform(config.target_bias_rms / raw_rms);
    }
  }

  sim::TkipSimOptions options;
  options.checkpoints = {OrDefault(params.samples, config.default_samples)};
  options.payload = config.payload;
  options.candidate_budget = OrDefault(params.budget, config.default_budget);
  options.trials = params.trials;
  options.workers = params.workers;
  options.seed = params.seed;
  options.oracle_model = config.oracle;
  const auto aggregate = sim::RunTkipSimulations(model, options);

  ScenarioOutcome outcome;
  outcome.trials = aggregate.trials;
  outcome.budget_wins = aggregate.budget_wins[0];
  outcome.exact_wins = aggregate.two_wins[0];
  outcome.ranks = aggregate.truth_ranks[0];
  return outcome;
}

ScenarioOutcome RunScenario(const CookieScenarioConfig& config,
                            const ScenarioParams& params) {
  sim::CookieSimOptions options;
  options.cookie_length = config.cookie_length;
  options.alphabet = config.alphabet;
  options.alignment = config.alignment;
  options.max_gap = config.max_gap;
  options.attempt_budget =
      static_cast<double>(OrDefault(params.budget, config.default_budget));
  options.trials = params.trials;
  options.workers = params.workers;
  options.seed = params.seed;
  const sim::CookieSimContext context(options);
  const auto aggregate = sim::RunCookieSimulations(
      context, OrDefault(params.samples, config.default_samples));

  ScenarioOutcome outcome;
  outcome.trials = aggregate.trials;
  outcome.budget_wins = aggregate.budget_wins;
  // Top-two criterion from the trial-indexed ranks, matching the other families
  // (the aggregate's best_wins is the stricter top-1 Viterbi count).
  for (const double rank : aggregate.ranks) {
    outcome.exact_wins += rank < 2.0 ? 1 : 0;
  }
  outcome.ranks = aggregate.ranks;
  return outcome;
}

ScenarioOutcome RunScenario(const SingleByteScenarioConfig& config,
                            const ScenarioParams& params) {
  const size_t length = config.length;
  const size_t last = config.first_position + length - 1;
  const uint64_t samples = OrDefault(params.samples, config.default_samples);
  const uint64_t budget = OrDefault(params.budget, config.default_budget);

  // Attacker model: per-position keystream distributions measured with the
  // sharded engine (worker-count invariant, docs/engine.md).
  DatasetOptions dataset;
  dataset.keys = OrDefault(params.model_keys, config.default_model_keys);
  dataset.workers = params.workers;
  dataset.seed = sim::TrialSeed(params.seed, kModelStream);
  dataset.cache_dir = params.grid_cache;
  const SingleByteGrid grid = GenerateSingleByteDataset(last, dataset);

  std::vector<std::vector<double>> probs(length);
  std::vector<std::vector<double>> log_model(length);
  for (size_t r = 0; r < length; ++r) {
    probs[r].resize(256);
    for (size_t v = 0; v < 256; ++v) {
      probs[r][v] =
          grid.Probability(config.first_position - 1 + r, static_cast<uint8_t>(v));
    }
    log_model[r] = LogProbabilities(probs[r]);
  }

  struct Trial {
    double rank = 0.0;
    bool recovered = false;  // engine accepted the truth within the budget
    bool exact = false;      // truth within the top two candidates
  };
  const auto per_trial = sim::RunTrials<Trial>(
      sim::TrialRunnerOptions{params.trials, params.workers, params.seed},
      [&](uint64_t, Xoshiro256& rng) {
        Bytes truth(length);
        for (auto& b : truth) {
          b = rng.Byte();
        }
        // Ciphertext byte counts from the exact Poissonized law of the
        // perfect-model victim: counts[c] ~ Poisson(N * p[c ^ truth]).
        std::vector<std::vector<uint64_t>> counts(length);
        std::vector<double> shifted(256);
        for (size_t r = 0; r < length; ++r) {
          for (size_t c = 0; c < 256; ++c) {
            shifted[c] = probs[r][c ^ truth[r]];
          }
          counts[r] = SampleCounts(shifted, samples, rng);
        }
        SingleByteTables tables(length);
        for (size_t r = 0; r < length; ++r) {
          tables[r] = SingleByteLogLikelihood(counts[r], log_model[r]);
        }

        Trial trial;
        trial.rank = IndependentRank(tables, truth).estimate;
        trial.exact = trial.rank < 2.0;
        RecoveryOptions options;
        options.max_candidates = budget;
        options.truth = truth;
        const RecoveryEngine engine(std::move(options));
        // Truth oracle standing in for a checksum/server verifier: the
        // criterion is whether the traversal *reaches* the truth in budget.
        const auto result = engine.RecoverSingle(
            tables, [&](const Bytes& candidate) { return candidate == truth; });
        trial.recovered = result.found && result.correct;
        return trial;
      });

  ScenarioOutcome outcome;
  outcome.trials = params.trials;
  for (const Trial& trial : per_trial) {
    outcome.budget_wins += trial.recovered ? 1 : 0;
    outcome.exact_wins += trial.exact ? 1 : 0;
    outcome.ranks.push_back(trial.rank);
  }
  return outcome;
}

ScenarioOutcome RunScenario(const Scenario& scenario, const ScenarioParams& params) {
  return std::visit([&](const auto& config) { return RunScenario(config, params); },
                    scenario.config);
}

const std::vector<Scenario>& BuiltinScenarios() {
  static const std::vector<Scenario> scenarios = {
      {"tkip-trailer",
       "Sect. 5 WPA-TKIP MIC+ICV decryption of the injected 7-byte-payload "
       "packet (perfect-model victim)",
       TkipTrailerScenarioConfig{}},
      {"tkip-trailer-long16",
       "TKIP trailer variant: 16-byte payload shifts the MIC+ICV to deeper "
       "keystream positions",
       TkipTrailerScenarioConfig{.payload = FromString("sixteen bytes!!!")}},
      {"cookie-base64-16",
       "Sect. 6 HTTPS secure-cookie brute force: 16-char base64-style "
       "cookie, ABSAB gaps up to 128 (Fig. 10 operating point)",
       CookieScenarioConfig{}},
      {"cookie-hex-8-gap32",
       "cookie variant: 8-char hex token with a reduced 32-gap ABSAB budget",
       CookieScenarioConfig{.cookie_length = 8,
                            .alphabet = CookieAlphabetHex(),
                            .max_gap = 32,
                            .default_budget = uint64_t{1} << 17}},
      {"singlebyte-beyond256",
       "single-byte recovery past keystream position 256 from "
       "engine-measured per-position distributions (Sect. 3.3.3 biases)",
       SingleByteScenarioConfig{}},
  };
  return scenarios;
}

const Scenario* FindScenario(std::span<const Scenario> scenarios,
                             std::string_view name) {
  for (const Scenario& scenario : scenarios) {
    if (scenario.name == name) {
      return &scenario;
    }
  }
  return nullptr;
}

}  // namespace rc4b::recovery
