#include "src/recovery/scenario.h"

#include <cassert>
#include <cstdio>
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

class TkipTrailerScenario : public Scenario {
 public:
  TkipTrailerScenario(std::string name, std::string description,
                      TkipTrailerScenarioConfig config)
      : Scenario(std::move(name), std::move(description)),
        config_(std::move(config)) {}

  ScenarioOutcome Run(const ScenarioParams& params) const override {
    const Bytes msdu = config_.payload.empty()
                           ? sim::InjectedPacket()
                           : sim::InjectedPacket(config_.payload);
    TkipTscModel model(msdu.size() + 1, msdu.size() + kTkipTrailerSize);
    model.Generate(OrDefault(params.model_keys, config_.default_model_keys),
                   sim::TrialSeed(params.seed, kModelStream), params.workers);
    if (config_.target_bias_rms > 0.0) {
      const double raw_rms = model.RmsRelativeDeviation();
      if (raw_rms > config_.target_bias_rms) {
        model.ShrinkTowardUniform(config_.target_bias_rms / raw_rms);
      }
    }

    sim::TkipSimOptions options;
    options.checkpoints = {OrDefault(params.samples, config_.default_samples)};
    options.payload = config_.payload;
    options.candidate_budget =
        OrDefault(params.budget, config_.default_budget);
    options.trials = params.trials;
    options.workers = params.workers;
    options.seed = params.seed;
    options.oracle_model = config_.oracle;
    const auto aggregate = sim::RunTkipSimulations(model, options);

    ScenarioOutcome outcome;
    outcome.trials = aggregate.trials;
    outcome.budget_wins = aggregate.budget_wins[0];
    outcome.exact_wins = aggregate.two_wins[0];
    outcome.ranks = aggregate.icv_positions[0];
    return outcome;
  }

 private:
  TkipTrailerScenarioConfig config_;
};

class CookieScenario : public Scenario {
 public:
  CookieScenario(std::string name, std::string description,
                 CookieScenarioConfig config)
      : Scenario(std::move(name), std::move(description)),
        config_(std::move(config)) {}

  ScenarioOutcome Run(const ScenarioParams& params) const override {
    sim::CookieSimOptions options;
    options.cookie_length = config_.cookie_length;
    options.alphabet = config_.alphabet;
    options.alignment = config_.alignment;
    options.max_gap = config_.max_gap;
    options.attempt_budget = static_cast<double>(
        OrDefault(params.budget, config_.default_budget));
    options.trials = params.trials;
    options.workers = params.workers;
    options.seed = params.seed;
    const sim::CookieSimContext context(options);
    const auto aggregate = sim::RunCookieSimulations(
        context, OrDefault(params.samples, config_.default_samples));

    ScenarioOutcome outcome;
    outcome.trials = aggregate.trials;
    outcome.budget_wins = aggregate.budget_wins;
    // Top-two criterion from the trial-indexed ranks, matching the other
    // families (the aggregate's best_wins is the stricter top-1 Viterbi
    // count).
    for (const double rank : aggregate.ranks) {
      outcome.exact_wins += rank < 2.0 ? 1 : 0;
    }
    outcome.ranks = aggregate.ranks;
    return outcome;
  }

 private:
  CookieScenarioConfig config_;
};

class SingleByteScenario : public Scenario {
 public:
  SingleByteScenario(std::string name, std::string description,
                     SingleByteScenarioConfig config)
      : Scenario(std::move(name), std::move(description)), config_(config) {}

  ScenarioOutcome Run(const ScenarioParams& params) const override {
    const size_t length = config_.length;
    const size_t last = config_.first_position + length - 1;
    const uint64_t samples =
        OrDefault(params.samples, config_.default_samples);
    const uint64_t budget = OrDefault(params.budget, config_.default_budget);

    // Attacker model: per-position keystream distributions measured with the
    // sharded engine (worker-count invariant, docs/engine.md).
    DatasetOptions dataset;
    dataset.keys = OrDefault(params.model_keys, config_.default_model_keys);
    dataset.workers = params.workers;
    dataset.seed = sim::TrialSeed(params.seed, kModelStream);
    dataset.cache_dir = params.grid_cache;
    const SingleByteGrid grid = GenerateSingleByteDataset(last, dataset);

    std::vector<std::vector<double>> probs(length);
    std::vector<std::vector<double>> log_model(length);
    for (size_t r = 0; r < length; ++r) {
      probs[r].resize(256);
      for (size_t v = 0; v < 256; ++v) {
        probs[r][v] = grid.Probability(config_.first_position - 1 + r,
                                       static_cast<uint8_t>(v));
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

 private:
  SingleByteScenarioConfig config_;
};

}  // namespace

void ScenarioRegistry::Register(std::unique_ptr<Scenario> scenario) {
  assert(scenario != nullptr);
  assert(Find(scenario->name()) == nullptr);
  scenarios_.push_back(std::move(scenario));
}

const Scenario* ScenarioRegistry::Find(std::string_view name) const {
  for (const auto& scenario : scenarios_) {
    if (scenario->name() == name) {
      return scenario.get();
    }
  }
  return nullptr;
}

std::vector<const Scenario*> ScenarioRegistry::List() const {
  std::vector<const Scenario*> out;
  out.reserve(scenarios_.size());
  for (const auto& scenario : scenarios_) {
    out.push_back(scenario.get());
  }
  return out;
}

const ScenarioRegistry& ScenarioRegistry::Builtin() {
  static const ScenarioRegistry* const registry = [] {
    auto* r = new ScenarioRegistry();
    r->Register(MakeTkipTrailerScenario(
        "tkip-trailer",
        "Sect. 5 WPA-TKIP MIC+ICV decryption of the injected 7-byte-payload "
        "packet (perfect-model victim)",
        TkipTrailerScenarioConfig{}));
    TkipTrailerScenarioConfig long16;
    long16.payload = FromString("sixteen bytes!!!");
    r->Register(MakeTkipTrailerScenario(
        "tkip-trailer-long16",
        "TKIP trailer variant: 16-byte payload shifts the MIC+ICV to deeper "
        "keystream positions",
        std::move(long16)));
    r->Register(MakeCookieScenario(
        "cookie-base64-16",
        "Sect. 6 HTTPS secure-cookie brute force: 16-char base64-style "
        "cookie, ABSAB gaps up to 128 (Fig. 10 operating point)",
        CookieScenarioConfig{}));
    CookieScenarioConfig hex8;
    hex8.cookie_length = 8;
    hex8.alphabet = CookieAlphabetHex();
    hex8.max_gap = 32;
    hex8.default_budget = uint64_t{1} << 17;
    r->Register(MakeCookieScenario(
        "cookie-hex-8-gap32",
        "cookie variant: 8-char hex token with a reduced 32-gap ABSAB "
        "budget",
        std::move(hex8)));
    r->Register(MakeSingleByteScenario(
        "singlebyte-beyond256",
        "single-byte recovery past keystream position 256 from "
        "engine-measured per-position distributions (Sect. 3.3.3 biases)",
        SingleByteScenarioConfig{}));
    return r;
  }();
  return *registry;
}

std::unique_ptr<Scenario> MakeTkipTrailerScenario(
    std::string name, std::string description,
    TkipTrailerScenarioConfig config) {
  return std::make_unique<TkipTrailerScenario>(
      std::move(name), std::move(description), std::move(config));
}

std::unique_ptr<Scenario> MakeCookieScenario(std::string name,
                                             std::string description,
                                             CookieScenarioConfig config) {
  return std::make_unique<CookieScenario>(
      std::move(name), std::move(description), std::move(config));
}

std::unique_ptr<Scenario> MakeSingleByteScenario(
    std::string name, std::string description,
    SingleByteScenarioConfig config) {
  return std::make_unique<SingleByteScenario>(std::move(name),
                                              std::move(description), config);
}

}  // namespace rc4b::recovery
