// Named end-to-end recovery scenarios (docs/recovery.md).
//
// A scenario is one parameterized Monte-Carlo evaluation of the unified
// recovery pipeline: victim setup, statistics capture (real or sampled from
// the exact law), likelihood tables, and the rank / RecoveryEngine success
// criteria — run trial-parallel on src/sim/runner.h under its determinism
// contract, so every outcome is bit-exact for any worker count. A scenario
// is plain data, a name plus one family's config; the built-in table names
// concrete parameterizations (cookie length x charset x gap budget, TKIP
// trailer/payload variants, single-byte recovery beyond position 256) so
// benches, sims, examples and tests all drive the same API instead of
// hand-rolling per-workload harnesses.
#ifndef SRC_RECOVERY_SCENARIO_H_
#define SRC_RECOVERY_SCENARIO_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "src/common/bytes.h"

namespace rc4b::recovery {

// Shared scale knobs. Zero (or empty) fields select the scenario's default,
// so one flag set drives every scenario family.
struct ScenarioParams {
  uint64_t trials = 8;      // simulated attacks
  unsigned workers = 0;     // trial shards; 0 = hardware concurrency
  uint64_t seed = 1;        // base seed of the (seed, trial) derivation
  uint64_t samples = 0;     // captured frames / requests per trial
  uint64_t budget = 0;      // candidate / brute-force attempt budget
  uint64_t model_keys = 0;  // attacker-model scale (keys per class / total)
  // When set, engine-backed scenarios warm-start their attacker-model grids
  // from this store::GridCache directory (docs/store.md) instead of
  // regenerating each run. Cached and fresh grids are bit-identical, so
  // outcomes do not depend on this field.
  std::string grid_cache;
};

// Per-scenario aggregate, folded in trial order (bit-exact for any
// ScenarioParams::workers at a fixed seed).
struct ScenarioOutcome {
  uint64_t trials = 0;
  uint64_t budget_wins = 0;  // truth recoverable within the budget
  uint64_t exact_wins = 0;   // truth within the top two candidates
  // [trial] the truth's rank: its position in the candidate list.
  std::vector<double> ranks;

  bool operator==(const ScenarioOutcome&) const = default;
};

// WPA-TKIP trailer decryption (Sect. 5): per-TSC1 likelihoods over captured
// retransmissions of the injected packet, CRC(MIC||ICV) verification.
struct TkipTrailerScenarioConfig {
  bool oracle = true;     // perfect-model victim (see src/sim/tkip_sim.h)
  Bytes payload;          // injected TCP payload; empty = Sect. 5.2's 7 bytes
  double target_bias_rms = 0.0015;  // model calibration (0 = raw model)
  uint64_t default_model_keys = uint64_t{1} << 14;  // keys per TSC1 class
  uint64_t default_samples = uint64_t{1} << 20;     // captured frames
  uint64_t default_budget = uint64_t{1} << 30;      // candidate traversal
};

// HTTPS secure-cookie brute force (Sect. 6): combined FM + multi-gap ABSAB
// transition tables at paper-scale request counts, Algorithm 2 candidates
// restricted to the cookie charset, rank-vs-budget success.
struct CookieScenarioConfig {
  size_t cookie_length = 16;
  std::vector<uint8_t> alphabet;  // empty = CookieAlphabet64()
  uint64_t max_gap = 128;         // largest ABSAB gap combined
  size_t alignment = 48;          // cookie keystream position mod 256
  uint64_t default_samples = uint64_t{9} << 27;  // captured requests
  uint64_t default_budget = uint64_t{1} << 23;   // brute-force attempts
};

// Single-byte plaintext recovery beyond keystream position 256 (Sect. 3.3.3
// / 6.1 setting): per-position distributions measured with the keystream
// engine, Poissonized ciphertext counts, lambda tables via formula (12), and
// a RecoveryEngine traversal with a truth oracle.
struct SingleByteScenarioConfig {
  size_t first_position = 257;  // 1-based; past the initial 256 bytes
  size_t length = 4;            // unknown plaintext bytes
  uint64_t default_model_keys = uint64_t{1} << 16;  // dataset keys
  uint64_t default_samples = uint64_t{1} << 12;     // captured ciphertexts
  uint64_t default_budget = uint64_t{1} << 16;      // candidate traversal
};

// Each overload runs params.trials simulated attacks of its family on the
// thread pool. Deterministic: a pure function of (config, params) minus
// params.workers.
ScenarioOutcome RunScenario(const TkipTrailerScenarioConfig& config,
                            const ScenarioParams& params);
ScenarioOutcome RunScenario(const CookieScenarioConfig& config,
                            const ScenarioParams& params);
ScenarioOutcome RunScenario(const SingleByteScenarioConfig& config,
                            const ScenarioParams& params);

// A named parameterization of one family.
struct Scenario {
  std::string name;
  std::string description;
  std::variant<TkipTrailerScenarioConfig, CookieScenarioConfig, SingleByteScenarioConfig>
      config;
};

// Runs the scenario's config through its family's overload.
ScenarioOutcome RunScenario(const Scenario& scenario, const ScenarioParams& params);

// The built-in scenarios, names unique: the paper's two headline attacks
// plus the variants listed in docs/recovery.md.
const std::vector<Scenario>& BuiltinScenarios();

// Lookup by name; nullptr when absent.
const Scenario* FindScenario(std::span<const Scenario> scenarios, std::string_view name);

}  // namespace rc4b::recovery

#endif  // SRC_RECOVERY_SCENARIO_H_
