// Output checks and the pinned environment. Every check that fails is one
// failed operation; failed ÷ attempted is the run's failed_fraction.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/recovery/engine.h"

namespace perfbench {

// Each key adds exactly one count per position, so every row of a finished
// grid (`cells_per_row` cells: 256 single-byte, 65536 digraph) sums to the
// grid's key count. Returns "" when every row does, else the first bad row.
std::string RowSumProblem(std::span<const uint64_t> cells, size_t cells_per_row,
                          uint64_t keys);

// Variables that would make the run measure a different program: injected
// faults, a forced kernel, a cached autotune choice.
inline constexpr const char* kPinnedEnvironment[] = {
    "RC4B_FAULTS", "RC4B_FAULT_STATE_DIR", "RC4B_KERNEL", "RC4B_AUTOTUNE_CACHE"};

// "" when the benchmark may run: none of kPinnedEnvironment is set (per
// `getenv`) and the library was built with NDEBUG.
std::string EnvironmentProblem(
    const std::function<const char*(const char*)>& getenv, bool ndebug);

// Thread-safe tally of operations (grids, shards, trials) and failures.
class OutcomeLog {
 public:
  void Attempt(uint64_t n = 1);
  void Fail(std::string reason);
  // An output check: `problem` empty passes, anything else is a failure.
  void Check(const std::string& problem);

  uint64_t attempted() const;
  uint64_t failed() const;
  std::vector<std::string> failures() const;

 private:
  mutable std::mutex mutex_;
  uint64_t attempted_ = 0;
  std::vector<std::string> failures_;
};

// Counts one attack trial: accepting a plaintext other than the truth is a
// failure (a miss within budget is not; it shows in recovery.found_fraction).
void RecordTrial(const rc4b::recovery::RecoveryResult& result, uint64_t trial,
                 OutcomeLog* log);

// 64-bit FNV-1a over the words of a result, for the default-seed digests.
uint64_t DigestWords(uint64_t digest, std::span<const uint64_t> words);
inline constexpr uint64_t kDigestInit = 0xcbf29ce484222325ULL;

// Looks up "<workload> <seed> <hex digest>" in the expected-digest file;
// nullopt when the file has no line for this workload and seed.
std::optional<uint64_t> ExpectedDigest(const std::string& path,
                                       const std::string& workload,
                                       uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
