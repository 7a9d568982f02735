#include "perfbench/checks.h"

#include <fstream>
#include <sstream>

namespace perfbench {

std::string RowSumProblem(std::span<const uint64_t> cells, size_t cells_per_row,
                          uint64_t keys) {
  if (cells_per_row == 0 || cells.size() % cells_per_row != 0) {
    return "grid of " + std::to_string(cells.size()) +
           " cells is not a whole number of " + std::to_string(cells_per_row) +
           "-cell rows";
  }
  for (size_t row = 0; row < cells.size() / cells_per_row; ++row) {
    uint64_t sum = 0;
    for (const uint64_t cell : cells.subspan(row * cells_per_row, cells_per_row)) {
      sum += cell;
    }
    if (sum != keys) {
      return "row " + std::to_string(row) + " sums to " + std::to_string(sum) +
             ", expected " + std::to_string(keys) + " (one count per key)";
    }
  }
  return "";
}

std::string EnvironmentProblem(
    const std::function<const char*(const char*)>& getenv, bool ndebug) {
  for (const char* name : kPinnedEnvironment) {
    if (getenv(name) != nullptr) {
      return std::string(name) +
             " is set: the run would measure a different program; unset it";
    }
  }
  if (!ndebug) {
    return "built without NDEBUG: assertions would be timed; build Release";
  }
  return "";
}

void OutcomeLog::Attempt(uint64_t n) {
  std::lock_guard<std::mutex> lock(mutex_);
  attempted_ += n;
}

void OutcomeLog::Fail(std::string reason) {
  std::lock_guard<std::mutex> lock(mutex_);
  failures_.push_back(std::move(reason));
}

void OutcomeLog::Check(const std::string& problem) {
  if (!problem.empty()) {
    Fail(problem);
  }
}

uint64_t OutcomeLog::attempted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return attempted_;
}

uint64_t OutcomeLog::failed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return failures_.size();
}

std::vector<std::string> OutcomeLog::failures() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return failures_;
}

void RecordTrial(const rc4b::recovery::RecoveryResult& result, uint64_t trial,
                 OutcomeLog* log) {
  log->Attempt();
  if (result.found && !result.correct) {
    log->Fail("trial " + std::to_string(trial) +
              ": accepted a plaintext that is not the truth (candidate " +
              std::to_string(result.candidates_tried) + ")");
  }
}

uint64_t DigestWords(uint64_t digest, std::span<const uint64_t> words) {
  for (uint64_t word : words) {
    for (int byte = 0; byte < 8; ++byte) {
      digest ^= word & 0xff;
      digest *= 0x100000001b3ULL;
      word >>= 8;
    }
  }
  return digest;
}

std::optional<uint64_t> ExpectedDigest(const std::string& path,
                                       const std::string& workload,
                                       uint64_t seed) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string name;
    uint64_t line_seed = 0;
    std::string hex;
    if (fields >> name >> line_seed >> hex && name == workload &&
        line_seed == seed) {
      return std::stoull(hex, nullptr, 16);
    }
  }
  return std::nullopt;
}

}  // namespace perfbench
