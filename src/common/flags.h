// Tiny command-line flag parser for example binaries and benchmark harnesses.
// Supports --name=value and --name value forms plus --help text generation.
#ifndef SRC_COMMON_FLAGS_H_
#define SRC_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rc4b {

class FlagSet {
 public:
  explicit FlagSet(std::string program_description)
      : description_(std::move(program_description)) {}

  // Registers a flag with a default. Returns *this for chaining.
  FlagSet& Define(const std::string& name, const std::string& default_value,
                  const std::string& help);

  // Parses argv. On "--help" prints usage and returns false; the caller should
  // exit. Unknown flags abort with a message.
  bool Parse(int argc, char** argv);

  // Typed getters. A value that is not entirely a number of the right kind
  // (trailing characters, a sign on an unsigned value, out of range) or an
  // unknown boolean word prints the flag and exits with status 2, like an
  // unknown flag. Integers take decimal or 0x hex.
  std::string GetString(const std::string& name) const;
  int64_t GetInt(const std::string& name) const;
  uint64_t GetUint(const std::string& name) const;
  double GetDouble(const std::string& name) const;
  bool GetBool(const std::string& name) const;

 private:
  struct Flag {
    std::string value;
    std::string help;
  };

  void PrintUsage() const;

  std::string description_;
  std::map<std::string, Flag> flags_;
};

// Shared scale/parallelism flag conventions of the bench and example
// binaries: a count flag (--keys for dataset generators, --sims for
// Monte-Carlo harnesses, --trials for scenario runs), a worker-count flag
// (--workers, or --threads where the binary sweeps worker counts itself),
// and --seed.
// bench/harness.h shares the printing; these helpers share the parsing, so
// every binary spells the common knobs the same way.
struct ScaleFlagSpec {
  std::string count_flag = "keys";
  std::string count_default;
  std::string count_help;
  std::string workers_flag = "workers";
  std::string workers_help = "worker threads (0 = all cores)";
  std::string seed_default = "1";
  std::string seed_help = "simulation seed";
};

struct ScaleFlagValues {
  uint64_t count = 0;
  unsigned workers = 0;
  uint64_t seed = 0;
};

// Registers the spec's three flags on `flags`; returns `flags` for chaining
// additional binary-specific Define calls.
FlagSet& DefineScaleFlags(FlagSet& flags, const ScaleFlagSpec& spec);

// Reads the three values back after Parse().
ScaleFlagValues GetScaleFlags(const FlagSet& flags, const ScaleFlagSpec& spec);

}  // namespace rc4b

#endif  // SRC_COMMON_FLAGS_H_
