#include "src/common/flags.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace rc4b {

namespace {

// A value that does not parse is a usage error, like an unknown flag: say
// which flag and what was expected, then exit(2).
[[noreturn]] void BadValue(const std::string& name, const std::string& value,
                           const char* expected) {
  std::fprintf(stderr, "flag --%s: expected %s, got \"%s\"\n", name.c_str(),
               expected, value.c_str());
  std::exit(2);
}

// strto* "succeed" on an empty string by parsing nothing; a value counts
// only if the parse consumed all of it.
bool ParsedWhole(const std::string& value, const char* end) {
  return end != value.c_str() && *end == '\0';
}

}  // namespace

FlagSet& FlagSet::Define(const std::string& name, const std::string& default_value,
                         const std::string& help) {
  flags_[name] = Flag{default_value, help};
  return *this;
}

void FlagSet::PrintUsage() const {
  std::fprintf(stderr, "%s\n\nFlags:\n", description_.c_str());
  for (const auto& [name, flag] : flags_) {
    std::fprintf(stderr, "  --%-24s %s (default: %s)\n", name.c_str(),
                 flag.help.c_str(), flag.value.empty() ? "\"\"" : flag.value.c_str());
  }
}

bool FlagSet::Parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return false;
    }
    if (arg.substr(0, 2) != "--") {
      std::fprintf(stderr, "unexpected positional argument: %s\n", argv[i]);
      std::exit(2);
    }
    arg.remove_prefix(2);
    std::string name;
    std::string value;
    auto eq = arg.find('=');
    if (eq != std::string_view::npos) {
      name = std::string(arg.substr(0, eq));
      value = std::string(arg.substr(eq + 1));
    } else {
      name = std::string(arg);
      if (i + 1 >= argc) {
        std::fprintf(stderr, "flag --%s expects a value\n", name.c_str());
        std::exit(2);
      }
      value = argv[++i];
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) {
      std::fprintf(stderr, "unknown flag --%s (use --help)\n", name.c_str());
      std::exit(2);
    }
    it->second.value = value;
  }
  return true;
}

std::string FlagSet::GetString(const std::string& name) const {
  return flags_.at(name).value;
}

int64_t FlagSet::GetInt(const std::string& name) const {
  const std::string& value = flags_.at(name).value;
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(value.c_str(), &end, 0);
  if (!ParsedWhole(value, end) || errno == ERANGE) {
    BadValue(name, value, "an integer");
  }
  return parsed;
}

uint64_t FlagSet::GetUint(const std::string& name) const {
  const std::string& value = flags_.at(name).value;
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(value.c_str(), &end, 0);
  // strtoull also takes a sign and negates in unsigned arithmetic, so "-1"
  // would become 2^64 - 1.
  if (!ParsedWhole(value, end) || errno == ERANGE ||
      value.find_first_of("+-") != std::string::npos) {
    BadValue(name, value, "an unsigned integer (decimal or 0x hex)");
  }
  return parsed;
}

double FlagSet::GetDouble(const std::string& name) const {
  const std::string& value = flags_.at(name).value;
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(value.c_str(), &end);
  if (!ParsedWhole(value, end) || errno == ERANGE) {
    BadValue(name, value, "a number");
  }
  return parsed;
}

bool FlagSet::GetBool(const std::string& name) const {
  const std::string& v = flags_.at(name).value;
  if (v == "1" || v == "true" || v == "yes" || v == "on") {
    return true;
  }
  if (v == "0" || v == "false" || v == "no" || v == "off") {
    return false;
  }
  BadValue(name, v, "true/false, yes/no, on/off or 1/0");
}

FlagSet& DefineScaleFlags(FlagSet& flags, const ScaleFlagSpec& spec) {
  return flags.Define(spec.count_flag, spec.count_default, spec.count_help)
      .Define(spec.workers_flag, "0", spec.workers_help)
      .Define("seed", spec.seed_default, spec.seed_help);
}

ScaleFlagValues GetScaleFlags(const FlagSet& flags, const ScaleFlagSpec& spec) {
  ScaleFlagValues values;
  values.count = flags.GetUint(spec.count_flag);
  values.workers = static_cast<unsigned>(flags.GetUint(spec.workers_flag));
  values.seed = flags.GetUint("seed");
  return values;
}

}  // namespace rc4b
