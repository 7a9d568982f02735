#include "src/common/flags.h"

#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace rc4b {

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
  return std::strtoll(flags_.at(name).value.c_str(), nullptr, 0);
}

uint64_t FlagSet::GetUint(const std::string& name) const {
  return std::strtoull(flags_.at(name).value.c_str(), nullptr, 0);
}

double FlagSet::GetDouble(const std::string& name) const {
  return std::strtod(flags_.at(name).value.c_str(), nullptr);
}

bool FlagSet::GetBool(const std::string& name) const {
  const std::string& v = flags_.at(name).value;
  return v == "1" || v == "true" || v == "yes" || v == "on";
}

FlagSet& DefineScaleFlags(FlagSet& flags, const ScaleFlagSpec& spec) {
  return flags.Define(spec.count_flag, spec.count_default, spec.count_help)
      .Define(spec.workers_flag, "0", spec.workers_help)
      .Define("seed", spec.seed_default, spec.seed_help)
      .Define("interleave", "0",
              "RC4 streams per lockstep group (0 = auto, 1 = scalar; "
              "rounds down to a supported width)");
}

ScaleFlagValues GetScaleFlags(const FlagSet& flags, const ScaleFlagSpec& spec) {
  ScaleFlagValues values;
  values.count = flags.GetUint(spec.count_flag);
  values.workers = static_cast<unsigned>(flags.GetUint(spec.workers_flag));
  values.seed = flags.GetUint("seed");
  values.interleave = static_cast<size_t>(flags.GetUint("interleave"));
  return values;
}

}  // namespace rc4b
