// perfbench: the repository benchmark (README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>] [--digests <file>] [--spans <file>]
//             [--revision <id>]
//
// Sets the workload up several times (setup_s is the median), runs it closed
// loop for --seconds, checks every output, prints the report and, as the
// last stdout line, the result JSON: end-to-end metrics with --trace 0,
// per-layer metrics from the traced run with --trace 1. Exits 1 when an
// output check fails, 2 on a usage or environment error.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "perfbench/stats.h"
#include "perfbench/workloads.h"
#include "src/rc4/kernel_registry.h"

namespace perfbench {
namespace {

#ifdef NDEBUG
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif

constexpr int kSetupRepetitions = 3;

struct Args {
  RunConfig config;
  std::string digests = "perfbench/expected_digests.txt";
  std::string spans;
  std::string revision = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  std::string trace = "0";
  std::string work_dir = ".bench_build/work";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->config.workload = value;
    } else if (flag == "--seed") {
      args->config.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args->config.seconds = std::stod(value);
    } else if (flag == "--trace") {
      trace = value;
    } else if (flag == "--work-dir") {
      work_dir = value;
    } else if (flag == "--digests") {
      args->digests = value;
    } else if (flag == "--spans") {
      args->spans = value;
    } else if (flag == "--revision") {
      args->revision = value;
    } else {
      return false;
    }
  }
  if (argc % 2 != 1 || (trace != "0" && trace != "1") ||
      args->config.seconds <= 0) {
    return false;
  }
  args->config.trace = trace == "1";
  args->config.work_dir = work_dir + "/" + args->config.workload + "-" +
                          std::to_string(::getpid());
  return true;
}

std::unique_ptr<Workload> MakeWorkload(const RunConfig& config) {
  if (config.workload == "singlebyte-grid") return MakeSinglebyteGrid(config);
  if (config.workload == "digraph-campaign") return MakeDigraphCampaign(config);
  if (config.workload == "tkip-attack") return MakeTkipAttack(config);
  if (config.workload == "cookie-attack") return MakeCookieAttack(config);
  return nullptr;
}

// CPUs this process may run on (what `nproc` prints).
unsigned AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return 1;
  }
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

Environment RecordEnvironment(const Args& args) {
  Environment env;
  const rc4b::KernelChoice choice = rc4b::ResolveKernelChoice("", 0);
  env.kernel = std::string(choice.name()) + "@" + std::to_string(choice.width);
  env.cpu_features = rc4b::CpuFeatureString();
  env.nproc = args.config.nproc;
  std::array<char, 256> host{};
  ::gethostname(host.data(), host.size() - 1);
  env.host = host.data();
  env.revision = args.revision;
  env.build_type = PERFBENCH_BUILD_TYPE;
  return env;
}

// Peak resident memory of this process and of every reaped worker process.
double PeakRssMb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0;
}

int Run(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <singlebyte-grid|digraph-campaign|"
                 "tkip-attack|cookie-attack> --seed <n> --seconds <s> "
                 "--trace <0|1> [--work-dir <dir>] [--digests <file>] "
                 "[--spans <file>] [--revision <id>]\n");
    return 2;
  }
  const std::string problem = EnvironmentProblem(
      [](const char* name) { return std::getenv(name); }, kNdebug);
  if (!problem.empty()) {
    std::fprintf(stderr, "perfbench: refusing to run: %s\n", problem.c_str());
    return 2;
  }
  RunConfig& config = args.config;
  config.nproc = AvailableCpus();
  std::unique_ptr<Workload> workload = MakeWorkload(config);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 config.workload.c_str());
    return 2;
  }
  const Environment env = RecordEnvironment(args);
  if (rc4b::IoStatus status = rc4b::MakeDirs(config.work_dir); !status.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", status.message().c_str());
    return 2;
  }

  TraceBuffer setup_trace(config.trace);
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepetitions; ++i) {
    const int64_t start = NowNs();
    workload->Setup(&setup_trace);
    setup_s.push_back(Seconds(NowNs() - start));
  }
  WorkloadResult result;
  workload->Run(&result);
  std::filesystem::remove_all(config.work_dir);
  if (const auto expected = ExpectedDigest(args.digests, config.workload, config.seed)) {
    if (result.digest != expected) {
      result.outcomes.Fail("outcome digest differs from the one kept for seed " +
                           std::to_string(config.seed));
    }
  }

  std::vector<Metric> end_to_end = {SampledMetric("setup_s", "s", setup_s, "setup_s")};
  end_to_end.insert(end_to_end.end(), result.end_to_end.begin(),
                    result.end_to_end.end());
  end_to_end.push_back(Metric{"peak_rss_mb", "MB", PeakRssMb(), 1, 0, 0, "peak_rss_mb"});
  const uint64_t attempted = std::max<uint64_t>(result.outcomes.attempted(), 1);
  end_to_end.push_back(Metric{
      "failed_fraction", "ratio",
      static_cast<double>(result.outcomes.failed()) / static_cast<double>(attempted),
      attempted, 0, 0, ""});

  AppendSpans(&result.spans, setup_trace.spans());
  if (config.trace) {
    result.SetLayer("trace.coverage", Coverage(result.spans), result.spans.size());
    if (!args.spans.empty() && !WriteSpans(args.spans, result.spans)) {
      std::fprintf(stderr, "perfbench: could not write %s\n", args.spans.c_str());
    }
  }

  std::vector<Metric> per_layer;
  for (const MetricName& name : kPerLayerMetrics) {
    Metric metric{name.name, name.unit, 0.0, 0, 0, 0, name.name};
    if (const auto it = result.per_layer.find(name.name);
        it != result.per_layer.end()) {
      metric.value = it->second.value;
      metric.samples = it->second.samples;
    }
    per_layer.push_back(metric);
  }

  PrintEnvironment(stdout, config.workload, config.seed, env);
  PrintMetrics(stdout, config.trace ? "end to end (trace mode: every operation ran "
                                      "untraced and traced)"
                                    : "end to end",
               end_to_end);
  std::vector<Metric> measured_layers;
  std::copy_if(per_layer.begin(), per_layer.end(),
               std::back_inserter(measured_layers),
               [](const Metric& metric) { return metric.samples > 0; });
  PrintMetrics(stdout, "per layer (0 = not exercised by this workload)",
               measured_layers);
  if (config.trace) {
    PrintTraceTables(stdout, result.spans);
  }
  const std::vector<std::string> failures = result.outcomes.failures();
  for (size_t i = 0; i < failures.size() && i < 20; ++i) {
    std::printf("FAILED: %s\n", failures[i].c_str());
  }
  if (result.digest) {
    std::printf("outcome digest: %016llx\n",
                static_cast<unsigned long long>(*result.digest));
  }

  std::vector<Metric> reported;
  if (config.trace) {
    reported = per_layer;
  } else {
    for (const MetricName& name : kEndToEndMetrics) {
      const auto it = std::find_if(
          end_to_end.begin(), end_to_end.end(),
          [&](const Metric& metric) { return metric.json_name == name.name; });
      Metric metric = it != end_to_end.end() ? *it : Metric{};
      metric.json_name = name.name;
      metric.unit = name.unit;
      reported.push_back(metric);
    }
  }
  const bool correct = failures.empty();
  std::printf("%s\n", ResultJson(correct, attempted, failures.size(), reported).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Run(argc, argv); }
