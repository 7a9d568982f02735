// The benchmark's four workloads (README.md). Each is a closed-loop batch
// job: one operation at a time, the next starting when the previous ends,
// until the run's time is spent.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/checks.h"
#include "perfbench/report.h"
#include "perfbench/trace.h"
#include "src/common/io.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  unsigned nproc = 1;
  std::string work_dir;  // scratch files, removed when the run ends
};

struct WorkloadResult {
  OutcomeLog outcomes;
  std::vector<Metric> end_to_end;  // setup_s and peak_rss_mb are added by main
  std::map<std::string, Metric> per_layer;
  std::vector<Span> spans;  // traced runs: every thread's spans
  // Digest of the run's first operations, checked for the default seed.
  std::optional<uint64_t> digest;

  void SetLayer(const std::string& name, double value, uint64_t samples);
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds what every timed operation shares. Called several times; the
  // median call is the run's setup_s, and the last call's state is used.
  virtual void Setup(TraceBuffer* trace) = 0;
  // Runs operations until the configured time is spent.
  virtual void Run(WorkloadResult* result) = 0;
};

std::unique_ptr<Workload> MakeSinglebyteGrid(const RunConfig& config);
std::unique_ptr<Workload> MakeDigraphCampaign(const RunConfig& config);
std::unique_ptr<Workload> MakeTkipAttack(const RunConfig& config);
std::unique_ptr<Workload> MakeCookieAttack(const RunConfig& config);

// Median + tail of `samples` as one metric.
Metric SampledMetric(const std::string& name, const std::string& unit,
                     const std::vector<double>& samples,
                     const std::string& json_name = "");

// Request id of spans recorded during Setup().
inline constexpr uint32_t kSetupRequest = 0xffffffff;

// Wall time of the same operations run untraced and traced: trace mode runs
// every operation both ways, alternating which goes first, and reports
// trace.overhead = traced ÷ untraced − 1.
class PairedTiming {
 public:
  void Add(int64_t untraced_ns, int64_t traced_ns);
  void SetOverhead(WorkloadResult* result) const;

 private:
  mutable std::mutex mutex_;
  int64_t untraced_ns_ = 0;
  int64_t traced_ns_ = 0;
  uint64_t pairs_ = 0;
};

// Runs operation(trace) untraced and traced (odd indices traced first) and
// returns the untraced twin's result.
template <typename Fn>
auto RunPaired(uint64_t index, TraceBuffer* trace, PairedTiming* paired,
               Fn&& operation) {
  const bool traced_first = index % 2 == 1;
  int64_t start = NowNs();
  auto first = operation(traced_first ? trace : nullptr);
  const int64_t first_ns = NowNs() - start;
  start = NowNs();
  auto second = operation(traced_first ? nullptr : trace);
  const int64_t second_ns = NowNs() - start;
  paired->Add(traced_first ? second_ns : first_ns,
              traced_first ? first_ns : second_ns);
  return traced_first ? second : first;
}

inline constexpr double kMiB = 1024.0 * 1024.0;

inline double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

void CheckStatus(const rc4b::IoStatus& status, const std::string& what,
                 OutcomeLog* log);

// Lookups into StatsByName() for the per-layer metrics; each is 0 when the
// call never ran.
using CallMap = std::map<std::string, CallStats, std::less<>>;
uint64_t Calls(const CallMap& stats, std::string_view name);
double NsPerWork(const CallMap& stats, std::string_view name);  // self time
double MedianMs(const CallMap& stats, std::string_view name);
double MbPerS(const CallMap& stats, std::string_view name);  // work in bytes

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
