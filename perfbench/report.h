// Metric catalogue, the human-readable report and the result line.
//
// End-to-end metrics keep the names a user of the library would look for
// (keys_per_s, trials_per_s, ...) in the report; the result line maps each
// onto the workload-independent name BENCHMARK.json lists, since every
// workload reports every end-to-end metric there. README.md has the map.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "perfbench/trace.h"

namespace perfbench {

struct Metric {
  std::string name;  // report name
  std::string unit;
  double value = 0.0;
  uint64_t samples = 0;
  double tail_pct = 0.0;  // highest percentile with >= 10 samples beyond it
  double tail = 0.0;
  std::string json_name;  // end-to-end name in the result line; "" = report only
};

struct MetricName {
  const char* name;
  const char* unit;
};

// BENCHMARK.json "end_to_end", in order.
inline constexpr MetricName kEndToEndMetrics[] = {
    {"setup_s", "s"},
    {"throughput_per_s", "1/s"},
    {"worker_rate_per_s", "1/s"},
    {"time_to_result_s", "s"},
    {"peak_rss_mb", "MB"},
};

// BENCHMARK.json "per_layer", in order. A workload that does not exercise a
// layer reports 0 for its metrics.
inline constexpr MetricName kPerLayerMetrics[] = {
    {"crypto.keygen_ns_per_key", "ns/key"},
    {"rc4.ksa_ns_per_key", "ns/key"},
    {"rc4.prga_ns_per_byte", "ns/byte"},
    {"engine.consume_ns_per_key", "ns/key"},
    {"engine.shard_setup_ms", "ms"},
    {"engine.shard_merge_ms", "ms"},
    {"engine.run_ns_per_key", "ns/key"},
    {"engine.glue_ns_per_key", "ns/key"},
    {"engine.scaling_efficiency", "ratio"},
    {"engine.shard_skew", "ratio"},
    {"store.shard_run_s", "s"},
    {"store.checkpoint_write_ms", "ms"},
    {"store.write_mb_per_s", "MB/s"},
    {"store.bytes_written_mb", "MB"},
    {"store.validate_mb_per_s", "MB/s"},
    {"store.merge_s", "s"},
    {"orchestrate.campaign_s", "s"},
    {"orchestrate.overhead_s", "s"},
    {"orchestrate.launches_per_shard", "ratio"},
    {"orchestrate.quarantined", "count"},
    {"tkip.model_ns_per_key", "ns/key"},
    {"sim.capture_ns_per_frame", "ns/frame"},
    {"sim.cookie_context_s", "s"},
    {"sim.cookie_sample_ms", "ms"},
    {"core.tkip_tables_ms", "ms"},
    {"core.independent_rank_ms", "ms"},
    {"core.markov_rank_ms", "ms"},
    {"core.lazy_enum_ns_per_candidate", "ns/candidate"},
    {"core.alg2_ns_per_candidate", "ns/candidate"},
    {"recovery.traverse_ns_per_candidate", "ns/candidate"},
    {"recovery.verify_ns_per_candidate", "ns/candidate"},
    {"recovery.truth_rank", "count"},
    {"recovery.found_fraction", "ratio"},
    {"trace.coverage", "ratio"},
    {"trace.overhead", "ratio"},
};

// What every result is recorded with, so a dispatch change shows next to
// its numbers.
struct Environment {
  std::string kernel;  // resolved "<name>@<width>"
  std::string cpu_features;
  unsigned nproc = 0;
  std::string host;
  std::string revision;
  std::string build_type;
};

void PrintEnvironment(std::FILE* out, const std::string& workload,
                      uint64_t seed, const Environment& env);

// One line per metric: name, value, unit, sample count and tail.
void PrintMetrics(std::FILE* out, const char* title,
                  const std::vector<Metric>& metrics);

// A traced run's self-time shares: per layer, then the calls with the most
// self time.
void PrintTraceTables(std::FILE* out, std::span<const Span> spans);

// The final stdout line: {"correct", "attempted", "failed", "metrics"}, with
// metrics keyed by their result-line names.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
