#include "perfbench/workloads.h"

#include "perfbench/stats.h"

namespace perfbench {

void WorkloadResult::SetLayer(const std::string& name, double value,
                              uint64_t samples) {
  Metric& metric = per_layer[name];
  metric.name = name;
  metric.json_name = name;
  metric.value = value;
  metric.samples = samples;
}

Metric SampledMetric(const std::string& name, const std::string& unit,
                     const std::vector<double>& samples,
                     const std::string& json_name) {
  const Summary summary = Summarize(samples);
  Metric metric;
  metric.name = name;
  metric.unit = unit;
  metric.value = summary.median;
  metric.samples = summary.count;
  metric.tail_pct = summary.tail_pct;
  metric.tail = summary.tail;
  metric.json_name = json_name;
  return metric;
}

void CheckStatus(const rc4b::IoStatus& status, const std::string& what,
                 OutcomeLog* log) {
  if (!status.ok()) {
    log->Fail(what + ": " + status.message());
  }
}

uint64_t Calls(const CallMap& stats, std::string_view name) {
  const auto it = stats.find(name);
  return it == stats.end() ? 0 : it->second.count;
}

double NsPerWork(const CallMap& stats, std::string_view name) {
  const auto it = stats.find(name);
  return it == stats.end() || it->second.work == 0
             ? 0.0
             : static_cast<double>(it->second.self_ns) /
                   static_cast<double>(it->second.work);
}

double MedianMs(const CallMap& stats, std::string_view name) {
  const auto it = stats.find(name);
  return it == stats.end() ? 0.0 : Median(it->second.durations_ns) * 1e-6;
}

double MbPerS(const CallMap& stats, std::string_view name) {
  const auto it = stats.find(name);
  return it == stats.end() || it->second.total_ns == 0
             ? 0.0
             : static_cast<double>(it->second.work) / kMiB /
                   Seconds(it->second.total_ns);
}

void PairedTiming::Add(int64_t untraced_ns, int64_t traced_ns) {
  std::lock_guard<std::mutex> lock(mutex_);
  untraced_ns_ += untraced_ns;
  traced_ns_ += traced_ns;
  ++pairs_;
}

void PairedTiming::SetOverhead(WorkloadResult* result) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const double overhead =
      untraced_ns_ > 0 ? static_cast<double>(traced_ns_) /
                                 static_cast<double>(untraced_ns_) -
                             1.0
                       : 0.0;
  result->SetLayer("trace.overhead", overhead, pairs_);
}

}  // namespace perfbench
