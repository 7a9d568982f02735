#include "perfbench/report.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {

void PrintEnvironment(std::FILE* out, const std::string& workload,
                      uint64_t seed, const Environment& env) {
  std::fprintf(out,
               "perfbench %s seed=%llu\n"
               "  kernel=%s cpu=%s nproc=%u host=%s revision=%s build=%s\n",
               workload.c_str(), static_cast<unsigned long long>(seed),
               env.kernel.c_str(), env.cpu_features.c_str(), env.nproc,
               env.host.c_str(), env.revision.c_str(), env.build_type.c_str());
}

void PrintMetrics(std::FILE* out, const char* title,
                  const std::vector<Metric>& metrics) {
  std::fprintf(out, "%s\n", title);
  for (const Metric& metric : metrics) {
    std::fprintf(out, "  %-36s %14.6g %-12s n=%llu", metric.name.c_str(),
                 metric.value, metric.unit.c_str(),
                 static_cast<unsigned long long>(metric.samples));
    if (metric.tail_pct > 0.0) {
      std::fprintf(out, "  p%g=%.6g", metric.tail_pct, metric.tail);
    }
    if (!metric.json_name.empty() && metric.json_name != metric.name) {
      std::fprintf(out, "  [%s]", metric.json_name.c_str());
    }
    std::fprintf(out, "\n");
  }
}

void PrintTraceTables(std::FILE* out, std::span<const Span> spans) {
  const double wall_ns = static_cast<double>(TracedWallNs(spans));
  std::fprintf(out, "layer self time (share of %.3f s traced wall time)\n",
               wall_ns * 1e-9);
  for (const LayerShare& share : LayerShares(spans)) {
    std::fprintf(out, "  %-12s %10.3f s %7.2f%%%s\n", share.layer.c_str(),
                 static_cast<double>(share.self_ns) * 1e-9, 100.0 * share.share,
                 share.layer == kRequestLayer ? "  (not inside a layer call)"
                                              : "");
  }
  const auto stats = StatsByName(spans);
  std::vector<std::pair<int64_t, std::string>> calls;
  for (const auto& [name, call] : stats) {
    calls.emplace_back(call.self_ns, name);
  }
  std::sort(calls.rbegin(), calls.rend());
  std::fprintf(out, "top calls by self time\n");
  for (size_t i = 0; i < calls.size() && i < 8; ++i) {
    const CallStats& call = stats.find(calls[i].second)->second;
    std::fprintf(out, "  %-44s %10.3f s %7.2f%%  calls=%llu\n",
                 calls[i].second.c_str(), static_cast<double>(call.self_ns) * 1e-9,
                 wall_ns > 0 ? 100.0 * static_cast<double>(call.self_ns) / wall_ns
                             : 0.0,
                 static_cast<unsigned long long>(call.count));
  }
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& metric : metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    json += first ? "" : ", ";
    json += "\"" + metric.json_name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  json += "}}";
  return json;
}

}  // namespace perfbench
