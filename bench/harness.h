// Shared helpers for the experiment benchmarks (one binary per paper
// table/figure; see DESIGN.md's experiment index and EXPERIMENTS.md for
// recorded results). These harnesses print self-describing tables to stdout;
// scale knobs default to laptop-friendly values and every binary accepts
// --keys / --sims style flags to approach paper-scale fidelity.
#ifndef BENCH_HARNESS_H_
#define BENCH_HARNESS_H_

#include <cmath>
#include <cstdio>
#include <string>

namespace rc4b::bench {

inline void PrintHeader(const std::string& experiment, const std::string& paper_ref,
                        const std::string& note) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("paper reference : %s\n", paper_ref.c_str());
  if (!note.empty()) {
    std::printf("%s\n", note.c_str());
  }
  std::printf("==============================================================\n");
}

// Significance annotation for a measured vs. expected deviation.
inline const char* Stars(double z) {
  const double az = std::fabs(z);
  if (az >= 5.0) {
    return "*****";
  }
  if (az >= 4.0) {
    return "****";
  }
  if (az >= 3.0) {
    return "***";
  }
  if (az >= 2.0) {
    return "**";
  }
  if (az >= 1.0) {
    return "*";
  }
  return "";
}

}  // namespace rc4b::bench

#endif  // BENCH_HARNESS_H_
