#include "src/orchestrate/clock.h"

#include <chrono>

namespace rc4b::orchestrate {

uint64_t NowMs() {
  // The single real-clock read: lease heartbeats must be comparable across
  // process (eventually host) boundaries, which steady_clock is not.
  const auto now = std::chrono::system_clock::now();  // lint:allow(wall-clock)
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(now.time_since_epoch())
          .count());
}

}  // namespace rc4b::orchestrate
