// Wall-clock time for lease heartbeats and retry scheduling. Heartbeat
// staleness is a wall-clock concept (hosts compare timestamps other hosts
// wrote), which the determinism lint otherwise bans — so the one read lives
// here, with a single lint:allow in clock.cc. The lease API takes `now_ms`
// as an argument, so tests drive lease expiry with literal times.
#ifndef SRC_ORCHESTRATE_CLOCK_H_
#define SRC_ORCHESTRATE_CLOCK_H_

#include <cstdint>

namespace rc4b::orchestrate {

// Milliseconds on an epoch shared by every process of the campaign.
uint64_t NowMs();

}  // namespace rc4b::orchestrate

#endif  // SRC_ORCHESTRATE_CLOCK_H_
