// Minimal fork-join thread pool used by dataset generation and the benchmark
// harnesses. The paper distributed keystream-statistics generation over ~80
// machines; our substitute parallelizes the same worker/merge structure over
// local cores (see README.md, "The keystream-statistics engine").
#ifndef SRC_COMMON_THREAD_POOL_H_
#define SRC_COMMON_THREAD_POOL_H_

#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

namespace rc4b {

// Runs fn(worker_index) on `workers` threads and joins them all.
// `workers == 0` selects the hardware concurrency.
void ParallelFor(unsigned workers, const std::function<void(unsigned)>& fn);

// Splits [0, total) into contiguous chunks, one per worker, and invokes
// fn(worker_index, begin, end). Used to shard keys/simulations across cores.
void ParallelChunks(uint64_t total, unsigned workers,
                    const std::function<void(unsigned, uint64_t, uint64_t)>& fn);

// Number of workers ParallelFor(0, ...) would use.
unsigned DefaultWorkerCount();

}  // namespace rc4b

#endif  // SRC_COMMON_THREAD_POOL_H_
