// In-memory span tracing for the benchmark's traced runs.
//
// A span records one call into a library module from the benchmark's own
// code: its name ("<layer>.<call>"), start and end on the steady clock, the
// span that was open around it, and the request (trial, shard, job) it
// served. Spans stay in per-thread buffers while the run is timed and are
// analysed and written out when it ends. A layer's self time is its spans'
// durations minus the parts their child spans cover.
//
// A null or disabled buffer makes every operation a no-op that reads no
// clock, so the untraced run executes the same code without the cost.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// Nanoseconds on the steady clock.
int64_t NowNs();

struct Span {
  std::string_view name;   // "<layer>.<call>"; must outlive the buffer
  std::string_view layer;  // layer charged with the span's self time
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;   // index in the same span list; -1 for a root
  uint32_t request = 0;  // trial, shard or job the span served
  uint64_t work = 0;     // items the call processed (keys, frames, ...)
  // An accumulated timer: many short disjoint intervals inside the parent,
  // summed into end_ns - start_ns. It never overlaps a sibling span.
  bool timer = false;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

// The layer a span name belongs to: everything before the first '.'.
std::string_view LayerOf(std::string_view name);

// Root spans name the request they time; their self time is the part of
// the request no layer call covers (the benchmark's own code).
inline constexpr std::string_view kRequestLayer = "request";

class TraceBuffer {
 public:
  explicit TraceBuffer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // Opens a span nested in the innermost open one; a root span takes
  // `request`, a nested span inherits its parent's. `layer` overrides the
  // layer charged with the self time (default: LayerOf(name)).
  int32_t Begin(std::string_view name, uint32_t request,
                std::string_view layer = {});
  void End(int32_t index, uint64_t work);

  // Records an accumulated timer as a child of the innermost open span.
  void AddTimer(std::string_view name, int64_t total_ns, uint64_t count);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

// RAII span; inactive when `buffer` is null or disabled.
class ScopedSpan {
 public:
  ScopedSpan(TraceBuffer* buffer, std::string_view name, uint32_t request = 0,
             std::string_view layer = {});
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_work(uint64_t work) { work_ = work; }

 private:
  TraceBuffer* buffer_;
  int32_t index_ = -1;
  uint64_t work_ = 0;
};

// Sums many short intervals (one per predicate call, say) into one timer
// span, so a per-candidate cost is measured without a span per candidate.
class AccumulatedTimer {
 public:
  explicit AccumulatedTimer(const TraceBuffer* buffer)
      : active_(buffer != nullptr && buffer->enabled()) {}

  void Start() {
    if (active_) started_ = NowNs();
  }
  void Stop() {
    if (active_) {
      total_ns_ += NowNs() - started_;
      ++count_;
    }
  }
  // Adds the timer under the innermost open span of `buffer`.
  void Commit(TraceBuffer* buffer, std::string_view name) const;

 private:
  bool active_;
  int64_t started_ = 0;
  int64_t total_ns_ = 0;
  uint64_t count_ = 0;
};

// Appends `part` (one thread's spans) to `all`, rebasing parent indices.
void AppendSpans(std::vector<Span>* all, const std::vector<Span>& part);

// Per span: duration minus the union of its child spans' intervals (clipped
// to the span) minus its timers' totals, never below zero.
std::vector<int64_t> SelfTimes(std::span<const Span> spans);

struct CallStats {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
  uint64_t work = 0;
  std::vector<double> durations_ns;
};

// Aggregates spans by name.
std::map<std::string, CallStats, std::less<>> StatsByName(
    std::span<const Span> spans);

struct LayerShare {
  std::string layer;
  int64_t self_ns = 0;
  double share = 0.0;  // of the traced wall time
};

// The traced wall time: the summed durations of root spans.
int64_t TracedWallNs(std::span<const Span> spans);

// Self time per layer as a share of the traced wall time, largest first.
// The "request" row is the time no layer call covers.
std::vector<LayerShare> LayerShares(std::span<const Span> spans);

// Summed layer self time over traced wall time: 1.0 when layer calls
// account for every traced nanosecond.
double Coverage(std::span<const Span> spans);

// One JSON object per line: name, layer, start, end, parent, request, work.
bool WriteSpans(const std::string& path, std::span<const Span> spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
