#include "perfbench/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string_view LayerOf(std::string_view name) {
  return name.substr(0, name.find('.'));
}

int32_t TraceBuffer::Begin(std::string_view name, uint32_t request,
                           std::string_view layer) {
  Span span;
  span.name = name;
  span.layer = layer.empty() ? LayerOf(name) : layer;
  if (!open_.empty()) {
    span.parent = open_.back();
    span.request = spans_[static_cast<size_t>(span.parent)].request;
  } else {
    span.request = request;
  }
  const auto index = static_cast<int32_t>(spans_.size());
  open_.push_back(index);
  span.start_ns = NowNs();
  spans_.push_back(span);
  return index;
}

void TraceBuffer::End(int32_t index, uint64_t work) {
  Span& span = spans_[static_cast<size_t>(index)];
  span.end_ns = NowNs();
  span.work = work;
  open_.pop_back();  // ScopedSpan closes spans in LIFO order
}

void TraceBuffer::AddTimer(std::string_view name, int64_t total_ns,
                           uint64_t count) {
  Span span;
  span.name = name;
  span.layer = LayerOf(name);
  span.timer = true;
  span.end_ns = total_ns;
  span.work = count;
  if (!open_.empty()) {
    span.parent = open_.back();
    span.request = spans_[static_cast<size_t>(span.parent)].request;
  }
  spans_.push_back(span);
}

ScopedSpan::ScopedSpan(TraceBuffer* buffer, std::string_view name,
                       uint32_t request, std::string_view layer)
    : buffer_(buffer != nullptr && buffer->enabled() ? buffer : nullptr) {
  if (buffer_ != nullptr) {
    index_ = buffer_->Begin(name, request, layer);
  }
}

ScopedSpan::~ScopedSpan() {
  if (buffer_ != nullptr) {
    buffer_->End(index_, work_);
  }
}

void AccumulatedTimer::Commit(TraceBuffer* buffer, std::string_view name) const {
  if (active_ && buffer != nullptr) {
    buffer->AddTimer(name, total_ns_, count_);
  }
}

void AppendSpans(std::vector<Span>* all, const std::vector<Span>& part) {
  const auto base = static_cast<int32_t>(all->size());
  for (Span span : part) {
    if (span.parent >= 0) {
      span.parent += base;
    }
    all->push_back(span);
  }
}

std::vector<int64_t> SelfTimes(std::span<const Span> spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  std::vector<int64_t> timer_ns(spans.size(), 0);
  for (const Span& span : spans) {
    if (span.parent < 0) {
      continue;
    }
    const auto parent = static_cast<size_t>(span.parent);
    if (span.timer) {
      timer_ns[parent] += span.duration_ns();
    } else {
      children[parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (span.timer) {
      self[i] = span.duration_ns();
      continue;
    }
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t cursor = span.start_ns;  // end of the union so far
    for (auto [begin, end] : intervals) {
      begin = std::max(begin, cursor);
      end = std::min(end, span.end_ns);
      if (end > begin) {
        covered += end - begin;
        cursor = end;
      }
    }
    self[i] = std::max<int64_t>(0, span.duration_ns() - covered - timer_ns[i]);
  }
  return self;
}

std::map<std::string, CallStats, std::less<>> StatsByName(
    std::span<const Span> spans) {
  const std::vector<int64_t> self = SelfTimes(spans);
  std::map<std::string, CallStats, std::less<>> stats;
  for (size_t i = 0; i < spans.size(); ++i) {
    CallStats& call = stats[std::string(spans[i].name)];
    ++call.count;
    call.total_ns += spans[i].duration_ns();
    call.self_ns += self[i];
    call.work += spans[i].work;
    call.durations_ns.push_back(static_cast<double>(spans[i].duration_ns()));
  }
  return stats;
}

int64_t TracedWallNs(std::span<const Span> spans) {
  int64_t wall = 0;
  for (const Span& span : spans) {
    if (span.parent < 0 && !span.timer) {
      wall += span.duration_ns();
    }
  }
  return wall;
}

std::vector<LayerShare> LayerShares(std::span<const Span> spans) {
  const std::vector<int64_t> self = SelfTimes(spans);
  std::map<std::string, int64_t, std::less<>> by_layer;
  for (size_t i = 0; i < spans.size(); ++i) {
    by_layer[std::string(spans[i].layer)] += self[i];
  }
  const auto wall = static_cast<double>(TracedWallNs(spans));
  std::vector<LayerShare> shares;
  for (const auto& [layer, ns] : by_layer) {
    shares.push_back(
        LayerShare{layer, ns, wall > 0 ? static_cast<double>(ns) / wall : 0.0});
  }
  std::sort(shares.begin(), shares.end(),
            [](const LayerShare& a, const LayerShare& b) {
              return a.self_ns > b.self_ns;
            });
  return shares;
}

double Coverage(std::span<const Span> spans) {
  double covered = 0.0;
  for (const LayerShare& share : LayerShares(spans)) {
    if (share.layer != kRequestLayer) {
      covered += share.share;
    }
  }
  return covered;
}

bool WriteSpans(const std::string& path, std::span<const Span> spans) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  for (const Span& span : spans) {
    std::fprintf(file,
                 "{\"name\":\"%.*s\",\"layer\":\"%.*s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d,\"request\":%u,\"work\":%llu,"
                 "\"timer\":%s}\n",
                 static_cast<int>(span.name.size()), span.name.data(),
                 static_cast<int>(span.layer.size()), span.layer.data(),
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns), span.parent,
                 span.request, static_cast<unsigned long long>(span.work),
                 span.timer ? "true" : "false");
  }
  return std::fclose(file) == 0;
}

}  // namespace perfbench
