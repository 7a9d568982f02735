#include "src/stats/counters.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <type_traits>

namespace rc4b {

namespace {

// Adds `from` into `out` cell by cell, zeroing `from` unless it is const,
// and checks in the same pass that every row of `row_cells` cells in `from`
// sums to `row_sum` (see WorkerTile::FlushInto).
template <typename Count>
void AddRowsChecked(std::span<Count> from, std::span<uint64_t> out,
                    size_t row_cells, uint64_t row_sum, const char* owner) {
  assert(from.size() == out.size() && from.size() % row_cells == 0);
  for (size_t base = 0; base < from.size(); base += row_cells) {
    uint64_t sum = 0;
    for (size_t i = base; i < base + row_cells; ++i) {
      sum += from[i];
      out[i] += from[i];
      if constexpr (!std::is_const_v<Count>) {
        from[i] = 0;
      }
    }
    if (sum != row_sum) {
      std::fprintf(stderr,
                   "%s: counter row %zu sums to %llu, expected %llu "
                   "(a counter wrapped)\n",
                   owner, base / row_cells, static_cast<unsigned long long>(sum),
                   static_cast<unsigned long long>(row_sum));
      std::abort();
    }
  }
}

}  // namespace

void DigraphGrid::MergeCounts32(std::span<const uint32_t> local, uint64_t samples,
                                const char* owner) {
  AddRowsChecked(local, std::span<uint64_t>(counts_), 65536, samples, owner);
  keys_ += samples;
}

double DigraphGrid::MarginalFirst(size_t pos, uint8_t v) const {
  uint64_t sum = 0;
  const auto row = Row(pos);
  const size_t base = static_cast<size_t>(v) * 256;
  for (size_t y = 0; y < 256; ++y) {
    sum += row[base + y];
  }
  return static_cast<double>(sum) / static_cast<double>(keys_);
}

double DigraphGrid::MarginalSecond(size_t pos, uint8_t v) const {
  uint64_t sum = 0;
  const auto row = Row(pos);
  for (size_t x = 0; x < 256; ++x) {
    sum += row[x * 256 + v];
  }
  return static_cast<double>(sum) / static_cast<double>(keys_);
}

void WorkerTile::FlushInto(std::span<uint64_t> out, size_t row_cells,
                           uint64_t keys, const char* owner) {
  AddRowsChecked(std::span<uint16_t>(counts_), out, row_cells, keys, owner);
}

}  // namespace rc4b
