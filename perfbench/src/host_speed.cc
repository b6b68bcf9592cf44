// The host-speed reference: a fixed slice of work that uses none of whyq's
// code, run between a workload's operations so it sees the same host speed
// they do. See HostSpeed in bench.h and "Host-speed normalisation" in
// perfbench/NOTES.md.

#include <algorithm>
#include <numeric>
#include <random>
#include <unordered_map>

#include "bench.h"
#include "common/timer.h"

namespace perfbench {
namespace {

// A slice mixes what the engine's requests spend their time on: dependent
// loads over an L2-sized working set (adjacency walks), hash-map inserts
// and lookups with allocation (candidate memos, visited sets) and a branchy
// sort (answer sets). Over 300 s on the shared host, this mix tracked the
// engine's own speed best: the ratio of engine time to slice time over
// 30-s windows spread 0.04-0.06 where engine time alone spread 0.14-0.16.
// A 4 MB pointer chase tracked worse (0.07-0.09), and over 10-s windows a
// pure ALU loop barely helped (0.12-0.16 against 0.15-0.18 alone): the
// host's slow spells are memory-side contention more than clock speed.
constexpr uint32_t kChaseNodes = 1u << 16;  // 256 KB of uint32 links
constexpr size_t kChaseSteps = 150000;
constexpr size_t kMapKeys = 2000;
constexpr size_t kMapLookups = 40000;
constexpr size_t kSortKeys = 4000;
// LocalFactor's window: this many slices before and after an operation,
// about 2 s of the timed phase. Six interactive and four exact runs of one
// seed, rescored offline with windows of 3 to 30 slices, spread about as
// little with 10 as with any: the coefficient of variation of the phase's
// normalised wall time was 0.032 (interactive) and 0.010 (exact), against
// 0.043 and 0.014 with the whole phase's IQM and 0.084 and 0.057 as
// measured.
constexpr size_t kLocalSlices = 10;

}  // namespace

HostSpeed::HostSpeed() {
  std::mt19937_64 rng(0x5eed);
  // One random cycle through every node: each load depends on the last.
  std::vector<uint32_t> order(kChaseNodes);
  std::iota(order.begin(), order.end(), 0u);
  std::shuffle(order.begin(), order.end(), rng);
  next_.resize(kChaseNodes);
  for (uint32_t i = 0; i < kChaseNodes; ++i) {
    next_[order[i]] = order[(i + 1) % kChaseNodes];
  }
  keys_.resize(std::max(kMapLookups, kSortKeys));
  for (uint64_t& k : keys_) k = rng();
}

uint64_t HostSpeed::Work() {
  uint64_t sum = 0;
  uint32_t at = cursor_;
  for (size_t i = 0; i < kChaseSteps; ++i) at = next_[at];
  cursor_ = at;
  sum += at;

  std::unordered_map<uint64_t, uint32_t> map;
  for (size_t i = 0; i < kMapKeys; ++i) map[keys_[i]] = uint32_t(i);
  for (size_t i = 0; i < kMapLookups; ++i) {
    auto it = map.find(keys_[(i * 7) % kMapLookups]);
    if (it != map.end()) sum += it->second;
  }

  std::vector<uint64_t> sorted(keys_.begin(), keys_.begin() + kSortKeys);
  std::sort(sorted.begin(), sorted.end());
  sum += sorted[kSortKeys / 2];
  return sum;
}

void HostSpeed::Slice() {
  double cpu0 = ProcessCpuMs();
  whyq::Timer whole;
  // The first pass brings the slice's data back into the caches the
  // workload's operation just used, so the timed pass does not depend on
  // how much memory the program under test touches.
  checksum_ += Work();
  whyq::Timer timer;
  checksum_ += Work();
  slice_ms_.push_back(timer.ElapsedMillis());
  total_ms_ += whole.ElapsedMillis();
  cpu_ms_ += ProcessCpuMs() - cpu0;
}

void HostSpeed::SliceEvery(double period_ms) {
  if (since_.ElapsedMillis() < period_ms) return;
  Slice();
  since_.Reset();
}

double HostSpeed::LocalFactor(size_t next, size_t first,
                               size_t last) const {
  last = std::min(last, slice_ms_.size());
  size_t lo = std::max(first, next >= kLocalSlices ? next - kLocalSlices : 0);
  size_t hi = std::min(last, next + kLocalSlices);
  if (lo >= hi) return Factor(first);
  return kReferenceSliceMs /
         Median(std::vector<double>(slice_ms_.begin() + lo,
                                    slice_ms_.begin() + hi));
}

double HostSpeed::Factor(size_t first) const {
  if (first >= slice_ms_.size()) return 1.0;
  return kReferenceSliceMs /
         Iqm(std::vector<double>(slice_ms_.begin() + first, slice_ms_.end()));
}

}  // namespace perfbench
