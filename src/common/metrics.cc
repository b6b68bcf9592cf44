#include "common/metrics.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/table.h"

namespace whyq {

namespace {

constexpr double kMinValue = 0.0009765625;  // 2^-10
constexpr double kMaxValue = 4194304.0;     // 2^22

}  // namespace

size_t StreamingHistogram::BucketIndex(double value) {
  if (!(value > kMinValue)) return 0;  // also catches NaN and negatives
  if (value >= kMaxValue) return kBucketCount - 1;
  int exp = 0;
  double mantissa = std::frexp(value, &exp);  // value = m * 2^exp, m in [0.5,1)
  // value in [2^(exp-1), 2^exp): octave exp-1, sub-bucket by mantissa.
  size_t octave = static_cast<size_t>((exp - 1) - kMinExp);
  size_t sub = static_cast<size_t>((mantissa - 0.5) * 2.0 *
                                   static_cast<double>(kSubBuckets));
  if (sub >= kSubBuckets) sub = kSubBuckets - 1;  // rounding guard
  return std::min(octave * kSubBuckets + sub, kBucketCount - 1);
}

double StreamingHistogram::BucketLowerBound(size_t i) {
  size_t octave = i / kSubBuckets;
  size_t sub = i % kSubBuckets;
  double base = std::ldexp(1.0, kMinExp + static_cast<int>(octave));
  return base * (1.0 + static_cast<double>(sub) /
                           static_cast<double>(kSubBuckets));
}

void StreamingHistogram::Record(double value) {
  ++buckets_[BucketIndex(value)];
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
}

double StreamingHistogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest rank: 1-based rank ceil(q * n), at least 1.
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  rank = std::clamp<uint64_t>(rank, 1, count_);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kBucketCount; ++i) {
    cumulative += buckets_[i];
    if (cumulative >= rank) {
      double mid = std::sqrt(BucketLowerBound(i) * BucketUpperBound(i));
      return std::clamp(mid, min_, max_);
    }
  }
  return max_;
}

std::string RequestTrace::ToString() const {
  std::ostringstream os;
  os << "stages: queue=" << TextTable::Num(queue_ms, 2)
     << "ms parse=" << TextTable::Num(parse_ms, 2)
     << "ms prepare=" << TextTable::Num(prepare_ms, 2) << "ms";
  if (candidates_ms > 0 || answer_match_ms > 0 || path_index_ms > 0) {
    os << " (candidates=" << TextTable::Num(candidates_ms, 2)
       << "ms match=" << TextTable::Num(answer_match_ms, 2)
       << "ms path-index=" << TextTable::Num(path_index_ms, 2) << "ms)";
  }
  os << " search=" << TextTable::Num(search_ms, 2) << "ms\n";
  os << "work: candidates=" << matcher_candidates
     << " mbs-enumerated=" << mbs_enumerated
     << " mbs-verified=" << mbs_verified
     << " guard-checks=" << guard_checks
     << " greedy-rounds=" << greedy_rounds << "\n";
  os << "ctx: hits=" << ctx_hits << " misses=" << ctx_misses
     << " delta-builds=" << ctx_delta_builds << " pruned=" << ctx_pruned
     << " literal-scans=" << ctx_literal_scans
     << " literal-hits=" << ctx_literal_hits << "\n";
  return os.str();
}

}  // namespace whyq
