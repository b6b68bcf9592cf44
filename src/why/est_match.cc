#include "why/est_match.h"


namespace whyq {

CloseEstimate EstimateWhy(PathIndex::Probe& probe,
                          const NodeSet& excluded_union,
                          const std::vector<NodeId>& unexpected,
                          const std::vector<NodeId>& desired,
                          size_t guard_m) {
  CloseEstimate e;
  size_t excluded = 0;
  for (NodeId v : unexpected) {
    if (excluded_union.Contains(v) || !probe.Passes(v)) {
      ++excluded;
    }
  }
  if (!unexpected.empty()) {
    e.closeness =
        static_cast<double>(excluded) / static_cast<double>(unexpected.size());
  }
  for (NodeId v : desired) {
    if (excluded_union.Contains(v)) {
      ++e.guard;
      if (e.guard > guard_m) {
        e.guard_ok = false;
        break;
      }
    }
  }
  return e;
}

GuardWindow::GuardWindow(const PathIndex& idx, MatchContext& ctx,
                         const Query& base, const NodeSet& protected_set,
                         size_t scan_cap)
    : idx_(idx),
      ctx_(ctx),
      base_query_(std::make_unique<Query>(base)),
      base_(std::make_unique<PathIndex::Probe>(idx, ctx, *base_query_)) {
  SymbolId out_label = base.node(base.output()).label;
  for (NodeId v : ctx.graph().NodesWithLabel(out_label)) {
    if (window_.size() == scan_cap) break;
    if (!protected_set.Contains(v)) window_.push_back(v);
  }
  failed_.reserve(window_.size());
  for (NodeId v : window_) failed_.push_back(base_->FailedChecks(v));
}

void GuardWindow::Rebase(const Query& next) {
  auto next_query = std::make_unique<Query>(next);
  auto next_probe =
      std::make_unique<PathIndex::Probe>(idx_, ctx_, *next_query);
  const CheckMask changed = next_probe->ChangedChecks(*base_);
  if (changed != 0) {
    for (size_t i = 0; i < window_.size(); ++i) {
      failed_[i] = (failed_[i] & ~changed) |
                   next_probe->FailedChecks(window_[i], changed);
    }
  }
  base_ = std::move(next_probe);
  base_query_ = std::move(next_query);
}

size_t GuardWindow::CountPassers(PathIndex::Probe& probe,
                                 size_t limit) const {
  const CheckMask changed = probe.ChangedChecks(*base_);
  size_t passers = 0;
  for (size_t i = 0; i < window_.size(); ++i) {
    // A check the node fails under the base and `probe` leaves unchanged
    // still fails.
    if ((failed_[i] & ~changed) != 0) continue;
    if (probe.Passes(window_[i], changed) && ++passers > limit) {
      return passers;
    }
  }
  return passers;
}

CloseEstimate EstimateWhyNot(PathIndex::Probe& probe,
                             const GuardWindow& window,
                             const NodeSet& included_union,
                             const std::vector<NodeId>& missing,
                             size_t guard_m) {
  CloseEstimate e;
  size_t included = 0;
  for (NodeId v : missing) {
    if (included_union.Contains(v) || probe.Passes(v)) {
      ++included;
    }
  }
  if (!missing.empty()) {
    e.closeness =
        static_cast<double>(included) / static_cast<double>(missing.size());
  }
  e.guard = window.CountPassers(probe, guard_m);
  e.guard_ok = e.guard <= guard_m;
  return e;
}

}  // namespace whyq
