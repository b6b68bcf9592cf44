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

CloseEstimate EstimateWhyNot(PathIndex::Probe& probe,
                             const NodeSet& included_union,
                             const std::vector<NodeId>& missing,
                             const NodeSet& protected_set, size_t guard_m,
                             size_t guard_scan_cap) {
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
  size_t scanned = 0;
  const Query& rewritten = probe.query();
  SymbolId out_label = rewritten.node(rewritten.output()).label;
  for (NodeId v : probe.graph().NodesWithLabel(out_label)) {
    if (protected_set.Contains(v)) continue;
    if (++scanned > guard_scan_cap) break;
    if (probe.Passes(v)) {
      ++e.guard;
      if (e.guard > guard_m) {
        e.guard_ok = false;
        break;
      }
    }
  }
  return e;
}

}  // namespace whyq
