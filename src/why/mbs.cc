#include "why/mbs.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "common/check.h"

namespace whyq {

namespace {

constexpr double kEps = 1e-9;

struct Enumerator {
  using VisitBatch =
      std::function<bool(const std::vector<std::vector<size_t>>&)>;

  Enumerator(const std::vector<double>& cost_in,
             const std::vector<std::vector<size_t>>& conflicts_in,
             double budget_in, size_t max_sets_in, size_t batch_size_in,
             const VisitBatch& visit_batch_in, const AdmitFn& admit_in,
             const std::function<bool()>& should_stop_in)
      : cost(cost_in),
        conflicts(conflicts_in),
        order(cost_in.size()),
        budget(budget_in),
        max_sets(std::max<size_t>(max_sets_in, 1)),
        max_visits(max_sets * 64),
        batch_size(std::max<size_t>(batch_size_in, 1)),
        visit_batch(visit_batch_in),
        admit(admit_in),
        should_stop(should_stop_in),
        conflict_count(cost_in.size(), 0),
        in_set(cost_in.size(), false) {
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) { return cost[a] < cost[b]; });
    current.reserve(cost.size());
  }

  const std::vector<double>& cost;  // original indexing
  const std::vector<std::vector<size_t>>& conflicts;
  std::vector<size_t> order;  // ranks -> original indices (ascending cost)
  double budget;
  size_t max_sets;
  size_t max_visits;
  size_t batch_size;
  const VisitBatch& visit_batch;
  const AdmitFn& admit;
  const std::function<bool()>& should_stop;

  size_t poll_counter = 0;
  std::vector<size_t> current;          // original indices
  std::vector<size_t> conflict_count;   // per original index
  // `current` as a bitset over the original indices (the picky set can
  // exceed 64 operators); it doubles as the admit memo's key.
  std::vector<bool> in_set;
  std::unordered_map<std::vector<bool>, bool> admitted;  // set -> verdict
  std::vector<std::vector<size_t>> batch;  // emitted, not yet visited
  double current_cost = 0.0;
  size_t visits = 0;
  MbsStats stats;
  bool stop = false;

  void Include(size_t idx) {
    current.push_back(idx);
    in_set[idx] = true;
    current_cost += cost[idx];
    for (size_t j : conflicts[idx]) ++conflict_count[j];
  }

  void Exclude(size_t idx) {
    current.pop_back();
    in_set[idx] = false;
    current_cost -= cost[idx];
    for (size_t j : conflicts[idx]) --conflict_count[j];
  }

  // admit(current, j), asked once per distinct set current ∪ {j}.
  bool Admissible(size_t j) {
    if (!admit) return true;
    in_set[j] = true;
    auto it = admitted.find(in_set);
    if (it == admitted.end()) {
      it = admitted.emplace(in_set, admit(current, j)).first;
    }
    in_set[j] = false;
    return it->second;
  }

  bool Maximal() {
    for (size_t j = 0; j < cost.size(); ++j) {
      if (in_set[j] || conflict_count[j] > 0) continue;
      if (current_cost + cost[j] > budget + kEps) continue;
      if (!Admissible(j)) continue;  // inadmissible extension
      return false;
    }
    return true;
  }

  // Buffers one MBS; a full batch goes to the visitor.
  void Emit() {
    ++stats.emitted;
    batch.push_back(current);
    if (batch.size() >= batch_size) Flush();
    if (!stop && stats.emitted >= max_sets) {
      stats.truncated = true;
      stop = true;
    }
  }

  void Flush() {
    if (batch.empty()) return;
    if (!visit_batch(batch)) stop = true;
    batch.clear();
  }

  void Recurse(size_t rank) {
    if (stop) return;
    if (should_stop && (++poll_counter & 63u) == 0 && should_stop()) {
      stats.truncated = true;
      stop = true;
      return;
    }
    if (rank == cost.size()) {
      if (++visits > max_visits) {
        stats.truncated = true;
        stop = true;
        return;
      }
      if (Maximal()) Emit();
      return;
    }
    size_t idx = order[rank];
    bool includable = conflict_count[idx] == 0 &&
                      current_cost + cost[idx] <= budget + kEps &&
                      Admissible(idx);
    if (includable) {
      Include(idx);
      Recurse(rank + 1);
      Exclude(idx);
      if (stop) return;
    }
    Recurse(rank + 1);
  }
};

}  // namespace

MbsStats EnumerateMaximalBoundedSetsBatched(
    const std::vector<double>& costs,
    const std::vector<std::vector<size_t>>& conflicts, double budget,
    size_t max_sets, size_t batch_size,
    const std::function<bool(const std::vector<std::vector<size_t>>& batch)>&
        visit_batch,
    const AdmitFn& admit, const std::function<bool()>& should_stop) {
  WHYQ_CHECK(conflicts.size() == costs.size());
  Enumerator e(costs, conflicts, budget, max_sets, batch_size, visit_batch,
               admit, should_stop);
  if (costs.empty()) {
    // The empty set is trivially the only MBS.
    e.stats.emitted = 1;
    e.batch.emplace_back();
  } else {
    e.Recurse(0);
  }
  // The tail window (enumeration exhausted or a cap fired mid-batch). A
  // visitor that asked to stop left the buffer empty.
  e.Flush();
  return e.stats;
}

}  // namespace whyq
