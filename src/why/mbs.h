#ifndef WHYQ_WHY_MBS_H_
#define WHYQ_WHY_MBS_H_

#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

namespace whyq {

/// The tolerance of every budget, closeness and gain comparison in the
/// searches of src/why.
constexpr double kEps = 1e-9;

/// Enumeration of *maximal bounded sets* (MBS) — phase two of GenMBS.
/// Given per-operator costs, pairwise conflicts, and a budget B, an index
/// set S is an MBS when it is conflict-free, cost(S) <= B, and no operator
/// outside S could be added while keeping both properties.
///
/// Lemma 3 / Lemma 7: the optimal rewrite is induced by some MBS over the
/// picky set, so verifying MBSs only is sufficient for exactness.
///
/// The visitor receives the MBSs (as index sets into `costs`); returning
/// false stops enumeration early (the paper's early termination once
/// closeness 1 is reached). Enumeration is additionally capped: after `max_sets`
/// emissions, or ~64x that many explored leaves, it stops and reports
/// `truncated` so callers can surface approximateness.
struct MbsStats {
  size_t emitted = 0;
  bool truncated = false;  // stopped by a cap, not the visitor/exhaustion
};

/// Optional admissibility predicate: admit(current, next) says whether
/// current ∪ {next} stays admissible, by returning none when it does not
/// and otherwise a count the enumerator keeps with the set and hands back
/// when it emits the set (ExactWhy/ExactWhyNot return the set's capped
/// guard count, so verifying an emitted set need not count it again). The
/// guard condition is *monotone* under pure refinement (and pure
/// relaxation) sets, so the family {conflict-free, cost <= B, guard <= m}
/// is downward closed and the optimum is attained at one of its maximal
/// elements; passing the guard as `admit` makes the enumeration exact under
/// guard constraints (plain budget-maximal sets can all violate a strict
/// guard while smaller valid sets exist).
///
/// `admit` must be a function of the *set* current ∪ {next}: the same set
/// can be reached with its members in different orders (an extension test
/// at a leaf names an operator ranked before members already in the set),
/// and the enumerator asks each distinct set at most once per call,
/// answering repeats from its own memo.
using AdmitFn = std::function<std::optional<size_t>(
    const std::vector<size_t>& current, size_t next)>;

/// A group of emitted MBSs, and aligned with it what `admit` returned for
/// each (none for a set no admit was asked about: every set when there is
/// no `admit`, and the empty set).
using VisitBatchFn =
    std::function<bool(const std::vector<std::vector<size_t>>& batch,
                       const std::vector<std::optional<size_t>>& admitted)>;

/// Enumerates the MBSs, handing them to `visit_batch` in groups of at most
/// `batch_size` (the final group may be smaller) — the intra-question
/// parallelism of ExactWhy/ExactWhyNot. A batch is a contiguous window
/// over the serial emission stream, so a caller that evaluates a batch in
/// parallel and then *reduces it in index order* observes the same visit
/// sequence as a serial caller with batch_size == 1 — which is how the
/// parallel exact algorithms stay bit-identical to their serial reference.
/// Returning false from `visit_batch` stops enumeration.
///
/// `should_stop` (optional) is polled inside the DFS (every few dozen
/// nodes); returning true aborts enumeration with `truncated` set — the
/// hook wall-clock limits sit behind, since admissibility checks can be
/// expensive long before any set is emitted.
///
/// Complexity: worst-case exponential in |costs| (the DFS explores the
/// subset lattice), bounded in practice by the budget, the conflict graph,
/// `admit` pruning, and the max_sets/64x-leaf caps. Per emitted set the
/// work is O(|costs|) for the maximality check; `admit` runs at most once
/// per distinct set it is asked about.
///
/// Thread-safety: the enumeration itself is single-threaded and re-entrant
/// (no shared state between calls); `visit_batch`/`admit`/`should_stop`
/// are invoked on the caller's thread only. Parallel *verification* of
/// emitted sets is the caller's job.
MbsStats EnumerateMaximalBoundedSetsBatched(
    const std::vector<double>& costs,
    const std::vector<std::vector<size_t>>& conflicts, double budget,
    size_t max_sets, size_t batch_size, const VisitBatchFn& visit_batch,
    const AdmitFn& admit = nullptr,
    const std::function<bool()>& should_stop = nullptr);

}  // namespace whyq

#endif  // WHYQ_WHY_MBS_H_
