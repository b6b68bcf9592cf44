#ifndef WHYQ_REWRITE_EXPLANATION_H_
#define WHYQ_REWRITE_EXPLANATION_H_

#include <string>
#include <vector>

#include "graph/graph.h"
#include "query/query.h"
#include "rewrite/operators.h"

namespace whyq {

/// Human-readable explanations of query rewrites — the user-facing half of
/// answering a Why-question (Section I: "Observing the difference between
/// Q1 and Q, a possible explanation ... reveals that ...").
///
/// An explanation decomposes the operator set into per-change sentences
/// ("the Price bound on the Cellphone node was tightened from <= 650 to
/// > 120, which rules the S5 out") and classifies each change.

/// One explained change.
struct ExplainedChange {
  enum class Kind {
    kTightenedBound,   // RfL, or AddL pairing an existing bound
    kAddedCondition,   // AddL on a previously unconstrained attribute
    kAddedStructure,   // AddE
    kLoosenedBound,    // RxL
    kDroppedCondition, // RmL
    kDroppedStructure, // RmE
  };
  Kind kind;
  QNodeId node = kInvalidQNode;  // primary query node of the change
  std::string sentence;          // full rendered sentence
};

const char* ExplainedChangeKindName(ExplainedChange::Kind k);

/// An explanation for a whole rewrite.
struct Explanation {
  std::vector<ExplainedChange> changes;

  /// Multi-line rendering, one sentence per change, bulleted.
  std::string ToString() const;

  bool empty() const { return changes.empty(); }
};

/// Builds the explanation for `ops` applied to `q` (names resolved in g).
/// `excluded` / `included` optionally name the question entities the
/// rewrite acted on, enriching the sentences ("... which excludes 2 of the
/// questioned entities").
Explanation ExplainRewrite(const Graph& g, const Query& q,
                           const OperatorSet& ops);

}  // namespace whyq

#endif  // WHYQ_REWRITE_EXPLANATION_H_
