#ifndef WHYQ_SERVICE_REQUEST_H_
#define WHYQ_SERVICE_REQUEST_H_

#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "graph/graph.h"
#include "why/extensions.h"
#include "why/question.h"
#include "why/why_algorithms.h"

namespace whyq {

/// The four question kinds the explanation service answers (the library's
/// end-to-end surface: Sections III-V plus the Section V extensions).
enum class RequestKind {
  kWhy,        // (u_o, V_N): why are these entities answers?
  kWhyNot,     // (u_o, V_C, C): why are these entities missing?
  kWhyEmpty,   // no V_C: why is the answer empty?
  kWhySoMany,  // no V_N: shrink the answer to <= target_k entities
};

const char* RequestKindName(RequestKind k);

/// Algorithm family per kind: kAuto picks the paper's fast variant
/// (ApproxWhy / FastWhyNot); kExact the MBS enumeration; kIso the
/// isomorphism-verified greedy baseline. Why-empty/Why-so-many have one
/// implementation each and ignore the choice.
enum class AlgoChoice { kAuto, kExact, kIso };

const char* AlgoChoiceName(AlgoChoice a);

/// Parses an algorithm name: auto|exact|iso, plus approx and fast as the
/// names of kAuto's algorithms. Returns false (leaving `out` alone) on any
/// other name.
bool ParseAlgoChoice(const std::string& name, AlgoChoice* out);

/// One question submitted to the service. The query travels as DSL text
/// (query_parser.h) so requests are self-contained and cacheable by
/// canonical form; entities are graph node ids.
struct ServiceRequest {
  RequestKind kind = RequestKind::kWhy;
  std::string query_text;
  std::vector<NodeId> entities;  // Why: V_N; Why-not: V_C (others: unused)
  Constraint condition;          // Why-not selection condition C (optional)
  size_t target_k = 10;          // Why-so-many target
  AlgoChoice algo = AlgoChoice::kAuto;

  /// Per-request deadline in milliseconds, measured from *submission* (queue
  /// wait counts). 0 = no deadline. An expired request still produces a
  /// response — the best-so-far rewrite with `truncated` set.
  double deadline_ms = 0;

  /// Tuning knobs (budget, guard m, semantics, caps). The service overrides
  /// `cancel` and `path_index`; everything else is honored as-is. Note that
  /// `semantics` takes part in the prepared-artifact cache key.
  AnswerConfig config;
};

enum class ResponseStatus {
  kOk,         // executed (answer fields populated; possibly truncated)
  kRejected,   // bounded queue full — backpressure, retry later
  kBadRequest, // query text failed to parse / invalid parameters
  kShutdown,   // service stopped before the request ran
};

const char* ResponseStatusName(ResponseStatus s);

/// The service's reply. Exactly one of the answer fields is meaningful,
/// selected by the request kind.
struct ServiceResponse {
  ResponseStatus status = ResponseStatus::kOk;
  std::string error;       // for kBadRequest
  bool truncated = false;  // deadline/cancellation clipped the search
  bool cache_hit = false;  // prepared artifacts were reused
  double latency_ms = 0;   // submission -> completion (includes queue wait)

  /// Per-stage breakdown of latency_ms plus hot-loop work counters; filled
  /// for every executed request (bad requests keep the stages reached).
  RequestTrace trace;

  std::vector<NodeId> base_answers;  // Q(u_o, G) the question ran against

  /// The graph epoch the request ran against, pinned for the request's
  /// lifetime. Consumers rendering node ids / labels (the daemon's encode
  /// callback) must read THIS graph, not the service's current one — an
  /// update may have published a newer epoch since the request started.
  std::shared_ptr<const Graph> graph;

  RewriteAnswer answer;         // kWhy / kWhyNot
  WhyEmptyResult why_empty;     // kWhyEmpty
  WhySoManyResult why_so_many;  // kWhySoMany
};

}  // namespace whyq

#endif  // WHYQ_SERVICE_REQUEST_H_
