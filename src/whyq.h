#ifndef WHYQ_WHYQ_H_
#define WHYQ_WHYQ_H_

/// Umbrella header for the whyq library: answering Why and Why-not
/// questions for subgraph queries in multi-attributed graphs (reproduction
/// of Song, Namaki, Wu — ICDE 2019; see DESIGN.md).
///
/// Typical usage:
///   whyq::Graph g = ...;                       // graph/ or gen/
///   whyq::Query q = ...;                       // query/ (or the DSL parser)
///   whyq::Matcher matcher(g);
///   std::vector<whyq::NodeId> ans = matcher.MatchOutput(q);
///   whyq::WhyQuestion why{{ans[0]}};           // "why is ans[0] returned?"
///   whyq::AnswerConfig cfg;
///   whyq::RewriteAnswer a = whyq::ApproxWhy(g, q, ans, why, cfg);
///   std::cout << a.Explain(g) << "\n";

#include "common/cancel.h"
#include "common/dictionary.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/timer.h"
#include "common/value.h"
#include "gen/bsbm.h"
#include "gen/profiles.h"
#include "gen/query_gen.h"
#include "gen/question_gen.h"
#include "graph/graph.h"
#include "graph/edge_list.h"
#include "graph/graph_io.h"
#include "graph/graph_stats.h"
#include "graph/literal_store.h"
#include "graph/neighborhood.h"
#include "graph/snapshot.h"
#include "harness/experiment.h"
#include "matcher/candidates.h"
#include "matcher/match_context.h"
#include "matcher/match_engine.h"
#include "matcher/matcher.h"
#include "matcher/simulation.h"
#include "matcher/path_index.h"
#include "query/query.h"
#include "query/query_dot.h"
#include "query/query_parser.h"
#include "rewrite/cost_model.h"
#include "service/prepared.h"
#include "service/request.h"
#include "service/service.h"
#include "service/stats.h"
#include "rewrite/evaluation.h"
#include "rewrite/explanation.h"
#include "rewrite/operators.h"
#include "why/est_match.h"
#include "why/extensions.h"
#include "why/mbs.h"
#include "why/picky.h"
#include "why/question.h"
#include "why/why_algorithms.h"
#include "why/whynot_algorithms.h"

#endif  // WHYQ_WHYQ_H_
