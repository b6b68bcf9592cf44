#include "matcher/match_engine.h"

#include <algorithm>
#include <optional>

#include "matcher/matcher.h"
#include "matcher/simulation.h"

namespace whyq {

namespace {

class IsoMatchEngine : public MatchEngine {
 public:
  explicit IsoMatchEngine(MatchContext& ctx) : matcher_(ctx) {}

  void SetCancelToken(const CancelToken* t) override {
    matcher_.set_cancel_token(t);
  }
  std::vector<NodeId> MatchOutput(const Query& q) const override {
    return matcher_.MatchOutput(q);
  }
  bool IsAnswer(const Query& q, NodeId v) const override {
    return matcher_.IsAnswer(q, v);
  }
  bool HasAnyMatch(const Query& q) const override {
    return matcher_.HasAnyMatch(q);
  }
  size_t CountAnswersNotIn(const Query& q, const NodeSet& exclude,
                           size_t limit) const override {
    return matcher_.CountAnswersNotIn(q, exclude, limit);
  }
  std::vector<uint8_t> TestAnswers(
      const Query& q, const std::vector<NodeId>& nodes) const override {
    return matcher_.TestAnswers(q, nodes);
  }
  void AssumeRefinementsOf(const Query&) override {}

 private:
  Matcher matcher_;
};

// Whether a and b are the same query to the simulation: node for node the
// same label and literals (Literal::operator==, as the candidate memo
// compares them), the same edges and the same output. Equal constraints
// select equal candidate sets, so equal queries have equal answers.
bool SameQuery(const Query& a, const Query& b) {
  if (a.output() != b.output() || a.node_count() != b.node_count() ||
      a.edges() != b.edges()) {
    return false;
  }
  for (QNodeId u = 0; u < a.node_count(); ++u) {
    if (a.node(u).label != b.node(u).label ||
        a.node(u).literals != b.node(u).literals) {
      return false;
    }
  }
  return true;
}

// Dual-simulation semantics. The maximum simulation is a whole-query
// fixpoint, so single-node probes recompute it. Once AssumeRefinementsOf
// has installed a base, each refinement is answered as a counted delta of
// the base's relation. Every other query runs the cold fixpoint over the
// borrowed MatchContext, behind a one-entry cache keyed by the last such
// query, which absorbs the evaluators' per-rewrite probing patterns (many
// IsAnswer calls against the same rewrite); TestAnswers consults the
// answers once per batch.
class SimMatchEngine : public MatchEngine {
 public:
  explicit SimMatchEngine(MatchContext& ctx) : ctx_(ctx) {}

  void SetCancelToken(const CancelToken* t) override { cancel_ = t; }
  std::vector<NodeId> MatchOutput(const Query& q) const override {
    return AnswersFor(q);
  }
  bool IsAnswer(const Query& q, NodeId v) const override {
    const std::vector<NodeId>& answers = AnswersFor(q);
    return std::binary_search(answers.begin(), answers.end(), v);
  }
  bool HasAnyMatch(const Query& q) const override {
    return !AnswersFor(q).empty();
  }
  size_t CountAnswersNotIn(const Query& q, const NodeSet& exclude,
                           size_t limit) const override {
    size_t count = 0;
    for (NodeId v : AnswersFor(q)) {
      if (exclude.Contains(v)) continue;
      if (++count > limit) return count;
    }
    return count;
  }
  std::vector<uint8_t> TestAnswers(
      const Query& q, const std::vector<NodeId>& nodes) const override {
    const std::vector<NodeId>& answers = AnswersFor(q);
    std::vector<uint8_t> out(nodes.size(), 0);
    for (size_t i = 0; i < nodes.size(); ++i) {
      bool hit = std::binary_search(answers.begin(), answers.end(), nodes[i]);
      out[i] = hit ? 1 : 0;
    }
    return out;
  }
  void AssumeRefinementsOf(const Query& base) override {
    // Running cold is always sound; an expired token installs no base.
    if (CancelRequested(cancel_)) return;
    refinements_.emplace(ctx_, base);
  }

 private:
  const std::vector<NodeId>& AnswersFor(const Query& q) const {
    if (cached_query_.has_value() && SameQuery(*cached_query_, q)) {
      return cached_answers_;
    }
    // Cancellation is honored at the granularity of one call: once the
    // token expired, a fresh computation is skipped and the answer is
    // empty, which the evaluators discard as cut short.
    if (CancelRequested(cancel_)) {
      static const std::vector<NodeId> kEmpty;
      return kEmpty;
    }
    // A delta is cheaper than copying its query into the cache key.
    if (refinements_.has_value()) {
      if (std::optional<std::vector<NodeId>> delta = refinements_->Answers(q)) {
        cached_query_.reset();
        cached_answers_ = std::move(*delta);
        return cached_answers_;
      }
    }
    cached_answers_ = SimulationAnswers(ctx_, q);
    cached_query_ = q;
    return cached_answers_;  // ascending
  }

  MatchContext& ctx_;
  const CancelToken* cancel_ = nullptr;
  mutable std::optional<RefinementSimulation> refinements_;  // the base
  mutable std::optional<Query> cached_query_;  // of a cold answer
  mutable std::vector<NodeId> cached_answers_;
};

}  // namespace

const char* MatchSemanticsName(MatchSemantics s) {
  switch (s) {
    case MatchSemantics::kIsomorphism:
      return "isomorphism";
    case MatchSemantics::kSimulation:
      return "simulation";
  }
  return "?";
}

std::unique_ptr<MatchEngine> MakeMatchEngine(MatchContext& ctx,
                                             MatchSemantics semantics) {
  switch (semantics) {
    case MatchSemantics::kIsomorphism:
      return std::make_unique<IsoMatchEngine>(ctx);
    case MatchSemantics::kSimulation:
      return std::make_unique<SimMatchEngine>(ctx);
  }
  return nullptr;
}

}  // namespace whyq
