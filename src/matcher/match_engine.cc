#include "matcher/match_engine.h"

#include <algorithm>

#include "matcher/matcher.h"
#include "matcher/simulation.h"
#include "query/query_parser.h"

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

// Dual-simulation semantics. The maximum simulation is a whole-query
// fixpoint, so single-node probes recompute it; a one-entry cache keyed by
// the query's serialized form absorbs the evaluators' per-rewrite probing
// patterns (many IsAnswer calls against the same rewrite), and TestAnswers
// consults it once per batch. The borrowed MatchContext seeds each
// fixpoint with memoized candidate sets, cut down to the base query's
// relation once AssumeRefinementsOf has installed it.
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
    // Unbounded is always sound; an expired token skips the fixpoint.
    if (CancelRequested(cancel_)) return;
    bound_ = RefinementBound(ctx_, base);
  }

 private:
  const std::vector<NodeId>& AnswersFor(const Query& q) const {
    std::string key = WriteQuery(q, ctx_.graph());
    if (key != cached_key_) {
      // Simulation is a polynomial whole-query fixpoint; cancellation is
      // honored at this coarse granularity (skip fresh computations once
      // expired, returning the empty answer, which the evaluators discard
      // as cut short).
      if (CancelRequested(cancel_)) {
        static const std::vector<NodeId> kEmpty;
        return kEmpty;
      }
      cached_answers_ = SimulationAnswers(ctx_, q, bound_);  // ascending
      cached_key_ = std::move(key);
    }
    return cached_answers_;
  }

  MatchContext& ctx_;
  const CancelToken* cancel_ = nullptr;
  SimulationBound bound_;  // empty: no base query assumed
  mutable std::string cached_key_;
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
