#include "service/prepared.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/cancel.h"
#include "common/timer.h"
#include "matcher/match_context.h"
#include "query/query_parser.h"

namespace whyq {

SymbolFootprint FootprintOfQuery(const Query& q) {
  std::set<SymbolId> node_labels;
  std::set<SymbolId> attrs;
  std::set<SymbolId> edge_labels;
  for (QNodeId u = 0; u < q.node_count(); ++u) {
    const QueryNode& n = q.node(u);
    if (n.label != kInvalidSymbol) node_labels.insert(n.label);
    for (const Literal& l : n.literals) {
      if (l.attr != kInvalidSymbol) attrs.insert(l.attr);
    }
  }
  for (const QueryEdge& e : q.edges()) {
    if (e.label != kInvalidSymbol) edge_labels.insert(e.label);
  }
  SymbolFootprint fp;
  fp.node_labels.assign(node_labels.begin(), node_labels.end());
  fp.edge_labels.assign(edge_labels.begin(), edge_labels.end());
  fp.attrs.assign(attrs.begin(), attrs.end());
  return fp;
}

std::string GraphEpochPrefix(const Graph& g) {
  return "g=" + std::to_string(g.identity()) + "@" +
         std::to_string(g.generation()) + "|";
}

std::string PreparedQueryKeyBody(MatchSemantics semantics, size_t max_paths,
                                 const std::string& canonical_text) {
  return std::string(MatchSemanticsName(semantics)) +
         "|paths=" + std::to_string(max_paths) + "\n" + canonical_text;
}

std::string PreparedQueryKey(const Query& q, const Graph& g,
                             MatchSemantics semantics, size_t max_paths) {
  return GraphEpochPrefix(g) +
         PreparedQueryKeyBody(semantics, max_paths, WriteQuery(q, g));
}

std::shared_ptr<const PreparedQuery> PrepareQuery(const Graph& g, Query q,
                                                  MatchSemantics semantics,
                                                  size_t max_paths,
                                                  const CancelToken* cancel,
                                                  bool* complete,
                                                  size_t /*threads*/,
                                                  RequestTrace* trace) {
  Timer stage;
  // The PreparedQuery constructor samples the PathIndex.
  auto prepared =
      std::make_shared<PreparedQuery>(std::move(q), semantics, max_paths);
  if (trace != nullptr) {
    trace->path_index_ms = stage.ElapsedMillis();
    stage.Reset();
  }
  // Request-scoped candidate memo: the output candidates are its set of the
  // output node, built from the epoch's literal bitmaps, so the answer
  // match reads that set back instead of rescanning the label bucket, and
  // every other query node's set is memoized across the isomorphism
  // matcher's root loop. Lives only for this build (the prepared artifacts
  // it feeds are immutable and cacheable; the context is not).
  MatchContext ctx(g);
  prepared->output_candidate_count =
      ctx.Lookup(prepared->query.node(prepared->query.output())).size();
  if (trace != nullptr) {
    trace->candidates_ms = stage.ElapsedMillis();
    trace->matcher_candidates = prepared->output_candidate_count;
    stage.Reset();
  }
  std::unique_ptr<MatchEngine> engine = MakeMatchEngine(ctx, semantics);
  engine->SetCancelToken(cancel);
  prepared->answers = engine->MatchOutput(prepared->query);
  if (trace != nullptr) {
    trace->answer_match_ms = stage.ElapsedMillis();
    trace->AddCtx(ctx.stats());
  }
  // A build whose answer match was clipped would poison every later hit;
  // the caller keeps it request-local instead of caching it.
  if (complete != nullptr) *complete = !CancelRequested(cancel);
  return prepared;
}

std::shared_ptr<const PreparedQuery> PreparedQueryCache::Get(
    const std::string& key) {
  MutexLock lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  return it->second->value;
}

void PreparedQueryCache::EvictOverCapacityLocked() {
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
  }
}

void PreparedQueryCache::Put(const std::string& key,
                             std::shared_ptr<const PreparedQuery> value) {
  if (capacity_ == 0) return;
  MutexLock lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->value = std::move(value);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{key, std::move(value)});
  index_[key] = lru_.begin();
  EvictOverCapacityLocked();
}

size_t PreparedQueryCache::size() const {
  MutexLock lock(mu_);
  return lru_.size();
}

PreparedQueryCache::DeltaOutcome PreparedQueryCache::ApplyDelta(
    const std::string& old_prefix, const std::string& new_prefix,
    const UpdateDelta& delta) {
  DeltaOutcome outcome;
  MutexLock lock(mu_);
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->key.compare(0, old_prefix.size(), old_prefix) != 0) {
      ++it;  // a different graph (or epoch) — not ours to touch
      continue;
    }
    std::string body = it->key.substr(old_prefix.size());
    if (it->value->footprint.Intersects(delta)) {
      index_.erase(it->key);
      it = lru_.erase(it);
      ++outcome.invalidated;
      outcome.dropped_bodies.push_back(std::move(body));
    } else {
      std::string new_key = new_prefix + body;
      index_.erase(it->key);
      if (index_.count(new_key) != 0) {
        // An entry already lives under the new epoch's key. Keep it (and
        // its recency): inserting a second list node for the same key would
        // orphan one of the two, and evicting the orphan later would erase
        // the survivor's index record.
        it = lru_.erase(it);
      } else {
        // In-place rekey: the list node is untouched, so the carried entry
        // keeps its exact LRU recency (see the DeltaOutcome contract).
        it->key = new_key;
        index_[std::move(new_key)] = it;
        ++it;
      }
      ++outcome.rekeyed;
      outcome.rekeyed_bodies.push_back(std::move(body));
    }
  }
  return outcome;
}

}  // namespace whyq
