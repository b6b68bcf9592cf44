// Answer checks. They run after the timed phase, against the benchmark's own
// copy of the graph, through the library's public evaluators and matcher.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "bench.h"

namespace perfbench {
namespace {

constexpr double kTolerance = 1e-9;
// The checks run after measurement, on all four cores of the host the
// benchmark is sized for.
constexpr size_t kCheckThreads = 4;

/// Runs `job(i)` for every i in [0, n) on kCheckThreads threads.
template <typename Job>
void ParallelFor(size_t n, const Job& job) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (size_t t = 0; t < kCheckThreads; ++t) {
    pool.emplace_back([&] {
      for (size_t i = next++; i < n; i = next++) job(i);
    });
  }
  for (std::thread& t : pool) t.join();
}

void Fail(Outcome* o, const Op& op, const std::string& why,
          std::vector<std::string>* errors) {
  o->ok = false;
  o->error = "answer check: " + why;
  errors->push_back(Fmt("op %zu (%s): ", o->op, OpKindName(op.kind)) + why);
}

}  // namespace

std::vector<NodeId> AnswerSet(const whyq::Graph& g, const whyq::Query& q,
                              whyq::MatchSemantics semantics) {
  std::vector<NodeId> answers =
      semantics == whyq::MatchSemantics::kSimulation
          ? whyq::SimulationAnswers(g, q)
          : whyq::Matcher(g).MatchOutput(q);
  std::sort(answers.begin(), answers.end());
  return answers;
}

ParsedQueries ParseQueries(const whyq::Graph& g, const Inputs& in,
                           whyq::MatchSemantics semantics) {
  ParsedQueries p;
  for (const std::string& text : in.queries) {
    std::string error;
    std::optional<whyq::Query> q = whyq::ParseQuery(text, g, &error);
    p.queries.push_back(q.has_value() ? std::move(*q) : whyq::Query());
    p.answers.push_back(q.has_value()
                            ? AnswerSet(g, p.queries.back(), semantics)
                            : std::vector<NodeId>());
  }
  return p;
}

size_t CheckQuestionAnswers(const whyq::Graph& g, const Inputs& in,
                            const whyq::AnswerConfig& cfg,
                            const ParsedQueries& parsed,
                            std::vector<Outcome>* outcomes,
                            std::vector<std::string>* errors) {
  size_t failed = 0;
  for (Outcome& o : *outcomes) {
    const Op& op = in.ops[o.op];
    if (!o.ok || !IsQuestion(op)) continue;
    std::string why;
    const std::vector<NodeId>& base = parsed.answers[op.query];
    if (o.base_answers != base.size()) {
      why = Fmt("base answers %zu, matcher says %zu", o.base_answers,
                base.size());
    } else if (o.found) {
      std::string error;
      std::optional<whyq::Query> rewritten =
          whyq::ParseQuery(o.rewritten, g, &error);
      if (!rewritten.has_value()) {
        why = "rewritten query does not parse: " + error;
      } else {
        whyq::Timer timer;
        whyq::EvalResult eval;
        if (op.kind == Op::kWhy) {
          whyq::WhyEvaluator ev(g, base, whyq::WhyQuestion{op.entities},
                                cfg.guard_m, cfg.semantics);
          eval = ev.Evaluate(*rewritten);
        } else {
          whyq::WhyNotQuestion w;
          w.missing = op.entities;
          whyq::WhyNotEvaluator ev(g, base, w, cfg.guard_m, cfg.semantics);
          eval = ev.Evaluate(*rewritten);
        }
        o.evaluate_ms = timer.ElapsedMillis();
        if (o.cost > cfg.budget + kTolerance) {
          why = Fmt("cost %.6g exceeds budget %.6g", o.cost, cfg.budget);
        } else if (!eval.guard_ok || eval.guard > cfg.guard_m) {
          why = Fmt("guard %zu exceeds m=%zu", eval.guard, cfg.guard_m);
        } else if (std::fabs(eval.closeness - o.closeness) > kTolerance) {
          why = Fmt("reported closeness %.9g, recomputed %.9g", o.closeness,
                    eval.closeness);
        }
      }
    }
    if (!why.empty()) {
      Fail(&o, op, why, errors);
      ++failed;
    }
  }
  return failed;
}

size_t CheckExactDominance(const whyq::Graph& g, const Inputs& in,
                           const whyq::AnswerConfig& cfg,
                           const ParsedQueries& parsed,
                           std::vector<Outcome>* outcomes,
                           std::vector<std::string>* errors) {
  std::vector<double> greedy(outcomes->size(), 0.0);
  whyq::AnswerConfig c = cfg;
  c.threads = 1;
  ParallelFor(outcomes->size(), [&](size_t i) {
    const Outcome& o = (*outcomes)[i];
    const Op& op = in.ops[o.op];
    if (!o.ok || !IsQuestion(op)) return;
    const whyq::Query& q = parsed.queries[op.query];
    const std::vector<NodeId>& answers = parsed.answers[op.query];
    whyq::RewriteAnswer a;
    if (op.kind == Op::kWhy) {
      a = whyq::ApproxWhy(g, q, answers, whyq::WhyQuestion{op.entities}, c);
    } else {
      whyq::WhyNotQuestion w;
      w.missing = op.entities;
      a = whyq::FastWhyNot(g, q, answers, w, c);
    }
    greedy[i] = a.found ? a.eval.closeness : 0.0;
  });

  size_t failed = 0;
  for (size_t i = 0; i < outcomes->size(); ++i) {
    Outcome& o = (*outcomes)[i];
    const Op& op = in.ops[o.op];
    if (!o.ok || !IsQuestion(op)) continue;
    double exact = o.found ? o.closeness : 0.0;
    if (exact + kTolerance < greedy[i]) {
      Fail(&o, op,
           Fmt("exact closeness %.6g < greedy %.6g", exact, greedy[i]),
           errors);
      ++failed;
    }
  }
  return failed;
}

size_t CheckChurn(const whyq::Graph& g0, const Inputs& in,
                  const ParsedQueries& parsed, std::vector<Outcome>* outcomes,
                  std::vector<std::string>* errors) {
  // counts[q] is query q's answer count on the replica's current epoch.
  std::vector<size_t> counts;
  for (const auto& a : parsed.answers) counts.push_back(a.size());
  // Epoch 0 is borrowed; later epochs are owned by `current`.
  const whyq::Graph* g = &g0;
  std::unique_ptr<whyq::Graph> current;
  uint64_t epoch = 0;
  bool replica_ok = true;
  size_t failed = 0;
  for (Outcome& o : *outcomes) {
    const Op& op = in.ops[o.op];
    if (op.kind == Op::kUpdate && replica_ok) {
      auto next = std::make_unique<whyq::Graph>();
      whyq::UpdateResult r;
      // A batch the replica cannot apply leaves it behind: every later
      // read then fails its check, the right verdict for such a batch.
      replica_ok = g->ApplyUpdate(in.batches[op.batch], next.get(), &r);
      if (replica_ok) {
        current = std::move(next);
        g = current.get();
        ++epoch;
        if (in.batch_intersects[op.batch]) {
          ParallelFor(counts.size(), [&](size_t q) {
            whyq::Matcher matcher(*g);
            counts[q] = matcher.MatchOutput(parsed.queries[q]).size();
          });
        }
      }
    }
    if (!o.ok) continue;
    std::string why;
    if (op.kind == Op::kUpdate) {
      if (o.generation != epoch) {
        why = Fmt("update published generation %llu, expected %llu",
                  (unsigned long long)o.generation,
                  (unsigned long long)epoch);
      }
    } else if (!replica_ok || o.base_answers != counts[op.query]) {
      why = Fmt("read of query %zu reported %zu answers; the replica has "
                "%zu at epoch %llu",
                op.query, o.base_answers, counts[op.query],
                (unsigned long long)epoch);
    }
    if (!why.empty()) {
      Fail(&o, op, why, errors);
      ++failed;
    }
  }
  return failed;
}

}  // namespace perfbench
