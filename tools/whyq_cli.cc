// whyq command-line tool: generate graphs, inspect them, run subgraph
// queries from the textual DSL, and answer Why / Why-not / Why-empty /
// Why-so-many questions — the library's functionality end to end without
// writing C++.
//
// Usage:
//   whyq_cli generate --out=FILE [--profile=NAME|--bsbm=N] [--nodes=N]
//                     [--seed=S]
//   whyq_cli import EDGELIST --out=FILE [--attrs=K] [--seed=S]
//   whyq_cli dot GRAPH QUERYFILE
//   whyq_cli stats GRAPH
//   whyq_cli query GRAPH QUERYFILE [--limit=K]
//   whyq_cli why GRAPH QUERYFILE --entities=ID,ID,... [--algo=A] [common]
//   whyq_cli whynot GRAPH QUERYFILE --entities=ID,ID,... [--algo=A] [common]
//   whyq_cli whyempty GRAPH QUERYFILE [common]
//   whyq_cli whysomany GRAPH QUERYFILE --target=K [common]
//   whyq_cli serve-batch GRAPH QUESTIONSFILE [--workers=N] [--queue=N]
//                        [--cache=N] [--stats-json=FILE] [--slow-ms=D]
//                        [common]
//   whyq_cli serve GRAPH... [--port=P] [--max-conns=N] [--idle-ms=D]
//                  [--drain-ms=D] [--stats-json=FILE] [--stats-period-ms=D]
//                  [--workers=N] [--queue=N] [--cache=N] [--slow-ms=D]
//                  [common]
//   whyq_cli snapshot build GRAPH --out=FILE
//   whyq_cli snapshot info FILE
//   whyq_cli explain-plan PLANFILE [GRAPH]
//   whyq_cli update GRAPH BATCHFILE [--out=FILE]
//   whyq_cli figure1 --out=PREFIX
//   whyq_cli demo
//   whyq_cli --version
// Common flags: --budget=B --guard=M --semantics=iso|sim --threads=N
//               --deadline-ms=D --trace --snapshot --plan-store=DIR
// why/whynot/whyempty/whysomany ask their one question through
// WhyqService::Execute, the code serve-batch and serve answer with: the
// service validates the request (a bad one, such as an entity id past the
// graph, exits 1 with the service's error) and --deadline-ms clips the
// search; an answer cut short is followed by a `truncated` line.
// --snapshot makes every GRAPH positional (dot/stats/query/why/whynot/
// whyempty/whysomany/serve-batch/serve) load a frozen snapshot image
// (docs/SNAPSHOT_FORMAT.md) via mmap instead of parsing the text format —
// O(ms) cold start, one physical copy shared across server processes.
// snapshot build freezes a text graph into such an image; snapshot info
// prints an image's header and section table without loading the graph.
// --trace prints the per-request stage breakdown (queue/parse/prepare/
// search) and hot-loop work counters after each why/whynot/whyempty/
// whysomany answer, and after each result row under serve-batch.
// serve-batch --stats-json=FILE writes the full stats snapshot (counters,
// per-class latency histograms with p50/p95/p99, per-stage time totals,
// slow-query log) as JSON; --slow-ms=D retains traces of requests slower
// than D ms in the stats block and the JSON.
// --plan-store=DIR persists compiled query plans (docs/PLAN_FORMAT.md)
// across processes: the question subcommands and serve-batch probe DIR
// before preparing a query and persist completed builds, so a restarted
// process answers a repeated question from a validated store load instead
// of re-running the answer match. serve gives each graph its own store
// under DIR/<graph name> and warm-loads its prepared cache from it at boot.
// explain-plan pretty-prints one stored plan file — content address, graph
// stamp, answer/candidate/path counts, footprint, canonical query — and,
// given a GRAPH (honoring --snapshot), re-validates the plan against it,
// exiting 2 when the plan is not servable for that graph.
// update applies an update-batch file (format: graph/graph_io.h — AN/DN/
// AE/DE/SA/DA mnemonics, one op per line, docs/ARCHITECTURE.md "Mutable
// graphs & epochs") to a text-format graph, prints the applied delta and
// the new generation, and with --out=FILE writes the updated graph back.
// A --snapshot graph is frozen (its columns alias the read-only mapped
// image) and is rejected with a typed error, not a crash.
// figure1 writes the paper's Fig. 1 example as PREFIX.graph/PREFIX.query
// and prints the node ids the paper's questions use.
// Algorithms: exact | approx/fast | iso (default approx/fast).
// --threads=N (default 1) runs each question's MBS verification and greedy
// gain scans on up to N executors; answers are identical to --threads=1.
// Under serve-batch it is the per-request width on top of --workers.
//
// serve runs the long-lived whyq_server daemon: an epoll event loop on
// 127.0.0.1 (--port=0, the default, binds an ephemeral port and prints
// it) answering newline-delimited JSON questions over every listed graph
// (request field "graph" selects by file basename; the first graph is the
// default). A full worker queue rejects immediately with retry_after_ms
// (admission control); SIGTERM/SIGINT triggers a graceful drain bounded
// by --drain-ms. --stats-json=FILE makes the daemon dump the full stats
// document periodically (atomic rename; --stats-period-ms) and once more
// at exit. Hard limits live in src/server/limits.h.
//
// serve-batch reads one question per line and executes the batch on a
// WhyqService worker pool, printing one result row per question plus the
// service stats block. Line format (# starts a comment):
//   why       QUERYFILE ID[,ID...]
//   whynot    QUERYFILE ID[,ID...]
//   whyempty  QUERYFILE
//   whysomany QUERYFILE K
//
// Every subcommand exits nonzero on parse or I/O failure; `why`/`whynot`/
// `whyempty`/`whysomany` additionally exit 2 when no rewrite was found
// (a valid "no explanation within budget" outcome, not an error).

#include <signal.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/image.h"
#include "gen/figure1.h"
#include "graph/snapshot.h"
#include "server/server.h"
#include "service/plan.h"
#include "whyq.h"

namespace whyq::cli {
namespace {

// SIGTERM/SIGINT request a graceful stop: serve drains the event loop,
// serve-batch stops submitting new questions. The handler only sets this
// flag (the one async-signal-safe thing it may do); both commands poll it.
volatile std::sig_atomic_t g_stop = 0;

extern "C" void OnStopSignal(int) { g_stop = 1; }

void InstallStopHandlers() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = OnStopSignal;
  sigemptyset(&sa.sa_mask);
  // No SA_RESTART: the signal must interrupt epoll_wait/sleep so the
  // drain starts within one poll tick.
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
}

struct Options {
  std::string out;
  std::string profile;
  size_t bsbm = 0;
  size_t nodes = 0;
  uint64_t seed = 7;
  size_t limit = 20;
  double attrs = 0.0;
  size_t target = 10;
  std::vector<NodeId> entities;
  AlgoChoice algo = AlgoChoice::kAuto;
  double budget = 4.0;
  size_t guard = 2;
  MatchSemantics semantics = MatchSemantics::kIsomorphism;
  size_t workers = 4;
  size_t queue = 256;
  size_t cache = 64;
  double deadline_ms = 0;
  size_t threads = 1;
  std::string stats_json;
  std::string plan_store;  // persistent compiled-plan directory (empty = off)
  double slow_ms = 0;
  bool trace = false;
  bool snapshot = false;  // GRAPH positionals are snapshot images
  size_t port = 0;  // serve: 0 binds an ephemeral port
  size_t max_conns = whyq::server::kMaxConnections;
  double idle_ms = whyq::server::kIdleTimeoutMs;
  double drain_ms = whyq::server::kDrainDeadlineMs;
  double stats_period_ms = whyq::server::kStatsPeriodMs;
  std::vector<std::string> positional;
};

// Strict numeric parsing: the whole token must be consumed. Silent
// best-effort strtoul coercion turned typos like --bsbm=1e4 into 1 before;
// now every malformed flag fails the invocation with a nonzero exit.
bool ParseUint64(const char* v, uint64_t* out) {
  if (v == nullptr || *v == '\0') return false;
  char* end = nullptr;
  errno = 0;
  unsigned long long x = std::strtoull(v, &end, 10);
  if (errno != 0 || end == v || *end != '\0') return false;
  *out = static_cast<uint64_t>(x);
  return true;
}

bool ParseSize(const char* v, size_t* out) {
  uint64_t x = 0;
  if (!ParseUint64(v, &x)) return false;
  *out = static_cast<size_t>(x);
  return true;
}

bool ParseDouble(const char* v, double* out) {
  if (v == nullptr || *v == '\0') return false;
  char* end = nullptr;
  errno = 0;
  double x = std::strtod(v, &end);
  if (errno != 0 || end == v || *end != '\0') return false;
  *out = x;
  return true;
}

bool ParseEntityList(const std::string& v, std::vector<NodeId>* out,
                     std::string* error) {
  std::stringstream ss(v);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    uint64_t id = 0;
    if (!ParseUint64(tok.c_str(), &id) || id > UINT32_MAX) {
      *error = "bad entity id '" + tok + "'";
      return false;
    }
    out->push_back(static_cast<NodeId>(id));
  }
  if (out->empty()) {
    *error = "empty entity list";
    return false;
  }
  return true;
}

bool ParseArgs(int argc, char** argv, Options* o, std::string* error) {
  for (int i = 2; i < argc; ++i) {
    std::string a = argv[i];
    // "--flag=value": v is the value after the first '=', if any, and
    // value_of(flag) is v when `a` sets that flag, else null.
    size_t eq = a.find('=');
    const char* v = eq == std::string::npos ? nullptr : a.c_str() + eq + 1;
    auto value_of = [&](const char* flag) -> const char* {
      return v != nullptr && a.compare(0, eq, flag) == 0 ? v : nullptr;
    };
    bool ok = true;
    if (value_of("--out")) {
      o->out = v;
    } else if (value_of("--profile")) {
      o->profile = v;
    } else if (value_of("--bsbm")) {
      ok = ParseSize(v, &o->bsbm);
    } else if (value_of("--nodes")) {
      ok = ParseSize(v, &o->nodes);
    } else if (value_of("--seed")) {
      ok = ParseUint64(v, &o->seed);
    } else if (value_of("--attrs")) {
      ok = ParseDouble(v, &o->attrs);
    } else if (value_of("--limit")) {
      ok = ParseSize(v, &o->limit);
    } else if (value_of("--target")) {
      ok = ParseSize(v, &o->target);
    } else if (value_of("--budget")) {
      ok = ParseDouble(v, &o->budget);
    } else if (value_of("--guard")) {
      ok = ParseSize(v, &o->guard);
    } else if (value_of("--workers")) {
      ok = ParseSize(v, &o->workers) && o->workers > 0;
    } else if (value_of("--queue")) {
      ok = ParseSize(v, &o->queue) && o->queue > 0;
    } else if (value_of("--cache")) {
      ok = ParseSize(v, &o->cache);
    } else if (value_of("--deadline-ms")) {
      ok = ParseDouble(v, &o->deadline_ms);
    } else if (value_of("--threads")) {
      ok = ParseSize(v, &o->threads) && o->threads > 0;
    } else if (value_of("--algo")) {
      if (!ParseAlgoChoice(v, &o->algo)) {
        *error = "unknown algo (use exact|approx|fast|iso)";
        return false;
      }
    } else if (value_of("--semantics")) {
      if (std::string(v) == "sim") {
        o->semantics = MatchSemantics::kSimulation;
      } else if (std::string(v) == "iso") {
        o->semantics = MatchSemantics::kIsomorphism;
      } else {
        *error = "unknown semantics (use iso|sim)";
        return false;
      }
    } else if (value_of("--entities")) {
      if (!ParseEntityList(v, &o->entities, error)) return false;
    } else if (value_of("--stats-json")) {
      o->stats_json = v;
    } else if (value_of("--plan-store")) {
      o->plan_store = v;
    } else if (value_of("--slow-ms")) {
      ok = ParseDouble(v, &o->slow_ms);
    } else if (value_of("--port")) {
      ok = ParseSize(v, &o->port) && o->port <= UINT16_MAX;
    } else if (value_of("--max-conns")) {
      ok = ParseSize(v, &o->max_conns) && o->max_conns > 0;
    } else if (value_of("--idle-ms")) {
      ok = ParseDouble(v, &o->idle_ms);
    } else if (value_of("--drain-ms")) {
      ok = ParseDouble(v, &o->drain_ms) && o->drain_ms > 0;
    } else if (value_of("--stats-period-ms")) {
      ok = ParseDouble(v, &o->stats_period_ms) && o->stats_period_ms > 0;
    } else if (a == "--trace") {
      o->trace = true;
    } else if (a == "--snapshot") {
      o->snapshot = true;
    } else if (a.rfind("--", 0) == 0) {
      *error = "unknown flag " + a;
      return false;
    } else {
      o->positional.push_back(a);
    }
    if (!ok) {
      *error = "bad value in " + a;
      return false;
    }
  }
  return true;
}

int Fail(const std::string& msg) {
  std::fprintf(stderr, "whyq: %s\n", msg.c_str());
  return 1;
}

std::optional<Graph> LoadGraph(const std::string& path) {
  std::string err;
  std::optional<Graph> g = ReadGraphFromFile(path, &err);
  if (!g.has_value()) std::fprintf(stderr, "whyq: %s\n", err.c_str());
  return g;
}

// A graph loaded either from the text format (heap-built) or, with
// --snapshot, from a frozen snapshot image whose POD columns borrow the
// mmap'ed bytes. get() lends the graph to one-shot commands; share()
// hands ownership to long-lived services (for snapshots, an aliasing
// shared_ptr keeps the mapping alive as long as the graph is referenced).
struct LoadedGraph {
  std::optional<Graph> owned;
  std::shared_ptr<GraphSnapshot> snap;

  const Graph& get() const {
    return snap != nullptr ? snap->graph() : *owned;
  }
  std::shared_ptr<const Graph> share() {
    if (snap != nullptr) {
      return std::shared_ptr<const Graph>(snap, &snap->graph());
    }
    return std::make_shared<const Graph>(std::move(*owned));
  }
};

std::optional<LoadedGraph> LoadGraphAuto(const Options& o,
                                         const std::string& path) {
  LoadedGraph lg;
  if (o.snapshot) {
    std::string err;
    lg.snap = GraphSnapshot::Load(path, &err);
    if (lg.snap == nullptr) {
      std::fprintf(stderr, "whyq: %s\n", err.c_str());
      return std::nullopt;
    }
  } else {
    lg.owned = LoadGraph(path);
    if (!lg.owned.has_value()) return std::nullopt;
  }
  return lg;
}

// Reads a whole text file (a query), reporting a missing one on stderr.
std::optional<std::string> ReadTextFile(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    std::fprintf(stderr, "whyq: cannot open %s\n", path.c_str());
    return std::nullopt;
  }
  std::stringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

std::optional<Query> LoadQuery(const std::string& path, const Graph& g) {
  std::optional<std::string> text = ReadTextFile(path);
  if (!text.has_value()) return std::nullopt;
  std::string err;
  std::optional<Query> q = ParseQuery(*text, g, &err);
  if (!q.has_value()) std::fprintf(stderr, "whyq: %s\n", err.c_str());
  return q;
}

// The service tuning serve, serve-batch and the question subcommands
// share; --deadline-ms reaches every request as the default deadline.
// The plan store is left to the caller: serve opens one per graph under
// --plan-store, the others one at --plan-store itself.
ServiceConfig MakeServiceConfig(const Options& o) {
  ServiceConfig sc;
  sc.workers = o.workers;
  sc.queue_capacity = o.queue;
  sc.cache_capacity = o.cache;
  sc.default_deadline_ms = o.deadline_ms;
  sc.intra_threads = o.threads;
  sc.slow_query_ms = o.slow_ms;
  return sc;
}

// The request a question subcommand or a serve-batch line asks: `kind`
// over `query_text`, tuned by the shared flags. Entities and the
// Why-so-many target come from --entities and --target; a serve-batch
// line overrides them with its own.
ServiceRequest MakeRequest(const Options& o, RequestKind kind,
                           std::string query_text) {
  ServiceRequest req;
  req.kind = kind;
  req.query_text = std::move(query_text);
  req.entities = o.entities;
  req.target_k = o.target;
  req.algo = o.algo;
  req.config.budget = o.budget;
  req.config.guard_m = o.guard;
  req.config.semantics = o.semantics;
  req.config.exact_time_limit_ms = server::kExactTimeLimitMs;
  req.config.threads = o.threads;
  return req;
}

// The question kind a questions-file line names.
bool ParseRequestKind(const std::string& name, RequestKind* out) {
  for (RequestKind k : {RequestKind::kWhy, RequestKind::kWhyNot,
                        RequestKind::kWhyEmpty, RequestKind::kWhySoMany}) {
    if (name == RequestKindName(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

int CmdGenerate(const Options& o) {
  if (o.out.empty()) return Fail("generate needs --out=FILE");
  Graph g;
  if (o.bsbm > 0) {
    BsbmConfig bc;
    bc.products = o.bsbm;
    bc.seed = o.seed;
    g = GenerateBsbm(bc);
  } else if (!o.profile.empty()) {
    const DatasetProfile* match = nullptr;
    for (const DatasetProfile& p : kAllProfiles) {
      if (o.profile == DatasetProfileName(p)) match = &p;
    }
    if (match == nullptr) {
      return Fail("unknown profile (dbpedia|yago|freebase|pokec|imdb)");
    }
    g = GenerateProfile(*match, o.nodes, o.seed);
  } else {
    return Fail("generate needs --profile=NAME or --bsbm=N");
  }
  if (!WriteGraphToFile(g, o.out)) return Fail("cannot write " + o.out);
  std::printf("wrote %s: %s\n", o.out.c_str(),
              ComputeStats(g).ToString().c_str());
  return 0;
}

int CmdImport(const Options& o) {
  if (o.positional.empty()) return Fail("import needs an edge-list file");
  if (o.out.empty()) return Fail("import needs --out=FILE");
  std::string err;
  std::optional<Graph> bare =
      ReadEdgeListFromFile(o.positional[0], EdgeListOptions(), &err);
  if (!bare.has_value()) return Fail(err);
  Graph out = std::move(*bare);
  if (o.attrs > 0) {
    DecorationConfig dc;
    dc.avg_attrs = o.attrs;
    dc.seed = o.seed;
    out = DecorateGraph(out, dc);
  }
  if (!WriteGraphToFile(out, o.out)) return Fail("cannot write " + o.out);
  std::printf("imported %s: %s\n", o.out.c_str(),
              ComputeStats(out).ToString().c_str());
  return 0;
}

int CmdDot(const Options& o) {
  if (o.positional.size() < 2) return Fail("dot needs GRAPH QUERYFILE");
  std::optional<LoadedGraph> lg = LoadGraphAuto(o, o.positional[0]);
  if (!lg.has_value()) return 1;
  const Graph& g = lg->get();
  std::optional<Query> q = LoadQuery(o.positional[1], g);
  if (!q.has_value()) return 1;
  std::printf("%s", QueryToDot(*q, g).c_str());
  return 0;
}

int CmdStats(const Options& o) {
  if (o.positional.empty()) return Fail("stats needs a graph file");
  std::optional<LoadedGraph> lg = LoadGraphAuto(o, o.positional[0]);
  if (!lg.has_value()) return 1;
  std::printf("%s\n", ComputeStats(lg->get()).ToString().c_str());
  return 0;
}

int CmdQuery(const Options& o) {
  if (o.positional.size() < 2) return Fail("query needs GRAPH QUERYFILE");
  std::optional<LoadedGraph> lg = LoadGraphAuto(o, o.positional[0]);
  if (!lg.has_value()) return 1;
  const Graph& g = lg->get();
  std::optional<Query> q = LoadQuery(o.positional[1], g);
  if (!q.has_value()) return 1;
  MatchContext ctx(g);
  std::vector<NodeId> answers =
      MakeMatchEngine(ctx, o.semantics)->MatchOutput(*q);
  std::printf("%zu answers (%s semantics)\n", answers.size(),
              MatchSemanticsName(o.semantics));
  for (size_t i = 0; i < answers.size() && i < o.limit; ++i) {
    std::printf("  node %u", answers[i]);
    for (const AttrEntry& e : g.attrs(answers[i])) {
      std::printf(" %s=%s", g.AttrName(e.attr).c_str(),
                  e.value.ToString().c_str());
    }
    std::printf("\n");
  }
  if (answers.size() > o.limit) {
    std::printf("  ... (%zu more; raise --limit)\n",
                answers.size() - o.limit);
  }
  return 0;
}

// Prints one answered question and returns the question subcommands'
// exit code: 0, or 2 when no rewrite was found. `q` is the query as
// written, which the explanation describes the operators against.
int PrintQuestionAnswer(const Graph& g, const Query& q, RequestKind kind,
                        const ServiceResponse& r, double budget) {
  switch (kind) {
    case RequestKind::kWhy:
    case RequestKind::kWhyNot: {
      const RewriteAnswer& a = r.answer;
      std::printf("%s\n", a.Explain(g).c_str());
      if (!a.found) return 2;
      std::printf("explanation:\n%s",
                  ExplainRewrite(g, q, a.ops).ToString().c_str());
      std::printf("rewritten query:\n%s", WriteQuery(a.rewritten, g).c_str());
      return 0;
    }
    case RequestKind::kWhyEmpty: {
      const WhyEmptyResult& e = r.why_empty;
      if (!e.found) {
        std::printf("not repairable within budget %.1f\n", budget);
        return 2;
      }
      if (e.ops.empty()) {
        std::printf("the query already has answers\n");
      } else {
        std::printf("repaired at cost %.2f via { %s }\n", e.cost,
                    DescribeOperators(e.ops, g).c_str());
        std::printf("%s", ExplainRewrite(g, q, e.ops).ToString().c_str());
      }
      std::printf("%zu sample answers\n", e.sample_answers.size());
      return 0;
    }
    case RequestKind::kWhySoMany: {
      const WhySoManyResult& m = r.why_so_many;
      std::printf("%zu -> %zu answers via { %s }\n", m.before, m.after,
                  DescribeOperators(m.ops, g).c_str());
      std::printf("%s", ExplainRewrite(g, q, m.ops).ToString().c_str());
      return m.found ? 0 : 2;
    }
  }
  return 1;
}

// why / whynot / whyempty / whysomany: one question, answered by
// WhyqService::Execute on a service over the loaded graph — the code
// serve-batch and serve answer with. Execute runs inline, so one worker
// suffices; the prepared cache is off, so boot warm-loads no plans and a
// --plan-store run probes the store once. A request the service rejects
// (say, an entity id past the graph) exits 1 with its error.
int CmdQuestion(const Options& o, RequestKind kind) {
  if (o.positional.size() < 2) return Fail("needs GRAPH QUERYFILE");
  std::optional<LoadedGraph> lg = LoadGraphAuto(o, o.positional[0]);
  if (!lg.has_value()) return 1;
  std::optional<std::string> text = ReadTextFile(o.positional[1]);
  if (!text.has_value()) return 1;
  ServiceConfig sc = MakeServiceConfig(o);
  sc.workers = 1;
  sc.cache_capacity = 0;
  if (!o.plan_store.empty()) {
    sc.plan_store = std::make_shared<PlanStore>(o.plan_store);
  }
  WhyqService service(lg->share(), sc);
  ServiceResponse r = service.Execute(MakeRequest(o, kind, *text));
  if (r.status != ResponseStatus::kOk) return Fail(r.error);
  // The service parsed the same text against the same graph.
  std::optional<Query> q = ParseQuery(*text, *r.graph, nullptr);
  int rc = PrintQuestionAnswer(*r.graph, *q, kind, r, o.budget);
  if (r.truncated) std::printf("truncated\n");
  if (o.trace) std::printf("%s", r.trace.ToString().c_str());
  return rc;
}

// Reads the raw text of a query file, memoizing by path so a batch that
// asks many questions about the same query parses/prepares it once (the
// service caches prepared artifacts by canonical query text).
const std::string* QueryTextOf(const std::string& path,
                               std::map<std::string, std::string>* texts) {
  auto it = texts->find(path);
  if (it != texts->end()) return &it->second;
  std::optional<std::string> text = ReadTextFile(path);
  if (!text.has_value()) return nullptr;
  return &texts->emplace(path, std::move(*text)).first->second;
}

// Parses one questions-file line into a request; empty lines and `#`
// comments yield no request (ok=true, has=false).
bool ParseQuestionLine(const std::string& line, const Options& o,
                       std::map<std::string, std::string>* texts,
                       ServiceRequest* req, bool* has, std::string* error) {
  *has = false;
  std::stringstream ss(line);
  std::string kind_name;
  if (!(ss >> kind_name) || kind_name[0] == '#') return true;
  std::string queryfile;
  if (!(ss >> queryfile)) {
    *error = "missing query file";
    return false;
  }
  const std::string* text = QueryTextOf(queryfile, texts);
  if (text == nullptr) {
    *error = "cannot open " + queryfile;
    return false;
  }
  RequestKind kind = RequestKind::kWhy;
  if (!ParseRequestKind(kind_name, &kind)) {
    *error = "unknown question kind '" + kind_name + "'";
    return false;
  }
  *req = MakeRequest(o, kind, *text);
  std::string rest;
  ss >> rest;
  if (kind == RequestKind::kWhy || kind == RequestKind::kWhyNot) {
    if (rest.empty()) {
      *error = "missing entity list";
      return false;
    }
    req->entities.clear();
    if (!ParseEntityList(rest, &req->entities, error)) return false;
  } else if (kind == RequestKind::kWhySoMany && !rest.empty() &&
             !ParseSize(rest.c_str(), &req->target_k)) {
    *error = "bad target '" + rest + "'";
    return false;
  }
  *has = true;
  return true;
}

// serve-batch: run a file of questions through the concurrent service.
// One line per question; all questions share the graph, the worker pool,
// and the prepared-question cache. Prints one result row per question in
// input order, then the service stats table. Exit 0 only when every line
// parsed and every response came back kOk.
int CmdServeBatch(const Options& o) {
  if (o.positional.size() < 2) {
    return Fail("serve-batch needs GRAPH QUESTIONSFILE");
  }
  std::optional<LoadedGraph> lg = LoadGraphAuto(o, o.positional[0]);
  if (!lg.has_value()) return 1;
  std::ifstream qs(o.positional[1]);
  if (!qs) return Fail("cannot open " + o.positional[1]);

  InstallStopHandlers();
  ServiceConfig sc = MakeServiceConfig(o);
  if (!o.plan_store.empty()) {
    sc.plan_store = std::make_shared<PlanStore>(o.plan_store);
  }
  WhyqService service(lg->share(), sc);

  std::map<std::string, std::string> texts;
  std::vector<std::future<ServiceResponse>> futures;
  std::vector<std::string> labels;
  std::string line;
  size_t lineno = 0;
  int rc = 0;
  while (std::getline(qs, line)) {
    ++lineno;
    ServiceRequest req;
    bool has = false;
    std::string err;
    if (!ParseQuestionLine(line, o, &texts, &req, &has, &err)) {
      std::fprintf(stderr, "whyq: %s:%zu: %s\n", o.positional[1].c_str(),
                   lineno, err.c_str());
      rc = 1;
      continue;
    }
    if (!has) continue;
    labels.push_back(std::string(RequestKindName(req.kind)) + " line " +
                     std::to_string(lineno));
    // Backpressure: TrySubmit reports a full queue as an explicit status;
    // retry until the pool drains (or a stop signal arrives). TrySubmit
    // consumes its argument, so each attempt gets its own copy — moving
    // here would leave retries submitting a hollowed-out request.
    bool accepted = false;
    while (!accepted && g_stop == 0) {
      auto promise = std::make_shared<std::promise<ServiceResponse>>();
      SubmitResult admitted = service.TrySubmit(
          req, [promise](ServiceResponse resp) {
            promise->set_value(std::move(resp));
          });
      switch (admitted) {
        case SubmitResult::kAccepted:
          futures.push_back(promise->get_future());
          accepted = true;
          break;
        case SubmitResult::kQueueFull:
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          break;
        case SubmitResult::kShutdown:
          labels.pop_back();
          rc = 1;
          accepted = true;  // unreachable in practice; avoid spinning
          break;
      }
    }
    if (g_stop != 0 && !accepted) {
      labels.pop_back();
      break;  // stop signal: drain what was already admitted
    }
  }
  // Pin one epoch for rendering every response's explanation (serve-batch
  // never updates the graph, so this is the only epoch there is).
  std::shared_ptr<const Graph> pinned = service.graph();
  const Graph& graph = *pinned;
  for (size_t i = 0; i < futures.size(); ++i) {
    ServiceResponse r = futures[i].get();
    if (r.status != ResponseStatus::kOk) {
      std::printf("%-22s %s %s\n", labels[i].c_str(),
                  ResponseStatusName(r.status), r.error.c_str());
      rc = 1;
      continue;
    }
    std::string detail;
    if (r.answer.found) {
      detail = r.answer.Explain(graph);
    } else if (r.why_empty.found) {
      detail = "repaired at cost " + std::to_string(r.why_empty.cost);
    } else if (r.why_so_many.found) {
      detail = std::to_string(r.why_so_many.before) + " -> " +
               std::to_string(r.why_so_many.after) + " answers";
    } else {
      detail = "no rewrite found";
    }
    std::printf("%-22s ok %7.1fms%s%s  %s\n", labels[i].c_str(), r.latency_ms,
                r.truncated ? " truncated" : "",
                r.cache_hit ? " cached" : "", detail.c_str());
    if (o.trace) std::printf("%s", r.trace.ToString().c_str());
  }
  // Drain pending plan persists before snapshotting, so the printed stats
  // (and the JSON scripts reconcile) include every durable write.
  if (sc.plan_store != nullptr) sc.plan_store->Flush();
  StatsSnapshot snap = service.Stats();
  std::printf("\n%s\n", snap.ToString().c_str());
  if (!o.stats_json.empty()) {
    const std::string json = snap.ToJson() + "\n";
    const ImageRegion chunk = ImageRegion::Of(json);
    std::string error;
    if (!PublishFile(o.stats_json, {&chunk, 1}, /*durable=*/false, "stats",
                     nullptr, &error)) {
      return Fail(error);
    }
    std::printf("stats json written to %s\n", o.stats_json.c_str());
  }
  return rc;
}

// The graph's wire name: file basename without its extension
// ("data/bsbm.graph" serves as "bsbm").
std::string GraphName(const std::string& path) {
  size_t slash = path.find_last_of('/');
  std::string base = slash == std::string::npos ? path : path.substr(slash + 1);
  size_t dot = base.find_last_of('.');
  if (dot != std::string::npos && dot > 0) base = base.substr(0, dot);
  return base;
}

// serve: the long-lived daemon. Loads every listed graph, binds the
// loopback listener, prints the port (scripts parse the "listening on"
// line), and runs the event loop until SIGTERM/SIGINT. Exit 0 iff the
// drain completed within --drain-ms.
int CmdServe(const Options& o) {
  if (o.positional.empty()) return Fail("serve needs at least one GRAPH");
  std::vector<std::pair<std::string, std::shared_ptr<const Graph>>> graphs;
  for (const std::string& path : o.positional) {
    std::optional<LoadedGraph> lg = LoadGraphAuto(o, path);
    if (!lg.has_value()) return 1;
    std::string name = GraphName(path);
    for (const auto& [existing, unused] : graphs) {
      if (existing == name) {
        return Fail("duplicate graph name '" + name + "'");
      }
    }
    graphs.emplace_back(name, lg->share());
  }
  server::ServerConfig sc;
  sc.port = static_cast<uint16_t>(o.port);
  sc.max_connections = o.max_conns;
  sc.idle_timeout_ms = o.idle_ms;
  sc.drain_deadline_ms = o.drain_ms;
  sc.stats_json_path = o.stats_json;
  sc.stats_period_ms = o.stats_period_ms;
  sc.service = MakeServiceConfig(o);
  sc.plan_store_dir = o.plan_store;
  server::WhyqServer srv(std::move(graphs), sc);
  std::string err;
  if (!srv.Start(&err)) return Fail(err);
  InstallStopHandlers();
  std::printf("whyq_server listening on 127.0.0.1:%u\n",
              static_cast<unsigned>(srv.port()));
  std::printf("graphs:");
  for (const std::string& name : srv.graph_names()) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\n");
  std::fflush(stdout);  // scripts behind a pipe parse the port line
  int rc = srv.Run(&g_stop);
  server::ServerSnapshot snap = srv.Snapshot();
  std::printf(
      "whyq_server drained %s: %llu conns, %llu requests, %llu admitted, "
      "%llu rejected, %llu bad, %llu responses\n",
      rc == 0 ? "cleanly" : "past the deadline",
      static_cast<unsigned long long>(snap.accepted),
      static_cast<unsigned long long>(snap.requests),
      static_cast<unsigned long long>(snap.admitted),
      static_cast<unsigned long long>(snap.rejected),
      static_cast<unsigned long long>(snap.bad_lines),
      static_cast<unsigned long long>(snap.responded));
  return rc;
}

// snapshot build GRAPH --out=FILE freezes a text-format graph into a
// frozen snapshot image; snapshot info FILE prints an image's header and
// section table (format: docs/SNAPSHOT_FORMAT.md) without loading the
// graph payload.
int CmdSnapshot(const Options& o) {
  if (o.positional.empty()) return Fail("snapshot needs build|info");
  const std::string& verb = o.positional[0];
  std::string err;
  if (verb == "build") {
    if (o.positional.size() < 2) return Fail("snapshot build needs GRAPH");
    if (o.out.empty()) return Fail("snapshot build needs --out=FILE");
    std::optional<Graph> g = LoadGraph(o.positional[1]);
    if (!g.has_value()) return 1;
    if (!GraphSnapshot::Write(*g, o.out, &err)) return Fail(err);
    GraphSnapshot::Info info;
    if (!GraphSnapshot::ReadInfo(o.out, &info, &err)) return Fail(err);
    std::printf(
        "wrote %s: v%u, %llu nodes, %llu edges, %llu bytes, "
        "fingerprint %016llx\n",
        o.out.c_str(), info.version,
        static_cast<unsigned long long>(info.node_count),
        static_cast<unsigned long long>(info.edge_count),
        static_cast<unsigned long long>(info.file_bytes),
        static_cast<unsigned long long>(info.fingerprint));
    return 0;
  }
  if (verb == "info") {
    if (o.positional.size() < 2) return Fail("snapshot info needs FILE");
    GraphSnapshot::Info info;
    if (!GraphSnapshot::ReadInfo(o.positional[1], &info, &err)) {
      return Fail(err);
    }
    static const char* const kSectionNames[kSnapshotSectionCount] = {
        "node_labels",      "out_edges",       "in_edges",
        "out_edge_range",   "in_edge_range",   "out_nbrs",
        "in_nbrs",          "out_slices",      "in_slices",
        "out_slice_range",  "in_slice_range",  "bucket_nodes",
        "bucket_range",     "attr_ranges",     "attr_entries",
        "attr_entry_range", "string_pool",     "node_label_dict",
        "edge_label_dict",  "attr_name_dict",
    };
    std::printf("%s: snapshot v%u\n", o.positional[1].c_str(), info.version);
    std::printf("  file_bytes   %llu\n",
                static_cast<unsigned long long>(info.file_bytes));
    std::printf("  node_count   %llu\n",
                static_cast<unsigned long long>(info.node_count));
    std::printf("  edge_count   %llu\n",
                static_cast<unsigned long long>(info.edge_count));
    std::printf("  fingerprint  %016llx\n",
                static_cast<unsigned long long>(info.fingerprint));
    std::printf("  payload_hash %016llx\n",
                static_cast<unsigned long long>(info.payload_hash));
    std::printf("  %-3s %-16s %12s %12s\n", "id", "section", "offset",
                "bytes");
    for (const SnapSection& s : info.sections) {
      const char* name =
          s.id < kSnapshotSectionCount ? kSectionNames[s.id] : "?";
      std::printf("  %-3u %-16s %12llu %12llu\n", s.id, name,
                  static_cast<unsigned long long>(s.offset),
                  static_cast<unsigned long long>(s.bytes));
    }
    return 0;
  }
  return Fail("snapshot needs build|info");
}

// explain-plan PLANFILE [GRAPH] pretty-prints one persistent compiled plan
// (docs/PLAN_FORMAT.md): the store content address it occupies, the graph
// stamp it was compiled against, what PrepareQuery output it carries, and
// the canonical query. With GRAPH (honoring --snapshot) the plan is
// re-validated end to end — fingerprint, epoch, artifact coherence via
// PreparedFromPlan — exiting 2 when it is not servable for that graph.
int CmdExplainPlan(const Options& o) {
  if (o.positional.empty()) return Fail("explain-plan needs PLANFILE [GRAPH]");
  CompiledPlan plan;
  PlanStamp stamp;
  std::string err;
  if (!LoadPlanFile(o.positional[0], &plan, &stamp, &err)) return Fail(err);
  std::string body =
      PreparedQueryKeyBody(plan.semantics, plan.max_paths, plan.query_text);
  uint64_t key = PlanKeyHash(stamp.fingerprint, body);
  size_t steps = 0;
  size_t longest = 0;
  for (const auto& path : plan.paths) {
    steps += path.size();
    if (path.size() > longest) longest = path.size();
  }
  std::printf("%s: compiled plan v%u\n", o.positional[0].c_str(),
              kPlanVersion);
  std::printf("  store key         %016llx (%s)\n",
              static_cast<unsigned long long>(key), PlanFileName(key).c_str());
  std::printf("  graph fingerprint %016llx\n",
              static_cast<unsigned long long>(stamp.fingerprint));
  std::printf("  graph epoch       %016llx@%llu\n",
              static_cast<unsigned long long>(stamp.identity),
              static_cast<unsigned long long>(stamp.generation));
  std::printf("  semantics         %s\n", MatchSemanticsName(plan.semantics));
  std::printf("  max_paths         %llu\n",
              static_cast<unsigned long long>(plan.max_paths));
  std::printf("  answers           %zu\n", plan.answers.size());
  std::printf("  candidates        %zu\n", plan.output_candidates.size());
  std::printf("  sampled paths     %zu (%zu steps, longest %zu)\n",
              plan.paths.size(), steps, longest);
  std::printf("  footprint         %zu node labels, %zu edge labels, "
              "%zu attrs\n",
              plan.footprint.node_labels.size(),
              plan.footprint.edge_labels.size(),
              plan.footprint.attrs.size());
  std::printf("  query:\n");
  std::stringstream lines(plan.query_text);
  std::string qline;
  while (std::getline(lines, qline)) {
    std::printf("    %s\n", qline.c_str());
  }
  if (o.positional.size() < 2) return 0;
  std::optional<LoadedGraph> lg = LoadGraphAuto(o, o.positional[1]);
  if (!lg.has_value()) return 1;
  const Graph& g = lg->get();
  const char* graph_path = o.positional[1].c_str();
  uint64_t fp = PlanFingerprint(g);
  if (stamp.fingerprint != fp) {
    std::printf("  INVALID for %s: fingerprint mismatch (graph is %016llx)\n",
                graph_path, static_cast<unsigned long long>(fp));
    return 2;
  }
  if (stamp.identity == g.identity() && stamp.generation != g.generation()) {
    std::printf("  INVALID for %s: stale epoch (graph is at @%llu)\n",
                graph_path,
                static_cast<unsigned long long>(g.generation()));
    return 2;
  }
  std::shared_ptr<const PreparedQuery> prepared =
      PreparedFromPlan(plan, g, &err);
  if (prepared == nullptr) {
    std::printf("  INVALID for %s: %s\n", graph_path, err.c_str());
    return 2;
  }
  std::printf("  valid for %s: ready to serve (%zu answers)\n", graph_path,
              prepared->answers.size());
  return 0;
}

// update GRAPH BATCHFILE applies an update batch (graph_io.h text format)
// and reports the delta; --out=FILE writes the updated graph. Frozen
// (--snapshot) graphs are rejected with the typed kFrozen error.
int CmdUpdate(const Options& o) {
  if (o.positional.size() < 2) return Fail("update needs GRAPH BATCHFILE");
  std::optional<LoadedGraph> lg = LoadGraphAuto(o, o.positional[0]);
  if (!lg.has_value()) return 1;
  std::string err;
  std::optional<UpdateBatch> batch =
      ReadUpdateBatchFromFile(o.positional[1], &err);
  if (!batch.has_value()) return Fail(err);
  Graph next;
  UpdateResult result;
  if (!lg->get().ApplyUpdate(*batch, &next, &result)) {
    return Fail("update failed (" +
                std::string(UpdateStatusName(result.status)) +
                "): " + result.error);
  }
  std::printf("applied %zu ops: %s\n", batch->size(),
              result.delta.ToString().c_str());
  std::printf("generation %llu -> %llu\n",
              static_cast<unsigned long long>(lg->get().generation()),
              static_cast<unsigned long long>(next.generation()));
  if (!o.out.empty()) {
    if (!WriteGraphToFile(next, o.out)) return Fail("cannot write " + o.out);
    std::printf("wrote %s: %s\n", o.out.c_str(),
                ComputeStats(next).ToString().c_str());
  }
  return 0;
}

// Writes the paper's running example (Fig. 1) to PREFIX.graph and
// PREFIX.query and prints the node ids its Why/Why-not questions use, so
// scripts (tools/check_stats_json.sh) can drive file-based subcommands
// against the canonical fixture without hand-building a graph.
int CmdFigure1(const Options& o) {
  if (o.out.empty()) return Fail("figure1 needs --out=PREFIX");
  Figure1 f = MakeFigure1();
  std::string graph_path = o.out + ".graph";
  std::string query_path = o.out + ".query";
  if (!WriteGraphToFile(f.graph, graph_path)) {
    return Fail("cannot write " + graph_path);
  }
  std::ofstream qf(query_path);
  if (!qf) return Fail("cannot write " + query_path);
  qf << WriteQuery(f.query, f.graph);
  if (!qf) return Fail("cannot write " + query_path);
  std::printf("wrote %s and %s\n", graph_path.c_str(), query_path.c_str());
  std::printf("ids: a5=%u s5=%u s8=%u s9=%u\n", f.a5, f.s5, f.s8, f.s9);
  return 0;
}

// Self-contained smoke flow on the paper's Fig. 1 example; exits nonzero
// on any unexpected outcome (used as a ctest entry).
int CmdDemo() {
  Figure1 f = MakeFigure1();
  Matcher m(f.graph);
  std::vector<NodeId> answers = m.MatchOutput(f.query);
  if (answers.size() != 3) return Fail("demo: expected 3 answers");
  AnswerConfig cfg;
  cfg.budget = 4.0;
  cfg.guard_m = 0;
  WhyQuestion why{{f.a5, f.s5}};
  RewriteAnswer a = ExactWhy(f.graph, f.query, answers, why, cfg);
  if (!a.found || a.eval.closeness < 1.0) return Fail("demo: Why failed");
  WhyNotQuestion wn;
  wn.missing = {f.s8, f.s9};
  cfg.budget = 5.0;
  cfg.guard_m = 2;
  RewriteAnswer b = ExactWhyNot(f.graph, f.query, answers, wn, cfg);
  if (!b.found || b.eval.closeness < 1.0) return Fail("demo: Why-not failed");
  std::printf("demo OK: Why %s | Why-not %s\n",
              a.Explain(f.graph).c_str(), b.Explain(f.graph).c_str());
  return 0;
}

// CMake injects the project version (tools/CMakeLists.txt); the fallback
// covers out-of-tree compiles of this file.
#ifndef WHYQ_VERSION
#define WHYQ_VERSION "unversioned"
#endif

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: whyq_cli "
                 "generate|import|dot|stats|query|why|whynot|whyempty|"
                 "whysomany|serve-batch|serve|snapshot|explain-plan|update|"
                 "figure1|demo|--version ...\n");
    return 1;
  }
  if (std::strcmp(argv[1], "--version") == 0) {
    std::printf("whyq_cli %s\n", WHYQ_VERSION);
    return 0;
  }
  Options o;
  std::string err;
  if (!ParseArgs(argc, argv, &o, &err)) return Fail(err);
  std::string cmd = argv[1];
  if (cmd == "generate") return CmdGenerate(o);
  if (cmd == "import") return CmdImport(o);
  if (cmd == "dot") return CmdDot(o);
  if (cmd == "stats") return CmdStats(o);
  if (cmd == "query") return CmdQuery(o);
  if (cmd == "why") return CmdQuestion(o, RequestKind::kWhy);
  if (cmd == "whynot") return CmdQuestion(o, RequestKind::kWhyNot);
  if (cmd == "whyempty") return CmdQuestion(o, RequestKind::kWhyEmpty);
  if (cmd == "whysomany") return CmdQuestion(o, RequestKind::kWhySoMany);
  if (cmd == "serve-batch") return CmdServeBatch(o);
  if (cmd == "serve") return CmdServe(o);
  if (cmd == "snapshot") return CmdSnapshot(o);
  if (cmd == "explain-plan") return CmdExplainPlan(o);
  if (cmd == "update") return CmdUpdate(o);
  if (cmd == "figure1") return CmdFigure1(o);
  if (cmd == "demo") return CmdDemo();
  return Fail("unknown command " + cmd);
}

}  // namespace
}  // namespace whyq::cli

int main(int argc, char** argv) { return whyq::cli::Main(argc, argv); }
