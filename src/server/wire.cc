#include "server/wire.h"

#include <cmath>
#include <cstdint>
#include <sstream>
#include <utility>

#include "graph/graph_io.h"
#include "query/query_parser.h"
#include "server/limits.h"

namespace whyq::server {

bool LineBuffer::Append(const char* data, size_t n) {
  if (buf_.size() + n > max_buffer_) return false;
  buf_.append(data, n);
  return true;
}

LineBuffer::Pop LineBuffer::PopLine(std::string* line) {
  size_t nl = buf_.find('\n');
  if (nl == std::string::npos) {
    // No terminator yet: a partial line already past the cap can never
    // become a valid request, so report it before buffering more.
    return buf_.size() > max_line_ ? Pop::kOversized : Pop::kNone;
  }
  if (nl + 1 > max_line_) return Pop::kOversized;
  *line = buf_.substr(0, nl);
  buf_.erase(0, nl + 1);
  if (!line->empty() && line->back() == '\r') line->pop_back();
  return Pop::kLine;
}

size_t CountQueryNodes(const std::string& query_text) {
  size_t count = 0;
  std::stringstream ss(query_text);
  std::string ln;
  while (std::getline(ss, ln)) {
    size_t i = ln.find_first_not_of(" \t");
    if (i == std::string::npos) continue;
    if (ln.compare(i, 4, "node") == 0 &&
        (i + 4 == ln.size() || ln[i + 4] == ' ' || ln[i + 4] == '\t')) {
      ++count;
    }
  }
  return count;
}

namespace {

bool AsInteger(const JsonValue& v, uint64_t* out) {
  if (!v.is_number()) return false;
  double d = v.as_number();
  if (d < 0 || d != std::floor(d)) return false;
  *out = static_cast<uint64_t>(d);
  return true;
}

bool Fail(std::string* error, const std::string& msg) {
  *error = msg;
  return false;
}

}  // namespace

bool ParseWireRequest(const std::string& line, WireRequest* out,
                      std::string* error) {
  JsonValue doc;
  if (!ParseJson(line, kMaxJsonDepth, &doc, error)) return false;
  if (!doc.is_object()) return Fail(error, "request must be a JSON object");
  if (const JsonValue* id = doc.Find("id")) out->id_json = id->Dump();

  if (const JsonValue* g = doc.Find("graph")) {
    if (!g->is_string()) return Fail(error, "'graph' must be a string");
    out->graph = g->as_string();
  }

  if (const JsonValue* op = doc.Find("op")) {
    if (!op->is_string() || op->as_string() != "update") {
      return Fail(error, "unknown op (only \"update\")");
    }
    if (doc.Find("question") != nullptr) {
      return Fail(error, "'op' and 'question' are mutually exclusive");
    }
    const JsonValue* ops = doc.Find("ops");
    if (ops == nullptr || !ops->is_array() || ops->as_array().empty()) {
      return Fail(error, "'op':'update' needs a non-empty 'ops' array");
    }
    if (ops->as_array().size() > kMaxUpdateOps) {
      return Fail(error, "too many update ops (limit " +
                             std::to_string(kMaxUpdateOps) + ")");
    }
    // Each array element is one update-batch line in the graph_io text
    // format; the shared parser gives the wire and the CLI identical
    // mnemonics and identical error messages.
    std::string text;
    for (const JsonValue& o : ops->as_array()) {
      if (!o.is_string()) {
        return Fail(error, "'ops' must hold update-batch line strings");
      }
      text += o.as_string();
      text += '\n';
    }
    std::istringstream is(text);
    std::string parse_error;
    std::optional<UpdateBatch> batch = ReadUpdateBatch(is, &parse_error);
    if (!batch.has_value()) return Fail(error, "bad update op: " + parse_error);
    if (batch->size() > kMaxUpdateOps) {  // multi-line strings slip the count
      return Fail(error, "too many update ops (limit " +
                             std::to_string(kMaxUpdateOps) + ")");
    }
    out->update = std::move(*batch);
    out->is_update = true;
    return true;
  }

  const JsonValue* question = doc.Find("question");
  if (question == nullptr || !question->is_string()) {
    return Fail(error, "missing string field 'question'");
  }
  const std::string& kind = question->as_string();

  if (kind == "stats") {
    out->is_stats = true;
    return true;
  }

  ServiceRequest& req = out->request;
  if (kind == "why") {
    req.kind = RequestKind::kWhy;
  } else if (kind == "whynot") {
    req.kind = RequestKind::kWhyNot;
  } else if (kind == "whyempty") {
    req.kind = RequestKind::kWhyEmpty;
  } else if (kind == "whysomany") {
    req.kind = RequestKind::kWhySoMany;
  } else {
    return Fail(error, "unknown question '" + kind +
                           "' (why|whynot|whyempty|whysomany|stats)");
  }

  const JsonValue* query = doc.Find("query");
  if (query == nullptr || !query->is_string() ||
      query->as_string().empty()) {
    return Fail(error, "missing string field 'query'");
  }
  req.query_text = query->as_string();
  size_t nodes = CountQueryNodes(req.query_text);
  if (nodes == 0) return Fail(error, "query declares no nodes");
  if (nodes > kMaxQueryNodes) {
    return Fail(error, "query declares " + std::to_string(nodes) +
                           " nodes (limit " +
                           std::to_string(kMaxQueryNodes) + ")");
  }

  req.entities.clear();
  if (const JsonValue* ents = doc.Find("entities")) {
    if (!ents->is_array()) return Fail(error, "'entities' must be an array");
    if (ents->as_array().size() > kMaxEntities) {
      return Fail(error, "too many entities (limit " +
                             std::to_string(kMaxEntities) + ")");
    }
    for (const JsonValue& e : ents->as_array()) {
      uint64_t id = 0;
      if (!AsInteger(e, &id) || id > UINT32_MAX) {
        return Fail(error, "'entities' must hold node ids");
      }
      req.entities.push_back(static_cast<NodeId>(id));
    }
  }
  bool needs_entities =
      req.kind == RequestKind::kWhy || req.kind == RequestKind::kWhyNot;
  if (needs_entities && req.entities.empty()) {
    return Fail(error, "'" + kind + "' needs a non-empty 'entities' array");
  }

  if (const JsonValue* tk = doc.Find("target_k")) {
    uint64_t k = 0;
    if (!AsInteger(*tk, &k) || k == 0) {
      return Fail(error, "'target_k' must be a positive integer");
    }
    req.target_k = static_cast<size_t>(k);
  }

  if (const JsonValue* algo = doc.Find("algo")) {
    if (!algo->is_string()) return Fail(error, "'algo' must be a string");
    const std::string& a = algo->as_string();
    if (!ParseAlgoChoice(a, &req.algo)) {
      return Fail(error, "unknown algo '" + a + "' (auto|exact|iso)");
    }
  }

  if (const JsonValue* dl = doc.Find("deadline_ms")) {
    if (!dl->is_number() || dl->as_number() < 0) {
      return Fail(error, "'deadline_ms' must be a non-negative number");
    }
    req.deadline_ms = dl->as_number();
  }

  req.config.exact_time_limit_ms = kExactTimeLimitMs;
  if (const JsonValue* b = doc.Find("budget")) {
    if (!b->is_number() || b->as_number() <= 0) {
      return Fail(error, "'budget' must be a positive number");
    }
    req.config.budget = b->as_number();
  }
  if (const JsonValue* gm = doc.Find("guard")) {
    uint64_t m = 0;
    if (!AsInteger(*gm, &m)) {
      return Fail(error, "'guard' must be a non-negative integer");
    }
    req.config.guard_m = static_cast<size_t>(m);
  }
  if (const JsonValue* sem = doc.Find("semantics")) {
    if (!sem->is_string()) {
      return Fail(error, "'semantics' must be a string");
    }
    const std::string& s = sem->as_string();
    if (s == "iso") {
      req.config.semantics = MatchSemantics::kIsomorphism;
    } else if (s == "sim") {
      req.config.semantics = MatchSemantics::kSimulation;
    } else {
      return Fail(error, "unknown semantics '" + s + "' (iso|sim)");
    }
  }
  if (const JsonValue* mm = doc.Find("max_mbs")) {
    uint64_t m = 0;
    if (!AsInteger(*mm, &m) || m == 0) {
      return Fail(error, "'max_mbs' must be a positive integer");
    }
    // Clamp, don't reject: a client may lower the enumeration cap but not
    // raise it past the library default (see limits.h).
    req.config.max_mbs =
        m > kMaxMbsVisits ? kMaxMbsVisits : static_cast<size_t>(m);
  }
  return true;
}

namespace {

void AppendStats(const ServiceResponse& r, std::string* out) {
  *out += "\"stats\":{\"latency_ms\":" + JsonNumber(r.latency_ms);
  *out += ",\"cache_hit\":";
  *out += r.cache_hit ? "true" : "false";
  *out += ",\"queue_ms\":" + JsonNumber(r.trace.queue_ms);
  *out += ",\"parse_ms\":" + JsonNumber(r.trace.parse_ms);
  *out += ",\"prepare_ms\":" + JsonNumber(r.trace.prepare_ms);
  *out += ",\"search_ms\":" + JsonNumber(r.trace.search_ms);
  *out += "}";
}

void AppendAnswer(RequestKind kind, const ServiceResponse& r, const Graph& g,
                  std::string* out) {
  *out += "\"base_answers\":" + JsonNumber(double(r.base_answers.size()));
  *out += ",\"answer\":{";
  switch (kind) {
    case RequestKind::kWhySoMany: {
      bool found = r.why_so_many.found;
      *out += "\"found\":";
      *out += found ? "true" : "false";
      *out += ",\"before\":" + JsonNumber(double(r.why_so_many.before));
      *out += ",\"after\":" + JsonNumber(double(r.why_so_many.after));
      *out += ",\"cost\":" + JsonNumber(r.why_so_many.cost);
      if (found) {
        *out += ",\"rewritten\":\"" +
                JsonEscape(WriteQuery(r.why_so_many.rewritten, g)) + "\"";
      }
      break;
    }
    case RequestKind::kWhyEmpty: {
      bool found = r.why_empty.found;
      *out += "\"found\":";
      *out += found ? "true" : "false";
      if (found) {
        *out += ",\"cost\":" + JsonNumber(r.why_empty.cost);
        *out += ",\"sample_answers\":[";
        for (size_t i = 0; i < r.why_empty.sample_answers.size(); ++i) {
          if (i > 0) *out += ",";
          *out += JsonNumber(double(r.why_empty.sample_answers[i]));
        }
        *out += "],\"rewritten\":\"" +
                JsonEscape(WriteQuery(r.why_empty.rewritten, g)) + "\"";
      }
      break;
    }
    case RequestKind::kWhy:
    case RequestKind::kWhyNot: {
      bool found = r.answer.found;
      *out += "\"found\":";
      *out += found ? "true" : "false";
      if (found) {
        *out += ",\"explain\":\"" + JsonEscape(r.answer.Explain(g)) + "\"";
        *out += ",\"cost\":" + JsonNumber(r.answer.cost);
        *out += ",\"closeness\":" + JsonNumber(r.answer.eval.closeness);
        *out += ",\"rewritten\":\"" +
                JsonEscape(WriteQuery(r.answer.rewritten, g)) + "\"";
      }
      break;
    }
  }
  *out += "}";
}

}  // namespace

std::string EncodeResponse(const std::string& id_json, RequestKind kind,
                           const ServiceResponse& r, const Graph& g) {
  switch (r.status) {
    case ResponseStatus::kRejected:
      return EncodeRejected(id_json, kRetryAfterMs);
    case ResponseStatus::kBadRequest:
      return EncodeErrorLine(id_json, "bad_request", r.error);
    case ResponseStatus::kShutdown:
      return EncodeErrorLine(id_json, "shutdown",
                             r.error.empty() ? "server draining" : r.error);
    case ResponseStatus::kOk:
      break;
  }
  std::string out = "{\"id\":" + id_json + ",\"status\":\"ok\"";
  out += ",\"truncated\":";
  out += r.truncated ? "true" : "false";
  out += ",";
  AppendAnswer(kind, r, g, &out);
  out += ",";
  AppendStats(r, &out);
  out += "}\n";
  return out;
}

std::string EncodeErrorLine(const std::string& id_json,
                            const std::string& status,
                            const std::string& error) {
  return "{\"id\":" + id_json + ",\"status\":\"" + JsonEscape(status) +
         "\",\"error\":\"" + JsonEscape(error) + "\"}\n";
}

std::string EncodeRejected(const std::string& id_json,
                           double retry_after_ms) {
  return "{\"id\":" + id_json +
         ",\"status\":\"rejected\",\"error\":\"service queue full\","
         "\"retry_after_ms\":" +
         JsonNumber(retry_after_ms) + "}\n";
}

std::string EncodeStatsResponse(const std::string& id_json,
                                const std::string& stats_json) {
  return "{\"id\":" + id_json + ",\"status\":\"ok\",\"stats\":" +
         stats_json + "}\n";
}

std::string EncodeUpdateResponse(const std::string& id_json, bool applied,
                                 uint64_t generation,
                                 const UpdateResult& result) {
  if (!applied) {
    return "{\"id\":" + id_json + ",\"status\":\"bad_request\"" +
           ",\"update_status\":\"" +
           JsonEscape(UpdateStatusName(result.status)) + "\",\"error\":\"" +
           JsonEscape(result.error) + "\"}\n";
  }
  const UpdateDelta& d = result.delta;
  std::string out = "{\"id\":" + id_json + ",\"status\":\"ok\"";
  out += ",\"generation\":" + std::to_string(generation);
  out += ",\"applied\":{\"nodes_added\":" + std::to_string(d.nodes_added);
  out += ",\"nodes_deleted\":" + std::to_string(d.nodes_deleted);
  out += ",\"edges_added\":" + std::to_string(d.edges_added);
  out += ",\"edges_deleted\":" + std::to_string(d.edges_deleted);
  out += ",\"attrs_set\":" + std::to_string(d.attrs_set);
  out += ",\"attrs_deleted\":" + std::to_string(d.attrs_deleted);
  out += "}}\n";
  return out;
}

}  // namespace whyq::server
