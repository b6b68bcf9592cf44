#include "tools/lint/lint.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace whyq::lint {

namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

int LineOfOffset(const std::string& text, size_t offset) {
  int line = 1;
  for (size_t i = 0; i < offset && i < text.size(); ++i) {
    if (text[i] == '\n') ++line;
  }
  return line;
}

/// Whole-token search: `token` at `pos` with non-identifier neighbors.
bool TokenAt(const std::string& text, size_t pos, const std::string& token) {
  if (pos + token.size() > text.size()) return false;
  if (text.compare(pos, token.size(), token) != 0) return false;
  if (pos > 0 && IsIdentChar(text[pos - 1])) return false;
  size_t end = pos + token.size();
  if (end < text.size() && IsIdentChar(text[end])) return false;
  return true;
}

size_t FindToken(const std::string& text, const std::string& token,
                 size_t from = 0) {
  for (size_t pos = text.find(token, from); pos != std::string::npos;
       pos = text.find(token, pos + 1)) {
    if (TokenAt(text, pos, token)) return pos;
  }
  return std::string::npos;
}

bool ContainsToken(const std::string& text, const std::string& token) {
  return FindToken(text, token) != std::string::npos;
}

/// Matching close brace/paren for the opener at `open` (which must point
/// at one). Returns npos when unbalanced. Operates on stripped text, so
/// braces inside literals cannot confuse it.
size_t MatchDelim(const std::string& text, size_t open, char o, char c) {
  int depth = 0;
  for (size_t i = open; i < text.size(); ++i) {
    if (text[i] == o) ++depth;
    if (text[i] == c && --depth == 0) return i;
  }
  return std::string::npos;
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// A `'` directly after a (hex) digit is a C++14 digit separator
/// (1'048'576, 0xFF'FF), not the start of a char literal. Wide-literal
/// prefixes (L/u/U/u8) are not hex-digit letters, so they still open one.
bool IsDigitSeparatorContext(char prev) {
  return (prev >= '0' && prev <= '9') || (prev >= 'a' && prev <= 'f') ||
         (prev >= 'A' && prev <= 'F');
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Length of a raw-string opener starting at `i` — `R"`, or `R"` behind an
/// encoding prefix (`u8R"`, `uR"`, `UR"`, `LR"`) — through the opening
/// quote. 0 when `i` does not start one (including when the would-be
/// prefix is the tail of a longer identifier, e.g. `FooR"`).
size_t RawOpenerLen(const std::string& src, size_t i) {
  if (i > 0 && IsIdentChar(src[i - 1])) return 0;
  size_t r = i;
  if (src.compare(i, 2, "u8") == 0) {
    r = i + 2;
  } else if (src[i] == 'u' || src[i] == 'U' || src[i] == 'L') {
    r = i + 1;
  }
  if (r + 1 >= src.size() || src[r] != 'R' || src[r + 1] != '"') return 0;
  return r + 2 - i;
}

}  // namespace

std::string StripCommentsAndStrings(const std::string& src) {
  std::string out = src;
  enum class State { kCode, kLine, kBlock, kString, kChar, kRaw };
  State state = State::kCode;
  std::string raw_delim;  // the )delim" terminator of a raw string
  for (size_t i = 0; i < src.size(); ++i) {
    char c = src[i];
    char next = i + 1 < src.size() ? src[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLine;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          state = State::kBlock;
          out[i] = ' ';
        } else if (size_t raw = RawOpenerLen(src, i); raw > 0) {
          // [u8|u|U|L]R"delim( ... )delim"
          size_t open = src.find('(', i + raw);
          if (open == std::string::npos) break;
          raw_delim = ")" + src.substr(i + raw, open - i - raw) + "\"";
          state = State::kRaw;
          // Keep the first prefix char readable; blank from there on —
          // kRaw also blanks the closing )delim", whose delimiter may
          // contain digits/identifier chars that must not leak as code.
        } else if (c == '"') {
          state = State::kString;
        } else if (c == '\'' &&
                   (i == 0 || !IsDigitSeparatorContext(src[i - 1]))) {
          state = State::kChar;
        }
        break;
      case State::kLine:
        if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlock:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
        if (c == '\\' && next != '\0') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kChar:
        if (c == '\\' && next != '\0') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kRaw:
        if (src.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (size_t k = 0; k < raw_delim.size(); ++k) {
            if (out[i + k] != '\n') out[i + k] = ' ';
          }
          i += raw_delim.size() - 1;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

namespace {

// ---------------------------------------------------------------------------
// Rule: cancel-poll
// ---------------------------------------------------------------------------

// A loop is a "hot loop" when its condition or body invokes one of these
// (enumeration, exact verification, greedy scoring — the operations a
// deadline must be able to interrupt mid-flight).
const char* const kWorkTokens[] = {
    "Evaluate",
    "EnumerateMaximalBoundedSetsBatched",
    "MatchOutput",
    "HasAnyMatch",
    "TestAnswers",
    "NewMatches",
    "AffectedAnswers",
    "SearchFrom",
    "estimate",
};

// Evidence of a cooperative cancellation poll (or of delegating the poll
// to the enumerator via its should_stop hook).
const char* const kPollTokens[] = {
    "CancelRequested", "Expired", "CancelledNow", "cancel_hit_",
    "should_stop",
};

void CheckCancelPolling(const std::string& path, const std::string& stripped,
                        std::vector<Violation>* out) {
  static const std::string kLoopKeywords[] = {"while", "for"};
  for (const std::string& kw : kLoopKeywords) {
    for (size_t pos = FindToken(stripped, kw); pos != std::string::npos;
         pos = FindToken(stripped, kw, pos + 1)) {
      // `do { } while (cond);` — the trailing while has no body; the
      // condition alone cannot contain a hot call chain we track.
      size_t open = stripped.find_first_not_of(" \t\n", pos + kw.size());
      if (open == std::string::npos || stripped[open] != '(') continue;
      size_t close = MatchDelim(stripped, open, '(', ')');
      if (close == std::string::npos) continue;
      size_t body_begin = stripped.find_first_not_of(" \t\n", close + 1);
      if (body_begin == std::string::npos) continue;
      size_t body_end;
      if (stripped[body_begin] == '{') {
        body_end = MatchDelim(stripped, body_begin, '{', '}');
        if (body_end == std::string::npos) continue;
      } else {
        body_end = stripped.find(';', body_begin);
        if (body_end == std::string::npos) continue;
      }
      std::string loop_text =
          stripped.substr(open, body_end + 1 - open);
      bool works = false;
      for (const char* t : kWorkTokens) {
        if (ContainsToken(loop_text, t)) {
          works = true;
          break;
        }
      }
      if (!works) continue;
      bool polls = false;
      for (const char* t : kPollTokens) {
        if (ContainsToken(loop_text, t)) {
          polls = true;
          break;
        }
      }
      if (!polls) {
        out->push_back({path, LineOfOffset(stripped, pos), "cancel-poll",
                        "loop performs enumeration/verification work but "
                        "never polls the CancelToken (CancelRequested/"
                        "Expired) — deadlines cannot truncate it"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: determinism
// ---------------------------------------------------------------------------

void CheckDeterminism(const std::string& path, const std::string& stripped,
                      std::vector<Violation>* out) {
  static const char* const kBanned[] = {"rand", "srand", "random_device",
                                        "rand_r", "drand48"};
  for (const char* t : kBanned) {
    for (size_t pos = FindToken(stripped, t); pos != std::string::npos;
         pos = FindToken(stripped, t, pos + 1)) {
      out->push_back({path, LineOfOffset(stripped, pos), "determinism",
                      std::string(t) +
                          " is nondeterministic; route randomness through "
                          "the seeded whyq::Rng (src/common/rng.h)"});
    }
  }
  // time(nullptr) / time(NULL) seeds.
  for (size_t pos = FindToken(stripped, "time"); pos != std::string::npos;
       pos = FindToken(stripped, "time", pos + 1)) {
    size_t open = stripped.find_first_not_of(" \t\n", pos + 4);
    if (open == std::string::npos || stripped[open] != '(') continue;
    size_t close = MatchDelim(stripped, open, '(', ')');
    if (close == std::string::npos) continue;
    std::string arg = stripped.substr(open + 1, close - open - 1);
    arg.erase(std::remove_if(arg.begin(), arg.end(),
                             [](char c) { return c == ' ' || c == '\t'; }),
              arg.end());
    if (arg == "nullptr" || arg == "NULL" || arg == "0") {
      out->push_back({path, LineOfOffset(stripped, pos), "determinism",
                      "time(" + arg +
                          ") wall-clock seed; use a fixed or configured "
                          "seed via whyq::Rng"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: output-channel
// ---------------------------------------------------------------------------

void CheckOutputChannel(const std::string& path, const std::string& stripped,
                        std::vector<Violation>* out) {
  static const char* const kBanned[] = {"cout", "cerr",  "clog",    "printf",
                                        "fprintf", "puts", "fputs", "putchar"};
  for (const char* t : kBanned) {
    for (size_t pos = FindToken(stripped, t); pos != std::string::npos;
         pos = FindToken(stripped, t, pos + 1)) {
      out->push_back({path, LineOfOffset(stripped, pos), "output-channel",
                      std::string(t) +
                          " in library code; metrics/RequestTrace (and "
                          "returned strings) are the only output channels "
                          "under src/"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rules: server-limits, snapshot-limits (shared decimal-literal scanner)
// ---------------------------------------------------------------------------

/// Decimal integer literals at or above this value are presumed to be
/// resource limits (buffer sizes, caps, timeouts) or format constants
/// that belong in the layer's pigeonhole header. Below it sit loop
/// bounds, small field counts and arithmetic constants that are not
/// limits. Hex/binary/octal-prefixed literals are exempt: they are bit
/// masks and encoding thresholds (UTF-8 boundaries, epoll flags), not
/// capacity knobs.
constexpr unsigned long long kLimitLiteralThreshold = 64;

/// One pigeonhole: every decimal integer literal >= kLimitLiteralThreshold
/// in a file under `prefix` belongs in `header`, the one file of the layer
/// exempt from the rule.
struct LimitsRule {
  const char* prefix;
  const char* header;
  const char* rule;
  const char* message;  // what `header` holds
};

const LimitsRule kLimitsRules[] = {
    {"src/server/", "src/server/limits.h", "server-limits",
     "every hard limit of the daemon, with a provenance comment"},
    {"src/graph/snapshot.", "src/graph/snapshot.h", "snapshot-limits",
     "every snapshot format constant (docs/SNAPSHOT_FORMAT.md)"},
    {"src/service/plan.", "src/service/plan.h", "plan-limits",
     "every plan format constant and store default (docs/PLAN_FORMAT.md)"},
    {"src/common/image.", "src/common/image.h", "image-limits",
     "every image container constant (docs/IMAGE_FORMAT.md)"},
};

void CheckLimitLiterals(const std::string& path, const std::string& stripped,
                        const LimitsRule& limits,
                        std::vector<Violation>* out) {
  auto digit = [](char c) {
    return std::isdigit(static_cast<unsigned char>(c)) != 0;
  };
  for (size_t i = 0; i < stripped.size();) {
    if (!digit(stripped[i]) ||
        (i > 0 && (IsIdentChar(stripped[i - 1]) || stripped[i - 1] == '.'))) {
      ++i;
      continue;
    }
    size_t j = i;
    if (stripped[i] == '0' && j + 1 < stripped.size() &&
        (stripped[j + 1] == 'x' || stripped[j + 1] == 'X' ||
         stripped[j + 1] == 'b' || stripped[j + 1] == 'B')) {
      // Prefixed literal: skip the whole token.
      j += 2;
      while (j < stripped.size() &&
             (IsIdentChar(stripped[j]) || stripped[j] == '\'')) {
        ++j;
      }
      i = j;
      continue;
    }
    std::string digits;
    while (j < stripped.size() && (digit(stripped[j]) || stripped[j] == '\'')) {
      if (stripped[j] != '\'') digits += stripped[j];
      ++j;
    }
    if (j < stripped.size() &&
        (stripped[j] == '.' || stripped[j] == 'e' || stripped[j] == 'E')) {
      // Floating literal: consume its tail and move on (doubles carrying
      // limit semantics still live in limits.h by convention, but flagging
      // every 0.5 scale factor would drown the rule in noise).
      while (j < stripped.size() &&
             (digit(stripped[j]) || stripped[j] == '.' ||
              stripped[j] == 'e' || stripped[j] == 'E' ||
              stripped[j] == '+' || stripped[j] == '-' ||
              IsIdentChar(stripped[j]))) {
        ++j;
      }
      i = j;
      continue;
    }
    unsigned long long value = std::strtoull(digits.c_str(), nullptr, 10);
    size_t literal_at = i;
    // Integer suffixes (u/l/z combinations).
    while (j < stripped.size() && IsIdentChar(stripped[j])) ++j;
    i = j;
    if (value >= kLimitLiteralThreshold) {
      out->push_back({path, LineOfOffset(stripped, literal_at), limits.rule,
                      "integer literal " + digits + " outside " +
                          limits.header + ", which holds " + limits.message +
                          " (hex bit-mask literals are exempt)"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: graph-mutation
// ---------------------------------------------------------------------------

// The Graph's derived-storage columns: label buckets, label-partitioned
// adjacency runs, attribute indexes, and the raw edge pools they are built
// from. They are private and only reachable from the graph core's friends,
// but a friend declaration is one line — this rule makes the boundary
// auditable: any *textual* reference to these members outside the graph
// core (builder, updater, snapshot codec) is flagged, so every structure
// write provably flows through GraphBuilder::Build or Graph::ApplyUpdate
// and the incremental-vs-rebuild equivalence tests cover it.
const char* const kGraphStorageMembers[] = {
    "node_label_",      "attr_range_",    "attr_pool_",
    "attr_ranges_",     "out_pool_",      "in_pool_",
    "out_range_",       "in_range_",      "out_nbrs_",
    "in_nbrs_",         "out_slices_",    "in_slices_",
    "out_slice_range_", "in_slice_range_", "bucket_nodes_",
    "bucket_range_",
};

void CheckGraphMutation(const std::string& path, const std::string& stripped,
                        std::vector<Violation>* out) {
  for (const char* t : kGraphStorageMembers) {
    for (size_t pos = FindToken(stripped, t); pos != std::string::npos;
         pos = FindToken(stripped, t, pos + 1)) {
      out->push_back(
          {path, LineOfOffset(stripped, pos), "graph-mutation",
           std::string(t) +
               " referenced outside the graph core — label buckets, "
               "adjacency runs and attribute indexes are maintained only "
               "by GraphBuilder (src/graph/graph.cc), GraphUpdater "
               "(src/graph/update.cc) and the snapshot codec; mutate live "
               "graphs through Graph::ApplyUpdate"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: nodespan-member
// ---------------------------------------------------------------------------

void CheckNodeSpanMembers(const std::string& path,
                          const std::string& stripped,
                          std::vector<Violation>* out) {
  if (!ContainsToken(stripped, "NodeSpan")) return;
  // Brace-scope walk classifying each `{` as record (class/struct body) or
  // other. A declaration statement directly inside a record scope that
  // names NodeSpan without a parameter list is a stored borrowed span.
  std::vector<bool> record_stack;
  size_t stmt_begin = 0;
  auto check_stmt = [&](size_t begin, size_t end) {
    if (record_stack.empty() || !record_stack.back()) return;
    std::string stmt = stripped.substr(begin, end - begin);
    if (stmt.find('(') != std::string::npos) return;  // function decl
    if (!ContainsToken(stmt, "NodeSpan")) return;
    if (ContainsToken(stmt, "using") || ContainsToken(stmt, "typedef") ||
        ContainsToken(stmt, "friend")) {
      return;
    }
    out->push_back(
        {path, LineOfOffset(stripped, begin + stmt.find("NodeSpan")),
         "nodespan-member",
         "NodeSpan stored as a class member outside src/graph/ — spans "
         "borrow Graph storage and must not outlive a statement scope; "
         "store NodeId ranges or re-fetch the span instead"});
  };
  for (size_t i = 0; i < stripped.size(); ++i) {
    char c = stripped[i];
    if (c == '{') {
      // Classify by the statement head accumulated since the last
      // boundary: a class/struct keyword with no parameter list.
      std::string head = stripped.substr(stmt_begin, i - stmt_begin);
      bool is_record = head.find('(') == std::string::npos &&
                       head.find('=') == std::string::npos &&
                       (ContainsToken(head, "class") ||
                        ContainsToken(head, "struct"));
      check_stmt(stmt_begin, i);  // brace-initialized member
      record_stack.push_back(is_record);
      stmt_begin = i + 1;
    } else if (c == '}') {
      if (!record_stack.empty()) record_stack.pop_back();
      stmt_begin = i + 1;
    } else if (c == ';') {
      check_stmt(stmt_begin, i);
      stmt_begin = i + 1;
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: header-guard
// ---------------------------------------------------------------------------

std::string ExpectedGuard(const std::string& path) {
  // src/common/cancel.h        -> WHYQ_COMMON_CANCEL_H_
  // tools/lint/lint.h          -> WHYQ_TOOLS_LINT_LINT_H_
  std::string rel = path;
  if (StartsWith(rel, "src/")) rel = rel.substr(4);
  std::string guard = "WHYQ_";
  for (char c : rel) {
    guard += IsIdentChar(c)
                 ? static_cast<char>(std::toupper(static_cast<unsigned char>(c)))
                 : '_';
  }
  guard += "_";
  return guard;
}

void CheckHeaderGuard(const std::string& path, const std::string& stripped,
                      std::vector<Violation>* out) {
  std::string expected = ExpectedGuard(path);
  std::istringstream lines(stripped);
  std::string line;
  std::string ifndef_name;
  std::string define_name;
  bool has_endif = false;
  int lineno = 0;
  int ifndef_line = 0;
  while (std::getline(lines, line)) {
    ++lineno;
    std::istringstream toks(line);
    std::string a;
    toks >> a;
    if (a.empty()) continue;
    if (ifndef_name.empty()) {
      if (a == "#ifndef") {
        toks >> ifndef_name;
        ifndef_line = lineno;
        continue;
      }
      // Leading directives before the guard are skipped here; a header
      // with no #ifndef at all is still reported below.
      if (a[0] == '#') continue;
      out->push_back({path, lineno, "header-guard",
                      "header does not start with its include guard "
                      "(#ifndef " +
                          expected + ")"});
      return;
    }
    if (define_name.empty()) {
      if (a == "#define") {
        toks >> define_name;
        continue;
      }
      out->push_back({path, lineno, "header-guard",
                      "#ifndef " + ifndef_name +
                          " must be followed immediately by #define " +
                          ifndef_name});
      return;
    }
    if (a == "#endif") has_endif = true;
  }
  if (ifndef_name.empty()) {
    out->push_back({path, 1, "header-guard",
                    "missing include guard #ifndef " + expected});
    return;
  }
  if (ifndef_name != expected) {
    out->push_back({path, ifndef_line, "header-guard",
                    "guard " + ifndef_name + " does not match canonical " +
                        expected});
  } else if (define_name != ifndef_name) {
    out->push_back({path, ifndef_line, "header-guard",
                    "#define " + define_name + " does not match #ifndef " +
                        ifndef_name});
  } else if (!has_endif) {
    out->push_back(
        {path, ifndef_line, "header-guard", "guard is never closed (#endif)"});
  }
}

// ---------------------------------------------------------------------------
// v2 per-TU model: function extents, loop regions, statement structure
// ---------------------------------------------------------------------------

// Drops preprocessor lines from a statement head: a head accumulated since
// the last `;`/`{`/`}` boundary may span #include/#define runs (file tops,
// guarded sections) that would otherwise confuse classification.
std::string DropPreprocessorLines(const std::string& head) {
  std::string out;
  size_t pos = 0;
  while (pos < head.size()) {
    size_t eol = head.find('\n', pos);
    size_t len = eol == std::string::npos ? head.size() - pos : eol - pos + 1;
    std::string line = head.substr(pos, len);
    size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] != '#') out += line;
    pos += len;
  }
  return out;
}

/// Classifies a brace-opening statement head. Returns the unqualified
/// function name when the head is a function definition (the identifier
/// immediately before its first `(`), empty otherwise — records,
/// namespaces, enums, brace initializers, and control statements all get
/// empty, which tells the extent walk to descend instead of skipping.
std::string FunctionNameOfHead(const std::string& raw_head) {
  std::string head = DropPreprocessorLines(raw_head);
  // A leading template intro (`template <...>`) may itself contain the
  // `class` keyword; peel it before classifying.
  size_t t = FindToken(head, "template");
  if (t != std::string::npos) {
    size_t lt = head.find('<', t);
    if (lt != std::string::npos) {
      size_t gt = MatchDelim(head, lt, '<', '>');
      if (gt != std::string::npos) head = head.substr(gt + 1);
    }
  }
  // First token decides record/namespace heads — `class WHYQ_CAPABILITY(..)
  // Mutex {` carries a parameter-looking macro, so the paren test alone
  // would misread it as a function.
  size_t fb = head.find_first_not_of(" \t\n");
  if (fb != std::string::npos && IsIdentChar(head[fb]) &&
      !(head[fb] >= '0' && head[fb] <= '9')) {
    size_t fe = fb;
    while (fe < head.size() && IsIdentChar(head[fe])) ++fe;
    std::string first = head.substr(fb, fe - fb);
    for (const char* kw : {"class", "struct", "union", "enum", "namespace"}) {
      if (first == kw) return "";
    }
  }
  size_t paren = head.find('(');
  if (paren == std::string::npos || paren == 0) return "";
  size_t end = head.find_last_not_of(" \t\n", paren - 1);
  if (end == std::string::npos || !IsIdentChar(head[end])) return "";
  size_t begin = end;
  while (begin > 0 && IsIdentChar(head[begin - 1])) --begin;
  std::string name = head.substr(begin, end - begin + 1);
  if (name[0] >= '0' && name[0] <= '9') return "";
  for (const char* kw : {"if", "for", "while", "switch", "catch", "return",
                         "do", "else", "new", "delete", "sizeof", "alignof",
                         "decltype", "defined"}) {
    if (name == kw) return "";
  }
  return name;
}

/// Loop regions (for/while/do bodies) inside [begin, end) of `s`, with
/// nesting depth (1 = outermost loop of the function).
void FindLoops(const std::string& s, size_t begin, size_t end,
               std::vector<LoopRegion>* out) {
  for (const char* kw : {"for", "while"}) {
    for (size_t k = FindToken(s, kw, begin);
         k != std::string::npos && k < end; k = FindToken(s, kw, k + 1)) {
      size_t paren = s.find_first_not_of(" \t\n", k + std::strlen(kw));
      if (paren == std::string::npos || paren >= end || s[paren] != '(') {
        continue;
      }
      size_t close = MatchDelim(s, paren, '(', ')');
      if (close == std::string::npos || close >= end) continue;
      size_t body = s.find_first_not_of(" \t\n", close + 1);
      if (body == std::string::npos || body >= end) continue;
      if (s[body] == '{') {
        size_t bclose = MatchDelim(s, body, '{', '}');
        if (bclose == std::string::npos || bclose > end) continue;
        out->push_back({body + 1, bclose, 0});
      } else if (s[body] == ';') {
        continue;  // the `while (...)` terminator of a do-while
      } else {
        size_t semi = s.find(';', body);
        if (semi == std::string::npos || semi > end) continue;
        out->push_back({body, semi, 0});
      }
    }
  }
  for (size_t k = FindToken(s, "do", begin);
       k != std::string::npos && k < end; k = FindToken(s, "do", k + 1)) {
    size_t body = s.find_first_not_of(" \t\n", k + 2);
    if (body == std::string::npos || body >= end || s[body] != '{') continue;
    size_t bclose = MatchDelim(s, body, '{', '}');
    if (bclose == std::string::npos || bclose > end) continue;
    out->push_back({body + 1, bclose, 0});
  }
  for (LoopRegion& l : *out) {
    l.depth = 1;
    for (const LoopRegion& other : *out) {
      if (other.body_begin < l.body_begin && l.body_end < other.body_end) {
        ++l.depth;
      }
    }
  }
  std::sort(out->begin(), out->end(),
            [](const LoopRegion& a, const LoopRegion& b) {
              return a.body_begin < b.body_begin;
            });
}

std::vector<FunctionExtent> ExtractFunctions(const std::string& stripped) {
  std::vector<FunctionExtent> fns;
  size_t stmt_begin = 0;
  for (size_t i = 0; i < stripped.size(); ++i) {
    char c = stripped[i];
    if (c == ';' || c == '}') {
      stmt_begin = i + 1;
      continue;
    }
    if (c != '{') continue;
    std::string head = stripped.substr(stmt_begin, i - stmt_begin);
    std::string name = FunctionNameOfHead(head);
    if (name.empty()) {
      // Record/namespace/initializer: descend and keep classifying.
      stmt_begin = i + 1;
      continue;
    }
    size_t close = MatchDelim(stripped, i, '{', '}');
    if (close == std::string::npos) break;
    FunctionExtent fn;
    fn.name = std::move(name);
    fn.body_begin = i;
    fn.body_end = close;
    FindLoops(stripped, i + 1, close, &fn.loops);
    fns.push_back(std::move(fn));
    i = close;  // a nested lambda/local struct is part of this extent
    stmt_begin = close + 1;
  }
  return fns;
}

/// Invokes `fn(stmt_begin, stmt_end)` for every statement inside the
/// function body [body_begin+1, body_end), split at `;`, `{`, and `}` —
/// the same boundaries the extent walk uses, so block heads (if/for/...)
/// are themselves statements.
template <typename Fn>
void ForEachStatement(const std::string& s, const FunctionExtent& f, Fn fn) {
  size_t stmt_begin = f.body_begin + 1;
  for (size_t i = f.body_begin + 1; i < f.body_end; ++i) {
    char c = s[i];
    if (c == ';' || c == '{' || c == '}') {
      // Trim leading whitespace so reported offsets (and their lines)
      // land on the statement's first token, not the prior boundary.
      size_t first = s.find_first_not_of(" \t\n", stmt_begin);
      if (first != std::string::npos && first < i) fn(first, i);
      stmt_begin = i + 1;
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: epoch-pin
// ---------------------------------------------------------------------------

// Graph accessors whose results borrow epoch-owned storage.
const char* const kBorrowCalls[] = {
    "LabeledOutNeighbors",
    "LabeledInNeighbors",
    "NodesWithLabel",
    "LabeledSlice",
};

// Borrowed view types; a static local of one of these outlives every epoch.
const char* const kBorrowTypes[] = {"NodeSpan", "Column"};

/// Offset of the first top-level assignment `=` in [begin, end) of `s` —
/// skipping `==`, `!=`, `<=`, `>=` and compound assignments — or npos.
size_t FindAssignEq(const std::string& s, size_t begin, size_t end) {
  for (size_t i = begin; i < end; ++i) {
    if (s[i] != '=') continue;
    char prev = i > 0 ? s[i - 1] : '\0';
    char next = i + 1 < end ? s[i + 1] : '\0';
    if (next == '=') {
      ++i;  // ==
      continue;
    }
    if (prev == '=' || prev == '!' || prev == '<' || prev == '>' ||
        prev == '+' || prev == '-' || prev == '*' || prev == '/' ||
        prev == '%' || prev == '&' || prev == '|' || prev == '^') {
      continue;
    }
    return i;
  }
  return std::string::npos;
}

void CheckEpochPin(const std::string& path, const TuModel& model,
                   std::vector<Violation>* out) {
  const std::string& s = model.stripped;
  // A TU whose class keeps the graph alive via a shared_ptr pin may also
  // cache borrowed views next to it — the pin holds the epoch. The repo
  // spells the pin exactly one way (clang-format), so a substring test is
  // exact here.
  bool has_pin = s.find("shared_ptr<const Graph>") != std::string::npos;
  for (const FunctionExtent& fn : model.functions) {
    ForEachStatement(s, fn, [&](size_t begin, size_t end) {
      std::string stmt = s.substr(begin, end - begin);
      bool borrows = false;
      std::string borrow_tok;
      for (const char* t : kBorrowCalls) {
        if (ContainsToken(stmt, t)) {
          borrows = true;
          borrow_tok = t;
          break;
        }
      }
      bool borrow_typed = false;
      for (const char* t : kBorrowTypes) {
        if (ContainsToken(stmt, t)) borrow_typed = true;
      }
      if (ContainsToken(stmt, "static") && (borrows || borrow_typed)) {
        out->push_back(
            {path, LineOfOffset(s, begin), "epoch-pin",
             "static local keeps a borrowed graph view across calls: spans "
             "and columns borrow one epoch's storage, and an update retires "
             "it — re-fetch from the pinned graph instead"});
        return;
      }
      if (!borrows) return;
      size_t eq = FindAssignEq(stmt, 0, stmt.size());
      if (eq == std::string::npos) return;
      if (stmt.find(borrow_tok) < eq) return;  // borrow on the LHS? not ours
      size_t tend = stmt.find_last_not_of(" \t\n", eq - 1);
      if (tend == std::string::npos || !IsIdentChar(stmt[tend])) return;
      size_t tbegin = tend;
      while (tbegin > 0 && IsIdentChar(stmt[tbegin - 1])) --tbegin;
      std::string target = stmt.substr(tbegin, tend - tbegin + 1);
      bool member_store =
          target.back() == '_' ||
          (tbegin >= 6 && stmt.compare(tbegin - 6, 6, "this->") == 0);
      if (member_store && !has_pin) {
        out->push_back(
            {path, LineOfOffset(s, begin), "epoch-pin",
             "storing the result of " + borrow_tok + " into member '" +
                 target +
                 "' without a shared_ptr<const Graph> pin in this TU: the "
                 "borrow dies with its epoch — hold the graph alongside the "
                 "view or re-fetch it per call"});
      }
    });
  }
}

// ---------------------------------------------------------------------------
// Rule: unchecked-status
// ---------------------------------------------------------------------------

// Functions whose return value is a verdict the caller must consume.
const char* const kStatusCalls[] = {
    "TrySubmit",         // SubmitResult: dropping it loses the rejection
    "ApplyUpdate",       // bool: a failed batch left the graph unchanged
    "ApplyUpdateByRebuild",
    "LoadPlanFile",      // bool: the out-plan is garbage on failure
    "WritePlanFile",
    "TryLoad",           // nullptr miss must route to the build path
};

// Status-carrying local types: declared-then-never-read means the verdict
// was materialized and then ignored.
const char* const kStatusTypes[] = {"UpdateResult", "UpdateStatus",
                                    "SubmitResult"};

const char* const kChainKeywords[] = {"return", "if", "while", "for",
                                      "switch", "case", "delete", "throw",
                                      "goto", "else", "do", "new", "co_return"};

/// Parses a leading call chain `ident((::|.|->)ident)*` followed by `(` at
/// the start of [begin, end). Fills `components`; returns true when the
/// statement's first construct is a call.
bool LeadingCallChain(const std::string& s, size_t begin, size_t end,
                      std::vector<std::string>* components) {
  size_t p = s.find_first_not_of(" \t\n", begin);
  if (p == std::string::npos || p >= end) return false;
  if (!IsIdentChar(s[p]) || (s[p] >= '0' && s[p] <= '9')) return false;
  while (true) {
    size_t ib = p;
    while (p < end && IsIdentChar(s[p])) ++p;
    components->push_back(s.substr(ib, p - ib));
    size_t q = s.find_first_not_of(" \t\n", p);
    if (q == std::string::npos || q >= end) return false;
    if (s.compare(q, 2, "::") == 0 || s.compare(q, 2, "->") == 0) {
      p = q + 2;
    } else if (s[q] == '.') {
      p = q + 1;
    } else {
      return s[q] == '(';
    }
    p = s.find_first_not_of(" \t\n", p);
    if (p == std::string::npos || p >= end || !IsIdentChar(s[p])) {
      return false;
    }
  }
}

void CheckUncheckedStatus(const std::string& path, const TuModel& model,
                          std::vector<Violation>* out) {
  const std::string& s = model.stripped;
  for (const FunctionExtent& fn : model.functions) {
    // Part 1: a status-returning call as the head of a discard statement.
    // `(void)Call(...)` starts with '(', assignments start with the target,
    // `if (Call(...))` starts with a keyword — none of those parse as a
    // leading call chain, so they all pass.
    ForEachStatement(s, fn, [&](size_t begin, size_t end) {
      std::vector<std::string> chain;
      if (!LeadingCallChain(s, begin, end, &chain)) return;
      for (const char* kw : kChainKeywords) {
        if (chain.front() == kw) return;
      }
      const std::string& callee = chain.back();
      bool flagged = false;
      for (const char* t : kStatusCalls) {
        if (callee == t) flagged = true;
      }
      // GraphSnapshot's Load/Write names are too generic to ban bare;
      // qualified through the class they are status calls.
      if (!flagged && (callee == "Load" || callee == "Write")) {
        for (const std::string& c : chain) {
          if (c == "GraphSnapshot") flagged = true;
        }
      }
      if (flagged) {
        out->push_back(
            {path, LineOfOffset(s, begin), "unchecked-status",
             "result of " + callee +
                 "() is discarded: consume the verdict (assign or branch "
                 "on it) or document the intent with a (void) cast"});
      }
    });
    // Part 2: a status local declared and never read afterwards.
    ForEachStatement(s, fn, [&](size_t begin, size_t end) {
      std::string stmt = s.substr(begin, end - begin);
      for (const char* type_tok : kStatusTypes) {
        size_t t = FindToken(stmt, type_tok);
        if (t == std::string::npos) continue;
        size_t after = t + std::strlen(type_tok);
        if (after < stmt.size() && stmt[after] == ':') continue;  // Foo::kX
        size_t nb = stmt.find_first_not_of(" \t\n&*", after);
        if (nb == std::string::npos || !IsIdentChar(stmt[nb]) ||
            (stmt[nb] >= '0' && stmt[nb] <= '9')) {
          continue;
        }
        size_t ne = nb;
        while (ne < stmt.size() && IsIdentChar(stmt[ne])) ++ne;
        std::string name = stmt.substr(nb, ne - nb);
        std::string rest = s.substr(end, fn.body_end - end);
        if (FindToken(rest, name) == std::string::npos) {
          out->push_back(
              {path, LineOfOffset(s, begin), "unchecked-status",
               std::string(type_tok) + " '" + name +
                   "' is never read after this declaration: check the "
                   "status it carries or drop the variable"});
        }
      }
    });
  }
}

// ---------------------------------------------------------------------------
// Rule: hot-loop-alloc
// ---------------------------------------------------------------------------

// The per-embedding hot path: Matcher::Extend / Matcher::SearchFrom and the
// MBS enumerator's Recurse/Maximal. Scratch there is pre-sized by the
// caller (assignment slots, conflict counters, the current set's reserve);
// an allocation per iteration would undo that discipline.
const char* const kHotFunctions[] = {"Extend", "SearchFrom", "Recurse",
                                     "Maximal"};

const char* const kAllocTokens[] = {
    "new",          "make_shared", "make_unique", "malloc",
    "calloc",       "realloc",     "push_back",   "emplace_back",
    "emplace",      "insert",      "resize",      "reserve",
    "assign",
};

void CheckHotLoopAlloc(const std::string& path, const TuModel& model,
                       std::vector<Violation>* out) {
  const std::string& s = model.stripped;
  for (const FunctionExtent& fn : model.functions) {
    bool hot = false;
    for (const char* h : kHotFunctions) {
      if (fn.name == h) hot = true;
    }
    if (!hot) continue;
    for (const LoopRegion& loop : fn.loops) {
      if (loop.depth != 1) continue;  // inner loops live inside the outer
      std::string body =
          s.substr(loop.body_begin, loop.body_end - loop.body_begin);
      for (const char* tok : kAllocTokens) {
        size_t k = FindToken(body, tok);
        if (k == std::string::npos) continue;
        out->push_back(
            {path, LineOfOffset(s, loop.body_begin + k), "hot-loop-alloc",
             std::string("'") + tok + "' inside a loop of hot function " +
                 fn.name +
                 "(): the match/verification hot path must not allocate or "
                 "grow containers per iteration — pre-size scratch outside "
                 "the loop"});
      }
    }
  }
}

bool ReadFile(const std::filesystem::path& p, std::string* out) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

}  // namespace

TuModel BuildTuModel(const std::string& contents) {
  TuModel model;
  model.stripped = StripCommentsAndStrings(contents);
  model.functions = ExtractFunctions(model.stripped);
  return model;
}

std::vector<Violation> LintFile(const std::string& path,
                                const std::string& contents) {
  std::vector<Violation> out;
  std::string stripped = StripCommentsAndStrings(contents);

  bool in_src = StartsWith(path, "src/");
  bool is_header = EndsWith(path, ".h");

  if (StartsWith(path, "src/why/") || StartsWith(path, "src/matcher/")) {
    CheckCancelPolling(path, stripped, &out);
  }
  if (!StartsWith(path, "src/common/rng.")) {
    CheckDeterminism(path, stripped, &out);
  }
  if (in_src && path != "src/common/check.h") {
    // check.h is the WHYQ_CHECK abort path: the one sanctioned stderr
    // write, immediately followed by std::abort().
    CheckOutputChannel(path, stripped, &out);
  }
  if (in_src && !StartsWith(path, "src/graph/")) {
    CheckNodeSpanMembers(path, stripped, &out);
  }
  bool graph_core = path == "src/graph/graph.h" ||
                    path == "src/graph/graph.cc" ||
                    path == "src/graph/update.cc" ||
                    path == "src/graph/snapshot.cc";
  if (in_src && !graph_core) {
    CheckGraphMutation(path, stripped, &out);
  }
  for (const LimitsRule& limits : kLimitsRules) {
    if (StartsWith(path, limits.prefix) && path != limits.header) {
      CheckLimitLiterals(path, stripped, limits, &out);
    }
  }
  if (is_header && (in_src || StartsWith(path, "tools/"))) {
    CheckHeaderGuard(path, stripped, &out);
  }

  // v2 flow-sensitive rules share one per-TU model.
  TuModel model;
  model.stripped = stripped;
  model.functions = ExtractFunctions(stripped);
  CheckUncheckedStatus(path, model, &out);
  if (in_src && !StartsWith(path, "src/graph/")) {
    CheckEpochPin(path, model, &out);
  }
  if (StartsWith(path, "src/why/") || StartsWith(path, "src/matcher/")) {
    CheckHotLoopAlloc(path, model, &out);
  }
  return out;
}

std::vector<Violation> LintTree(const std::string& root, std::string* error) {
  namespace fs = std::filesystem;
  std::vector<Violation> out;
  std::vector<std::string> files;
  for (const char* dir : {"src", "tools", "bench", "examples", "tests"}) {
    fs::path base = fs::path(root) / dir;
    if (!fs::exists(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      std::string rel =
          fs::relative(entry.path(), fs::path(root)).generic_string();
      if (rel.find("lint_fixtures") != std::string::npos) continue;
      if (!EndsWith(rel, ".h") && !EndsWith(rel, ".cc") &&
          !EndsWith(rel, ".cpp")) {
        continue;
      }
      files.push_back(rel);
    }
  }
  std::sort(files.begin(), files.end());
  for (const std::string& rel : files) {
    std::string contents;
    if (!ReadFile(fs::path(root) / rel, &contents)) {
      if (error != nullptr) *error = "cannot read " + rel;
      return out;
    }
    std::vector<Violation> v = LintFile(rel, contents);
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

}  // namespace whyq::lint
