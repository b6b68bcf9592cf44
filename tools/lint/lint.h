#ifndef WHYQ_TOOLS_LINT_LINT_H_
#define WHYQ_TOOLS_LINT_LINT_H_

#include <string>
#include <vector>

// whyq-lint: a token/structure-level checker for the repo-specific
// invariants clang-tidy cannot express (see docs/ARCHITECTURE.md
// "Static analysis" for each rule's rationale and origin):
//
//   cancel-poll      hot loops in src/why/ and src/matcher/ that perform
//                    MBS enumeration, greedy rounds, or per-root
//                    verification must poll the CancelToken in the loop.
//   determinism      no std::rand/srand/std::random_device/time(nullptr)
//                    outside src/common/rng.* — all randomness flows
//                    through the seeded whyq::Rng.
//   output-channel   no std::cout/std::cerr/printf-family output in
//                    library code under src/ (metrics and traces are the
//                    only output channel; CLI/tools/bench are exempt).
//   nodespan-member  no class outside src/graph/ may store a borrowed
//                    NodeSpan as a data member.
//   graph-mutation   no reference to the Graph's derived-storage members
//                    (label buckets, adjacency runs, attribute indexes)
//                    outside the graph core: GraphBuilder (graph.cc),
//                    GraphUpdater (src/graph/update.cc) and the snapshot
//                    codec are the only writers, so every structure
//                    mutation flows through Build or ApplyUpdate and the
//                    incremental-vs-rebuild equivalence tests cover it.
//   header-guard     every header under src/ carries the canonical
//                    WHYQ_<PATH>_H_ include guard (the companion
//                    one-TU-per-header compile check proves
//                    self-containment at build time).
//   server-limits    no decimal integer literal >= 64 under src/server/
//                    outside limits.h — every hard limit of the daemon
//                    (byte caps, connection caps, timeouts) lives in the
//                    centralized limits header with a provenance comment.
//                    Hex/binary literals are exempt (bit masks and UTF-8
//                    thresholds, not capacity knobs).
//   snapshot-limits  the same pigeonhole for the on-disk snapshot format:
//                    no decimal integer literal >= 64 in the snapshot
//                    layer outside src/graph/snapshot.h — alignment,
//                    section counts, and hash parameters live in the one
//                    header docs/SNAPSHOT_FORMAT.md is checked against.
//   plan-limits      the same pigeonhole for the on-disk compiled-plan
//                    format: no decimal integer literal >= 64 in the plan
//                    layer outside src/service/plan.h — alignment, section
//                    counts, size caps, and the store byte budget live in
//                    the one header docs/PLAN_FORMAT.md is checked against.
//   epoch-pin        (flow-sensitive) a borrowed graph view — the result
//                    of LabeledOutNeighbors / LabeledInNeighbors /
//                    NodesWithLabel / LabeledSlice — must not be stored
//                    into state that outlives the function (a `_`-suffixed
//                    member, a static local) unless the TU keeps a
//                    shared_ptr<const Graph> pin holding the epoch alive.
//                    Complements nodespan-member: that rule bans the
//                    member *declaration*, this one catches the *store*
//                    even through auto/aliased types.
//   unchecked-status (flow-sensitive) status results must be consumed:
//                    TrySubmit verdicts, ApplyUpdate(ByRebuild) success,
//                    LoadPlanFile/WritePlanFile/TryLoad outcomes and
//                    GraphSnapshot::Load/Write results may not head a
//                    discard statement (use a (void) cast to document a
//                    deliberate drop), and a local UpdateResult /
//                    UpdateStatus / SubmitResult must be read after its
//                    declaration.
//   hot-loop-alloc   (flow-sensitive) no allocation or container growth
//                    (new / make_shared / make_unique / malloc /
//                    push_back / resize / ...) inside the loops of the
//                    match/verification hot path — Matcher::Extend,
//                    Matcher::SearchFrom, the MBS enumerator's
//                    Recurse/Maximal — whose scratch is pre-sized by the
//                    caller.
//
// The linter deliberately avoids libclang: it lexes comments/strings away
// and works on the token stream plus brace structure, which is exact for
// the rules above and keeps the checker dependency-free and fast. The
// three flow-sensitive rules ride on a lightweight per-TU model (function
// extents, loop regions with nesting, statement structure) built from the
// same stripped stream — see BuildTuModel below.

namespace whyq::lint {

struct Violation {
  std::string file;  // repo-relative path
  int line = 0;      // 1-based
  std::string rule;  // stable rule id, e.g. "determinism"
  std::string message;
};

/// Replaces //- and /*-comments, string literals, and char literals with
/// spaces, preserving byte offsets and line structure so reported line
/// numbers match the original file. Raw strings are handled; escaped
/// quotes inside literals do not terminate them.
std::string StripCommentsAndStrings(const std::string& src);

/// One loop body inside a function: [body_begin, body_end) brackets the
/// statements between the loop's braces (or the single statement of a
/// braceless loop). depth is 1 for an outermost loop of its function.
struct LoopRegion {
  size_t body_begin = 0;
  size_t body_end = 0;
  int depth = 1;
};

/// One function definition: name is unqualified (`Extend` for
/// Matcher::Extend), [body_begin, body_end] brackets the braces, and
/// `loops` lists every loop region inside the body (including loops of
/// nested lambdas — they run as part of this function).
struct FunctionExtent {
  std::string name;
  size_t body_begin = 0;
  size_t body_end = 0;
  std::vector<LoopRegion> loops;
};

/// The per-TU statement/CFG model the flow-sensitive rules share: the
/// stripped source plus every function extent. Deliberately not a C++
/// parser — exact for this repo's clang-formatted style, conservative
/// (no extent, no findings) elsewhere.
struct TuModel {
  std::string stripped;
  std::vector<FunctionExtent> functions;
};

TuModel BuildTuModel(const std::string& contents);

/// Runs every per-file rule applicable to `path` (a repo-relative path —
/// rule applicability is derived from it) over `contents`. Used both by
/// the CLI (real files) and the fixture tests (fixture contents checked
/// under a virtual path).
std::vector<Violation> LintFile(const std::string& path,
                                const std::string& contents);

/// Scans the real tree rooted at `root`: per-file rules over src/, tools/,
/// bench/, examples/, and tests/ (fixtures excluded). Returns all
/// violations; `error` is set when a file cannot be read.
std::vector<Violation> LintTree(const std::string& root, std::string* error);

}  // namespace whyq::lint

#endif  // WHYQ_TOOLS_LINT_LINT_H_
