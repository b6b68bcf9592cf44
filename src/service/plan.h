#ifndef WHYQ_SERVICE_PLAN_H_
#define WHYQ_SERVICE_PLAN_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/image.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "graph/snapshot.h"
#include "graph/update.h"
#include "matcher/path_index.h"
#include "service/prepared.h"

// Persistent compiled query plans: everything PrepareQuery produces for one
// (query, semantics, max_paths) triple — the canonical query text, the
// answer set Q(u_o, G), the output-candidate set, the sampled PathIndex and
// the SymbolFootprint — serialized into one relocatable common/image.h
// image, stamped with the source graph's fingerprint and
// identity@generation. The full byte-level contract lives in
// docs/PLAN_FORMAT.md; this header is the single source of truth for every
// constant of the format (whyq-lint rule "plan-limits" forbids numeric
// limits anywhere else in the plan layer), and the struct declarations
// below are what the documentation's field tables are checked against
// (tools/check_docs.sh).

namespace whyq {

/// Format constants. Bump kPlanVersion on ANY layout change — the loader
/// rejects files whose version, header size, or section count do not match
/// exactly (no in-place migration; a plan is a cache of PrepareQuery
/// output, and the rebuild it caches is always available).
inline constexpr char kPlanMagic[8] = {'W', 'H', 'Y', 'Q', 'P', 'L', 'N', '1'};
inline constexpr uint32_t kPlanVersion = 1;
// Payload alignment: the container's (common/image.h).
inline constexpr uint32_t kPlanSectionAlign = kImageSectionAlign;
// Number of sections in a version-1 plan (one per PlanSectionId).
inline constexpr uint32_t kPlanSectionCount = 9;
// A plan file larger than this is rejected unread — no legitimate prepared
// artifact comes close, and the cap bounds what a hostile header can make
// the loader allocate.
inline constexpr uint64_t kPlanMaxFileBytes = 1ull << 30;
// Default PlanStore byte budget (sum of plan file sizes before LRU file
// eviction kicks in).
inline constexpr uint64_t kPlanStoreDefaultBudget = 256ull << 20;
// Default cap on the number of plans a boot-time warm pass will load.
inline constexpr size_t kPlanWarmLoadDefault = 256;

/// The container header with the plan's three format words: the stamp.
struct PlanHeader {
  WHYQ_IMAGE_HEADER(graph_fingerprint,  // GraphFingerprint of the source
                    graph_identity,     // Graph::identity() at build time
                    graph_generation)   // Graph::generation() at build time
};

/// Section ids, in file order (the ids of the container's section table).
enum PlanSectionId : uint32_t {
  kPlanSecMeta = 0,          // one PlanMeta row
  kPlanSecQueryText = 1,     // canonical WriteQuery text, raw bytes
  kPlanSecAnswers = 2,       // NodeId x answer_count
  kPlanSecCandidates = 3,    // NodeId x candidate_count
  kPlanSecPathRange = 4,     // uint64_t x (path_count + 1), CSR offsets
  kPlanSecSteps = 5,         // PlanStep x step_count
  kPlanSecFpNodeLabels = 6,  // SymbolId rows (footprint, sorted unique)
  kPlanSecFpEdgeLabels = 7,  // SymbolId rows
  kPlanSecFpAttrs = 8,       // SymbolId rows
};

/// One entry of the section table.
using PlanSection = ImageSection;

/// Fixed-size metadata row (section kPlanSecMeta). The counts must agree
/// with the section table's byte sizes — the loader cross-checks both.
struct PlanMeta {
  uint32_t semantics;  // MatchSemantics as its enum value
  uint32_t reserved;   // written as zero
  uint64_t max_paths;  // the PathIndex sampling bound the plan was built with
  uint64_t query_bytes;      // == kPlanSecQueryText payload size
  uint64_t answer_count;     // rows in kPlanSecAnswers
  uint64_t candidate_count;  // rows in kPlanSecCandidates
  uint64_t path_count;       // rows in kPlanSecPathRange minus one
  uint64_t step_count;       // rows in kPlanSecSteps
};

/// One PathIndex step flattened to a fixed 16-byte row (PathIndex::Step
/// stores a bool; on disk `forward` must be exactly 0 or 1).
struct PlanStep {
  uint32_t from;        // QNodeId
  uint32_t to;          // QNodeId
  uint32_t edge_label;  // SymbolId
  uint32_t forward;     // 0 or 1
};

/// The graph epoch a plan was compiled against. `fingerprint` is the
/// logical content hash (relocation key: any graph with equal content may
/// serve the plan); identity@generation pins the live epoch so a restamp
/// bug or fingerprint collision can never resurrect a stale plan.
struct PlanStamp {
  uint64_t fingerprint = 0;
  uint64_t identity = 0;
  uint64_t generation = 0;
};

/// In-memory image of one plan file: exactly what PrepareQuery produced,
/// with the query in canonical text form (re-parsed against the target
/// graph on load — fingerprint equality guarantees the identical symbol
/// space, so ids round-trip).
struct CompiledPlan {
  std::string query_text;  // canonical WriteQuery serialization
  MatchSemantics semantics = MatchSemantics::kIsomorphism;
  uint64_t max_paths = 0;
  std::vector<NodeId> answers;
  std::vector<NodeId> output_candidates;
  std::vector<std::vector<PathIndex::Step>> paths;
  SymbolFootprint footprint;
};

/// The fingerprint plans of `g` are stamped with and looked up by: frozen
/// (snapshot-backed) graphs already carry the content hash as identity();
/// heap graphs pay one GraphFingerprint pass.
uint64_t PlanFingerprint(const Graph& g);

/// Flattens a PreparedQuery built over `g` (plus the canonical text its
/// cache key was derived from and the max_paths it was built with) into a
/// writable plan. The output candidates, which the PreparedQuery does not
/// keep, are rebuilt by one MatchContext lookup of u_o over `g`, whose
/// literal bitmaps the epoch's store already holds from the prepare.
CompiledPlan PlanFromPrepared(const PreparedQuery& prepared, const Graph& g,
                              std::string query_text, uint64_t max_paths);

/// Serializes `plan` + `stamp` into `path` (PublishFile, durable: an
/// fsynced temp file renamed into place). Returns false with `*error` set
/// on I/O failure; `*file_bytes` (optional) receives the file size.
bool WritePlanFile(const CompiledPlan& plan, const PlanStamp& stamp,
                   const std::string& path, std::string* error,
                   uint64_t* file_bytes = nullptr);

/// Reads and fully validates a plan file: magic/version/endian, header
/// geometry, section table, checksum, meta/section cross-checks and
/// structural invariants. Returns false with `*error` set on any failure —
/// a file that fails here must be discarded, never partially trusted.
/// `absent` (optional) is set to whether the failure is that no file exists
/// at `path` (ENOENT at open): a file that is gone, not one that is bad.
bool LoadPlanFile(const std::string& path, CompiledPlan* out,
                  PlanStamp* stamp, std::string* error,
                  bool* absent = nullptr);

/// Reads `src`, validates it, rewrites its stamp to `new_stamp` (with the
/// payload checksum recomputed) and writes the result to `dst` like
/// WritePlanFile. Used when ApplyDelta proves a plan's artifacts survive an
/// update verbatim: the file is carried to the new epoch without
/// re-preparation.
bool RestampPlanFile(const std::string& src, const std::string& dst,
                     const PlanStamp& new_stamp, std::string* error,
                     uint64_t* file_bytes = nullptr);

/// Rebuilds a ready-to-serve PreparedQuery from a loaded plan, validating
/// every id against `g` (query round-trip, answer/candidate node ids, step
/// node ids, footprint recomputation). Returns null with `*error` set if
/// the plan does not describe a coherent artifact for `g`.
std::shared_ptr<const PreparedQuery> PreparedFromPlan(const CompiledPlan& plan,
                                                      const Graph& g,
                                                      std::string* error);

/// Content address of a plan in the store: FNV-1a over a fixed seed, the
/// graph fingerprint and the epoch-free cache-key body
/// (PreparedQueryKeyBody). Distinct epochs of one graph hash to distinct
/// files; equal-content graphs share them.
uint64_t PlanKeyHash(uint64_t graph_fingerprint, const std::string& key_body);

/// The store filename for a key hash: 16 lowercase hex digits + ".plan".
std::string PlanFileName(uint64_t key_hash);

/// A bounded directory of plan files, content-addressed by PlanKeyHash.
///
/// All file mutations (saves, restamps, deletes, evictions) run on one
/// background writer thread, keeping them off the request critical path and
/// trivially race-free with each other; TryLoad reads concurrently —
/// open-then-read is safe against a racing unlink, and a file that
/// disappears mid-probe is simply a miss. Counters are lock-free, exported
/// into StatsSnapshot by the owning service.
///
/// Thread-safety: every public method may be called from any thread.
class PlanStore {
 public:
  /// Rows and meanings: WHYQ_PLAN_STORE_COUNTERS (common/stats_fields.h).
  struct Counters {
    WHYQ_PLAN_STORE_COUNTERS(WHYQ_STATS_U64)
  };

  /// Opens (creating if needed) `dir` and indexes its existing *.plan
  /// files; recency is seeded from file mtimes.
  explicit PlanStore(std::string dir,
                     uint64_t byte_budget = kPlanStoreDefaultBudget);
  ~PlanStore();

  PlanStore(const PlanStore&) = delete;
  PlanStore& operator=(const PlanStore&) = delete;

  const std::string& dir() const { return dir_; }
  uint64_t byte_budget() const { return byte_budget_; }

  /// Looks up the plan for (`graph_fp`, the key body of `semantics` /
  /// `max_paths` / `canonical_text`), validates it against `g`, and
  /// returns a ready PreparedQuery — or null (a miss). A file that fails
  /// validation or echoes back different key fields (hash-collision
  /// defense) is deleted and counted invalid; the probe is still a miss.
  /// An indexed file that is gone at open (a racing eviction) is a miss
  /// and not invalid.
  std::shared_ptr<const PreparedQuery> TryLoad(
      const Graph& g, uint64_t graph_fp, MatchSemantics semantics,
      size_t max_paths, const std::string& canonical_text)
      WHYQ_EXCLUDES(mu_, queue_mu_);

  /// Enqueues a completed build over `graph` for persistence (no-op if the
  /// store already holds a file for its key). Returns immediately; the
  /// write happens on the writer thread, which holds the graph pinned until
  /// it has rebuilt the plan's candidate list (PlanFromPrepared).
  void SaveAsync(std::shared_ptr<const Graph> graph,
                 std::shared_ptr<const PreparedQuery> prepared,
                 std::string query_text, uint64_t max_paths, PlanStamp stamp)
      WHYQ_EXCLUDES(queue_mu_);

  /// Boot-time warm pass: loads up to `max_plans` stored plans matching
  /// `graph_fp` (most recent first) straight into `cache` under `g`'s
  /// current epoch keys. Corrupt files are deleted and counted invalid;
  /// plans for other graphs are skipped silently. Warm loads touch
  /// neither `hits` nor `misses`. Returns the number of plans loaded.
  size_t WarmLoad(const Graph& g, uint64_t graph_fp, size_t max_plans,
                  PreparedQueryCache* cache) WHYQ_EXCLUDES(mu_, queue_mu_);

  /// Applies a graph update's cache verdicts to the store, on the writer
  /// thread: plans whose footprint intersected the delta (`dropped_bodies`)
  /// are deleted (counted invalid — their epoch is gone); provably
  /// unaffected plans (`rekeyed_bodies`) are restamped from their
  /// `old_fp`-addressed file to the `new_stamp` address.
  void OnUpdate(uint64_t old_fp, PlanStamp new_stamp,
                std::vector<std::string> dropped_bodies,
                std::vector<std::string> rekeyed_bodies)
      WHYQ_EXCLUDES(queue_mu_);

  /// Blocks until every previously enqueued writer task has completed.
  void Flush() WHYQ_EXCLUDES(queue_mu_);

  Counters counters() const;

  /// Files currently indexed (tests/bench).
  size_t file_count() const WHYQ_EXCLUDES(mu_);
  /// Sum of indexed file sizes in bytes.
  uint64_t stored_bytes() const WHYQ_EXCLUDES(mu_);

 private:
  struct FileInfo {
    uint64_t bytes = 0;
    uint64_t use_seq = 0;  // higher = more recently used
  };

  void WriterMain() WHYQ_EXCLUDES(queue_mu_);
  void Enqueue(std::function<void()> task) WHYQ_EXCLUDES(queue_mu_);
  // Writer-thread helpers (index mutations under mu_).
  void IndexInsert(const std::string& name, uint64_t bytes)
      WHYQ_EXCLUDES(mu_);
  void IndexErase(const std::string& name) WHYQ_EXCLUDES(mu_);
  void EvictOverBudget() WHYQ_EXCLUDES(mu_);
  void DeleteFile(const std::string& name, bool count_invalid)
      WHYQ_EXCLUDES(mu_);
  /// The least-recently-used indexed file, or "" when the store is within
  /// budget (or empty) and eviction should stop. Caller holds mu_.
  std::string PickEvictionVictimLocked() const WHYQ_REQUIRES(mu_);

  const std::string dir_;
  const uint64_t byte_budget_;

  mutable Mutex mu_;  // guards the file index and its aggregates
  std::unordered_map<std::string, FileInfo> index_ WHYQ_GUARDED_BY(mu_);
  uint64_t total_bytes_ WHYQ_GUARDED_BY(mu_) = 0;
  uint64_t use_counter_ WHYQ_GUARDED_BY(mu_) = 0;

  WHYQ_PLAN_STORE_COUNTERS(WHYQ_STATS_COUNTER)

  Mutex queue_mu_;
  CondVar queue_cv_;
  CondVar idle_cv_;
  std::deque<std::function<void()>> queue_ WHYQ_GUARDED_BY(queue_mu_);
  bool writer_busy_ WHYQ_GUARDED_BY(queue_mu_) = false;
  bool stop_ WHYQ_GUARDED_BY(queue_mu_) = false;
  std::thread writer_;
};

}  // namespace whyq

#endif  // WHYQ_SERVICE_PLAN_H_
