#include "service/plan.h"

#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

#include "matcher/match_context.h"
#include "query/query_parser.h"

namespace whyq {

namespace {

constexpr ImageFormat kPlanImage{"plan", kPlanMagic, kPlanVersion,
                                 kPlanSectionCount};

bool StrictlyIncreasing(const ImageRegion& r) {
  if (!r.RowAligned<SymbolId>()) return false;
  const SymbolId* rows = r.Rows<SymbolId>();
  size_t count = r.RowCount<SymbolId>();
  for (size_t i = 1; i < count; ++i) {
    if (rows[i] <= rows[i - 1]) return false;
  }
  return true;
}

std::vector<SymbolId> SymbolRows(const ImageRegion& r) {
  return std::vector<SymbolId>(r.Rows<SymbolId>(),
                               r.Rows<SymbolId>() + r.RowCount<SymbolId>());
}

}  // namespace

uint64_t PlanFingerprint(const Graph& g) {
  return g.frozen() ? g.identity() : GraphFingerprint(g);
}

CompiledPlan PlanFromPrepared(const PreparedQuery& prepared, const Graph& g,
                              std::string query_text, uint64_t max_paths) {
  CompiledPlan plan;
  plan.query_text = std::move(query_text);
  plan.semantics = prepared.semantics;
  plan.max_paths = max_paths;
  plan.answers = prepared.answers;
  MatchContext ctx(g);
  NodeSpan candidates =
      ctx.Lookup(prepared.query.node(prepared.query.output())).list();
  plan.output_candidates.assign(candidates.begin(), candidates.end());
  plan.paths = prepared.path_index.paths();
  plan.footprint = prepared.footprint;
  return plan;
}

bool WritePlanFile(const CompiledPlan& plan, const PlanStamp& stamp,
                   const std::string& path, std::string* error,
                   uint64_t* file_bytes) {
  // Flatten the PathIndex into a CSR offset array + step rows.
  std::vector<uint64_t> path_range;
  std::vector<PlanStep> steps;
  path_range.reserve(plan.paths.size() + 1);
  path_range.push_back(0);
  for (const auto& p : plan.paths) {
    for (const PathIndex::Step& s : p) {
      steps.push_back(PlanStep{s.from, s.to, s.edge_label,
                               s.forward ? uint32_t{1} : uint32_t{0}});
    }
    path_range.push_back(steps.size());
  }

  PlanMeta meta{};
  meta.semantics = static_cast<uint32_t>(plan.semantics);
  meta.max_paths = plan.max_paths;
  meta.query_bytes = plan.query_text.size();
  meta.answer_count = plan.answers.size();
  meta.candidate_count = plan.output_candidates.size();
  meta.path_count = plan.paths.size();
  meta.step_count = steps.size();

  ImageRegion sec[kPlanSectionCount];
  sec[kPlanSecMeta] = ImageRegion(&meta, sizeof(meta));
  sec[kPlanSecQueryText] = ImageRegion::Of(plan.query_text);
  sec[kPlanSecAnswers] = ImageRegion::Of(plan.answers);
  sec[kPlanSecCandidates] = ImageRegion::Of(plan.output_candidates);
  sec[kPlanSecPathRange] = ImageRegion::Of(path_range);
  sec[kPlanSecSteps] = ImageRegion::Of(steps);
  sec[kPlanSecFpNodeLabels] = ImageRegion::Of(plan.footprint.node_labels);
  sec[kPlanSecFpEdgeLabels] = ImageRegion::Of(plan.footprint.edge_labels);
  sec[kPlanSecFpAttrs] = ImageRegion::Of(plan.footprint.attrs);
  const uint64_t words[kImageFormatWords] = {stamp.fingerprint, stamp.identity,
                                             stamp.generation};
  return WriteImage(kPlanImage, words, sec, path, file_bytes, error);
}

bool LoadPlanFile(const std::string& path, CompiledPlan* out,
                  PlanStamp* stamp, std::string* error, bool* absent) {
  size_t size = 0;
  UniqueFd fd = OpenImage(kPlanImage, path, &size, absent, error);
  if (!fd.valid()) return false;
  if (size > kPlanMaxFileBytes) {
    return ImageFail(error, "plan: file exceeds kPlanMaxFileBytes: " + path);
  }
  // Read into a uint64_t buffer so every row type's alignment holds.
  std::vector<uint64_t> buf((size + sizeof(uint64_t) - 1) / sizeof(uint64_t),
                            0);
  if (::read(fd.get(), buf.data(), size) != static_cast<ssize_t>(size)) {
    return ImageFail(error, "plan: short read from " + path);
  }
  ImageRegion sec[kPlanSectionCount];
  if (!ValidateImage(kPlanImage, buf.data(), size, path, sec, error)) {
    return false;
  }
  PlanHeader hdr;
  std::memcpy(&hdr, buf.data(), sizeof(hdr));

  // Meta row, then cross-check every count against the section table.
  if (sec[kPlanSecMeta].bytes != sizeof(PlanMeta)) {
    return ImageFail(error, "plan: meta section size mismatch");
  }
  PlanMeta meta{};
  std::memcpy(&meta, sec[kPlanSecMeta].data, sizeof(meta));
  if (meta.semantics > static_cast<uint32_t>(MatchSemantics::kSimulation)) {
    return ImageFail(error, "plan: unknown semantics " +
                                std::to_string(meta.semantics));
  }
  if (meta.query_bytes != sec[kPlanSecQueryText].bytes) {
    return ImageFail(error, "plan: query text size mismatch");
  }
  if (!sec[kPlanSecAnswers].Holds<NodeId>(meta.answer_count)) {
    return ImageFail(error, "plan: answer column size mismatch");
  }
  if (!sec[kPlanSecCandidates].Holds<NodeId>(meta.candidate_count)) {
    return ImageFail(error, "plan: candidate column size mismatch");
  }
  if (!sec[kPlanSecSteps].Holds<PlanStep>(meta.step_count)) {
    return ImageFail(error, "plan: step column size mismatch");
  }
  const ImageRegion& ranges = sec[kPlanSecPathRange];
  if (!ranges.IsOffsetColumn(meta.path_count + 1, meta.step_count)) {
    return ImageFail(error,
                     "plan: path offsets are not path_count + 1 monotonic "
                     "offsets from 0 to step_count");
  }
  const uint64_t* range = ranges.Rows<uint64_t>();
  const PlanStep* steps = sec[kPlanSecSteps].Rows<PlanStep>();
  for (size_t i = 0; i < meta.step_count; ++i) {
    if (steps[i].forward > 1) {
      return ImageFail(error, "plan: step direction flag out of range");
    }
  }
  if (!StrictlyIncreasing(sec[kPlanSecFpNodeLabels]) ||
      !StrictlyIncreasing(sec[kPlanSecFpEdgeLabels]) ||
      !StrictlyIncreasing(sec[kPlanSecFpAttrs])) {
    return ImageFail(error, "plan: footprint sections not sorted unique");
  }

  out->query_text.assign(
      reinterpret_cast<const char*>(sec[kPlanSecQueryText].data),
      sec[kPlanSecQueryText].bytes);
  out->semantics = static_cast<MatchSemantics>(meta.semantics);
  out->max_paths = meta.max_paths;
  out->answers.assign(sec[kPlanSecAnswers].Rows<NodeId>(),
                      sec[kPlanSecAnswers].Rows<NodeId>() + meta.answer_count);
  out->output_candidates.assign(
      sec[kPlanSecCandidates].Rows<NodeId>(),
      sec[kPlanSecCandidates].Rows<NodeId>() + meta.candidate_count);
  out->paths.clear();
  out->paths.reserve(meta.path_count);
  for (size_t p = 0; p < meta.path_count; ++p) {
    std::vector<PathIndex::Step> one;
    one.reserve(range[p + 1] - range[p]);
    for (uint64_t i = range[p]; i < range[p + 1]; ++i) {
      PathIndex::Step s;
      s.from = steps[i].from;
      s.to = steps[i].to;
      s.edge_label = steps[i].edge_label;
      s.forward = steps[i].forward != 0;
      one.push_back(s);
    }
    out->paths.push_back(std::move(one));
  }
  out->footprint.node_labels = SymbolRows(sec[kPlanSecFpNodeLabels]);
  out->footprint.edge_labels = SymbolRows(sec[kPlanSecFpEdgeLabels]);
  out->footprint.attrs = SymbolRows(sec[kPlanSecFpAttrs]);
  if (stamp != nullptr) {
    stamp->fingerprint = hdr.graph_fingerprint;
    stamp->identity = hdr.graph_identity;
    stamp->generation = hdr.graph_generation;
  }
  return true;
}

bool RestampPlanFile(const std::string& src, const std::string& dst,
                     const PlanStamp& new_stamp, std::string* error,
                     uint64_t* file_bytes) {
  // Full decode + re-encode: the source is validated end to end (a corrupt
  // plan is never carried to a new epoch), and the deterministic writer
  // reproduces the identical payload bytes under the new stamp.
  CompiledPlan plan;
  PlanStamp old_stamp;
  if (!LoadPlanFile(src, &plan, &old_stamp, error)) return false;
  return WritePlanFile(plan, new_stamp, dst, error, file_bytes);
}

std::shared_ptr<const PreparedQuery> PreparedFromPlan(const CompiledPlan& plan,
                                                      const Graph& g,
                                                      std::string* error) {
  auto fail = [error](std::string msg) {
    if (error != nullptr) *error = std::move(msg);
    return std::shared_ptr<const PreparedQuery>();
  };
  std::string parse_error;
  std::optional<Query> q = ParseQuery(plan.query_text, g, &parse_error);
  if (!q.has_value()) {
    return fail("plan: stored query does not parse: " + parse_error);
  }
  // Canonical round-trip: the stored text must be WriteQuery's own output,
  // or the plan was addressed under a key it cannot serve.
  if (WriteQuery(*q, g) != plan.query_text) {
    return fail("plan: stored query text is not canonical");
  }
  for (NodeId v : plan.answers) {
    if (v >= g.node_count()) return fail("plan: answer node out of range");
  }
  for (NodeId v : plan.output_candidates) {
    if (v >= g.node_count()) return fail("plan: candidate node out of range");
  }
  for (const auto& path : plan.paths) {
    for (const PathIndex::Step& s : path) {
      if (s.from >= q->node_count() || s.to >= q->node_count()) {
        return fail("plan: path step references a missing query node");
      }
    }
  }
  // The footprint drives update invalidation; a mismatch against the
  // freshly parsed query means the plan cannot be trusted to invalidate
  // correctly, so it is rejected rather than patched.
  SymbolFootprint fresh = FootprintOfQuery(*q);
  if (fresh.node_labels != plan.footprint.node_labels ||
      fresh.edge_labels != plan.footprint.edge_labels ||
      fresh.attrs != plan.footprint.attrs) {
    return fail("plan: stored footprint disagrees with the query");
  }
  return std::make_shared<const PreparedQuery>(
      std::move(*q), plan.semantics, plan.answers,
      plan.output_candidates.size(), PathIndex::FromPaths(plan.paths), fresh);
}

uint64_t PlanKeyHash(uint64_t graph_fingerprint,
                     const std::string& key_body) {
  Fnv f;
  f.Str("whyq.plan.key.v1");
  f.U64(graph_fingerprint);
  f.Str(key_body);
  return f.h;
}

std::string PlanFileName(uint64_t key_hash) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx.plan",
                static_cast<unsigned long long>(key_hash));
  return std::string(buf);
}

PlanStore::PlanStore(std::string dir, uint64_t byte_budget)
    : dir_(std::move(dir)), byte_budget_(byte_budget) {
  ::mkdir(dir_.c_str(),
          S_IRWXU | S_IRGRP | S_IXGRP | S_IROTH | S_IXOTH);
  // Index the surviving files of a previous process; mtime order seeds the
  // LRU recency so eviction starts from the genuinely oldest plans.
  struct Found {
    std::string name;
    uint64_t bytes = 0;
    int64_t mtime = 0;
  };
  std::vector<Found> found;
  if (DIR* d = ::opendir(dir_.c_str())) {
    while (const struct dirent* e = ::readdir(d)) {
      std::string name = e->d_name;
      const std::string suffix = ".plan";
      if (name.size() != PlanFileName(0).size() ||
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
              0) {
        continue;
      }
      struct stat st{};
      if (::stat((dir_ + "/" + name).c_str(), &st) != 0 ||
          !S_ISREG(st.st_mode)) {
        continue;
      }
      found.push_back(Found{std::move(name),
                            static_cast<uint64_t>(st.st_size),
                            static_cast<int64_t>(st.st_mtime)});
    }
    ::closedir(d);
  }
  std::sort(found.begin(), found.end(), [](const Found& a, const Found& b) {
    return a.mtime != b.mtime ? a.mtime < b.mtime : a.name < b.name;
  });
  for (Found& f : found) {
    index_[f.name] = FileInfo{f.bytes, ++use_counter_};
    total_bytes_ += f.bytes;
  }
  writer_ = std::thread([this] { WriterMain(); });
}

PlanStore::~PlanStore() {
  {
    MutexLock lock(queue_mu_);
    stop_ = true;
  }
  queue_cv_.NotifyAll();
  writer_.join();
}

void PlanStore::WriterMain() {
  MutexLock lock(queue_mu_);
  for (;;) {
    while (!stop_ && queue_.empty()) queue_cv_.Wait(queue_mu_);
    if (queue_.empty()) {
      if (stop_) return;
      continue;
    }
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    writer_busy_ = true;
    lock.Unlock();
    task();
    lock.Lock();
    writer_busy_ = false;
    if (queue_.empty()) idle_cv_.NotifyAll();
  }
}

void PlanStore::Enqueue(std::function<void()> task) {
  {
    MutexLock lock(queue_mu_);
    if (stop_) return;
    queue_.push_back(std::move(task));
  }
  queue_cv_.NotifyOne();
}

void PlanStore::Flush() {
  MutexLock lock(queue_mu_);
  while (!queue_.empty() || writer_busy_) idle_cv_.Wait(queue_mu_);
}

void PlanStore::IndexInsert(const std::string& name, uint64_t bytes) {
  MutexLock lock(mu_);
  auto it = index_.find(name);
  if (it != index_.end()) total_bytes_ -= it->second.bytes;
  index_[name] = FileInfo{bytes, ++use_counter_};
  total_bytes_ += bytes;
}

void PlanStore::IndexErase(const std::string& name) {
  MutexLock lock(mu_);
  auto it = index_.find(name);
  if (it == index_.end()) return;
  total_bytes_ -= it->second.bytes;
  index_.erase(it);
}

void PlanStore::DeleteFile(const std::string& name, bool count_invalid) {
  IndexErase(name);
  ::unlink((dir_ + "/" + name).c_str());
  if (count_invalid) invalid_.Add();
}

std::string PlanStore::PickEvictionVictimLocked() const {
  if (total_bytes_ <= byte_budget_ || index_.empty()) return std::string();
  std::string victim;
  uint64_t oldest = 0;
  bool first = true;
  for (const auto& [name, info] : index_) {
    if (first || info.use_seq < oldest) {
      oldest = info.use_seq;
      victim = name;
      first = false;
    }
  }
  return victim;
}

void PlanStore::EvictOverBudget() {
  for (;;) {
    std::string victim;
    {
      MutexLock lock(mu_);
      victim = PickEvictionVictimLocked();
    }
    if (victim.empty()) return;
    DeleteFile(victim, /*count_invalid=*/false);
    evictions_.Add();
  }
}

std::shared_ptr<const PreparedQuery> PlanStore::TryLoad(
    const Graph& g, uint64_t graph_fp, MatchSemantics semantics,
    size_t max_paths, const std::string& canonical_text) {
  const std::string body =
      PreparedQueryKeyBody(semantics, max_paths, canonical_text);
  const std::string name = PlanFileName(PlanKeyHash(graph_fp, body));
  {
    MutexLock lock(mu_);
    auto it = index_.find(name);
    if (it == index_.end()) {
      misses_.Add();
      return nullptr;
    }
    it->second.use_seq = ++use_counter_;
  }
  CompiledPlan plan;
  PlanStamp stamp;
  std::string error;
  auto reject = [this, &name] {
    invalid_.Add();
    misses_.Add();
    Enqueue([this, name] { DeleteFile(name, /*count_invalid=*/false); });
    return nullptr;
  };
  bool absent = false;
  if (!LoadPlanFile(dir_ + "/" + name, &plan, &stamp, &error, &absent)) {
    if (!absent) return reject();
    // Gone, not bad: an eviction on the writer thread unlinked the file
    // between the index lookup above and the open. That is a plain miss.
    // The writer (the only thread that creates files) drops the index
    // entry if the file is still missing there, e.g. deleted externally.
    misses_.Add();
    Enqueue([this, name] {
      struct stat st{};
      if (::stat((dir_ + "/" + name).c_str(), &st) != 0) IndexErase(name);
    });
    return nullptr;
  }
  // Stale-epoch defense: the fingerprint must echo the address the file was
  // found under, and a plan built against this very graph lineage must name
  // the current generation (a restamp bug or fingerprint collision is
  // caught here, never served).
  if (stamp.fingerprint != graph_fp ||
      (stamp.identity == g.identity() &&
       stamp.generation != g.generation())) {
    return reject();
  }
  // Hash-collision defense: the plan must echo the exact key fields.
  if (plan.semantics != semantics || plan.max_paths != max_paths ||
      plan.query_text != canonical_text) {
    return reject();
  }
  std::shared_ptr<const PreparedQuery> prepared =
      PreparedFromPlan(plan, g, &error);
  if (prepared == nullptr) return reject();
  hits_.Add();
  return prepared;
}

void PlanStore::SaveAsync(std::shared_ptr<const Graph> graph,
                          std::shared_ptr<const PreparedQuery> prepared,
                          std::string query_text, uint64_t max_paths,
                          PlanStamp stamp) {
  if (graph == nullptr || prepared == nullptr) return;
  Enqueue([this, graph = std::move(graph), prepared = std::move(prepared),
           query_text = std::move(query_text), max_paths, stamp] {
    const std::string body =
        PreparedQueryKeyBody(prepared->semantics, max_paths, query_text);
    const std::string name =
        PlanFileName(PlanKeyHash(stamp.fingerprint, body));
    {
      MutexLock lock(mu_);
      if (index_.count(name) != 0) return;  // already persisted
    }
    CompiledPlan plan =
        PlanFromPrepared(*prepared, *graph, query_text, max_paths);
    std::string error;
    uint64_t bytes = 0;
    if (!WritePlanFile(plan, stamp, dir_ + "/" + name, &error, &bytes)) {
      return;
    }
    IndexInsert(name, bytes);
    writes_.Add();
    EvictOverBudget();
  });
}

size_t PlanStore::WarmLoad(const Graph& g, uint64_t graph_fp,
                           size_t max_plans, PreparedQueryCache* cache) {
  if (cache == nullptr || max_plans == 0) return 0;
  // Snapshot the index most-recent-first so the warm pass replays the
  // store's recency order into the in-memory LRU.
  std::vector<std::pair<uint64_t, std::string>> names;
  {
    MutexLock lock(mu_);
    names.reserve(index_.size());
    for (const auto& [name, info] : index_) {
      names.emplace_back(info.use_seq, name);
    }
  }
  std::sort(names.begin(), names.end());
  const std::string prefix = GraphEpochPrefix(g);
  size_t loaded = 0;
  // Oldest first: the most recently used plan lands at the LRU front.
  for (const auto& [seq, name] : names) {
    if (loaded >= max_plans) break;
    CompiledPlan plan;
    PlanStamp stamp;
    std::string error;
    if (!LoadPlanFile(dir_ + "/" + name, &plan, &stamp, &error)) {
      invalid_.Add();
      Enqueue([this, name = name] {
        DeleteFile(name, /*count_invalid=*/false);
      });
      continue;
    }
    // Plans for other graphs (a shared store directory) are not ours to
    // judge — skip without counting.
    if (stamp.fingerprint != graph_fp) continue;
    if (stamp.identity == g.identity() &&
        stamp.generation != g.generation()) {
      continue;
    }
    std::shared_ptr<const PreparedQuery> prepared =
        PreparedFromPlan(plan, g, &error);
    if (prepared == nullptr) {
      invalid_.Add();
      Enqueue([this, name = name] {
        DeleteFile(name, /*count_invalid=*/false);
      });
      continue;
    }
    cache->Put(prefix + PreparedQueryKeyBody(plan.semantics, plan.max_paths,
                                             plan.query_text),
               std::move(prepared));
    ++loaded;
  }
  return loaded;
}

void PlanStore::OnUpdate(uint64_t old_fp, PlanStamp new_stamp,
                         std::vector<std::string> dropped_bodies,
                         std::vector<std::string> rekeyed_bodies) {
  Enqueue([this, old_fp, new_stamp,
           dropped_bodies = std::move(dropped_bodies),
           rekeyed_bodies = std::move(rekeyed_bodies)] {
    for (const std::string& body : dropped_bodies) {
      const std::string name = PlanFileName(PlanKeyHash(old_fp, body));
      bool indexed;
      {
        MutexLock lock(mu_);
        indexed = index_.count(name) != 0;
      }
      // The update proved this plan's artifacts stale: its epoch is gone.
      if (indexed) DeleteFile(name, /*count_invalid=*/true);
    }
    for (const std::string& body : rekeyed_bodies) {
      const std::string old_name = PlanFileName(PlanKeyHash(old_fp, body));
      const std::string new_name =
          PlanFileName(PlanKeyHash(new_stamp.fingerprint, body));
      bool indexed;
      {
        MutexLock lock(mu_);
        indexed = index_.count(old_name) != 0;
      }
      if (!indexed) continue;
      std::string error;
      uint64_t bytes = 0;
      if (RestampPlanFile(dir_ + "/" + old_name, dir_ + "/" + new_name,
                          new_stamp, &error, &bytes)) {
        IndexInsert(new_name, bytes);
        writes_.Add();
        if (new_name != old_name) {
          DeleteFile(old_name, /*count_invalid=*/false);
        }
      } else {
        // Unreadable at restamp time: treat like any other invalid file.
        DeleteFile(old_name, /*count_invalid=*/true);
      }
    }
    EvictOverBudget();
  });
}

PlanStore::Counters PlanStore::counters() const {
  Counters out;
  WHYQ_PLAN_STORE_COUNTERS(WHYQ_STATS_READ_COUNTER)
  return out;
}

size_t PlanStore::file_count() const {
  MutexLock lock(mu_);
  return index_.size();
}

uint64_t PlanStore::stored_bytes() const {
  MutexLock lock(mu_);
  return total_bytes_;
}

}  // namespace whyq
