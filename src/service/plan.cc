#include "service/plan.h"

#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

#include "query/query_parser.h"

namespace whyq {

namespace {

// Streaming FNV-1a (parameters in graph/snapshot.h).
struct Fnv {
  uint64_t h = kFnvOffsetBasis;

  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= kFnvPrime;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void Str(std::string_view s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
};

// The payload checksum: the snapshot's striped word-FNV contract (see
// kPlanChecksumLanes in plan.h) — 64-bit little-endian words striped
// round-robin across independent FNV-1a accumulators, each Region() folded
// independently with its final partial word zero-padded.
struct StripedFnv {
  uint64_t lane[kPlanChecksumLanes] = {};
  size_t next = 0;

  StripedFnv() {
    for (auto& l : lane) l = kFnvOffsetBasis;
  }

  void Region(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    size_t whole = n & ~(sizeof(uint64_t) - 1);
    for (size_t i = 0; i < whole; i += sizeof(uint64_t)) {
      uint64_t w;
      std::memcpy(&w, p + i, sizeof(w));
      lane[next] = (lane[next] ^ w) * kFnvPrime;
      next = (next + 1) % kPlanChecksumLanes;
    }
    if (whole != n) {
      uint64_t w = 0;
      std::memcpy(&w, p + whole, n - whole);
      lane[next] = (lane[next] ^ w) * kFnvPrime;
      next = (next + 1) % kPlanChecksumLanes;
    }
  }

  uint64_t Digest() const {
    uint64_t h = kFnvOffsetBasis;
    for (uint64_t l : lane) {
      const auto* p = reinterpret_cast<const unsigned char*>(&l);
      for (size_t i = 0; i < sizeof(l); ++i) h = (h ^ p[i]) * kFnvPrime;
    }
    return h;
  }
};

size_t AlignUp(size_t n) {
  return (n + kPlanSectionAlign - 1) & ~size_t{kPlanSectionAlign - 1};
}

// One section staged for writing: id plus a borrowed byte range.
struct Staged {
  uint32_t id = 0;
  const void* data = nullptr;
  size_t bytes = 0;
};

bool Fail(std::string* error, std::string msg) {
  if (error != nullptr) *error = std::move(msg);
  return false;
}

// The loader's view of one validated section.
struct Region {
  const unsigned char* data = nullptr;
  size_t bytes = 0;

  template <typename T>
  const T* Rows() const {
    return reinterpret_cast<const T*>(data);
  }
  template <typename T>
  size_t RowCount() const {
    return bytes / sizeof(T);
  }
  template <typename T>
  bool RowAligned() const {
    return bytes % sizeof(T) == 0;
  }
};

bool StrictlyIncreasing(const Region& r) {
  if (!r.RowAligned<SymbolId>()) return false;
  const SymbolId* rows = r.Rows<SymbolId>();
  size_t count = r.RowCount<SymbolId>();
  for (size_t i = 1; i < count; ++i) {
    if (rows[i] <= rows[i - 1]) return false;
  }
  return true;
}

std::vector<SymbolId> SymbolRows(const Region& r) {
  return std::vector<SymbolId>(r.Rows<SymbolId>(),
                               r.Rows<SymbolId>() + r.RowCount<SymbolId>());
}

}  // namespace

CompiledPlan PlanFromPrepared(const PreparedQuery& prepared,
                              std::string query_text, uint64_t max_paths) {
  CompiledPlan plan;
  plan.query_text = std::move(query_text);
  plan.semantics = prepared.semantics;
  plan.max_paths = max_paths;
  plan.answers = prepared.answers;
  plan.output_candidates = prepared.output_candidates;
  plan.paths = prepared.path_index.paths();
  plan.footprint = prepared.footprint;
  return plan;
}

bool WritePlanFile(const CompiledPlan& plan, const PlanStamp& stamp,
                   const std::string& path, std::string* error) {
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

  auto col = [](uint32_t id, const auto& c) {
    using Row = std::remove_reference_t<decltype(c[0])>;
    return Staged{id, c.data(), c.size() * sizeof(Row)};
  };
  const Staged sections[kPlanSectionCount] = {
      Staged{kPlanSecMeta, &meta, sizeof(meta)},
      Staged{kPlanSecQueryText, plan.query_text.data(),
             plan.query_text.size()},
      col(kPlanSecAnswers, plan.answers),
      col(kPlanSecCandidates, plan.output_candidates),
      col(kPlanSecPathRange, path_range),
      col(kPlanSecSteps, steps),
      col(kPlanSecFpNodeLabels, plan.footprint.node_labels),
      col(kPlanSecFpEdgeLabels, plan.footprint.edge_labels),
      col(kPlanSecFpAttrs, plan.footprint.attrs),
  };

  PlanHeader hdr{};
  std::memcpy(hdr.magic, kPlanMagic, sizeof(hdr.magic));
  hdr.version = kPlanVersion;
  hdr.endian_check = kPlanEndianCheck;
  hdr.header_bytes = sizeof(PlanHeader);
  hdr.section_count = kPlanSectionCount;
  hdr.graph_fingerprint = stamp.fingerprint;
  hdr.graph_identity = stamp.identity;
  hdr.graph_generation = stamp.generation;

  PlanSection table[kPlanSectionCount] = {};
  size_t off = AlignUp(sizeof(PlanHeader) + sizeof(table));
  for (size_t i = 0; i < kPlanSectionCount; ++i) {
    table[i].id = sections[i].id;
    table[i].offset = off;
    table[i].bytes = sections[i].bytes;
    off = AlignUp(off + sections[i].bytes);
  }
  hdr.file_bytes = off;
  // The checksum covers the header prefix (everything before payload_hash
  // itself — the stamp included), the section table, and every payload in
  // id order, so tampering with the stamp is rejected like payload
  // corruption; a restamp must recompute it (RestampPlanFile does).
  StripedFnv payload;
  payload.Region(&hdr, sizeof(PlanHeader) - sizeof(hdr.payload_hash));
  payload.Region(table, sizeof(table));
  for (size_t i = 0; i < kPlanSectionCount; ++i) {
    payload.Region(sections[i].data, sections[i].bytes);
  }
  hdr.payload_hash = payload.Digest();

  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out) return Fail(error, "plan: cannot open " + tmp);
  const char zeros[kPlanSectionAlign] = {};
  size_t written = 0;
  auto put = [&out, &written](const void* data, size_t n) {
    out.write(static_cast<const char*>(data), static_cast<long>(n));
    written += n;
  };
  auto pad_to = [&](size_t target) {
    while (written < target) {
      size_t n = std::min(target - written, sizeof(zeros));
      put(zeros, n);
    }
  };
  put(&hdr, sizeof(hdr));
  put(table, sizeof(table));
  for (size_t i = 0; i < kPlanSectionCount; ++i) {
    pad_to(table[i].offset);
    put(sections[i].data, sections[i].bytes);
  }
  pad_to(hdr.file_bytes);
  out.flush();
  if (!out) return Fail(error, "plan: short write to " + tmp);
  out.close();
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Fail(error, "plan: cannot rename into " + path);
  }
  return true;
}

bool LoadPlanFile(const std::string& path, CompiledPlan* out,
                  PlanStamp* stamp, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Fail(error, "plan: cannot open " + path);
  in.seekg(0, std::ios::end);
  const auto end = in.tellg();
  if (end < 0) return Fail(error, "plan: cannot stat " + path);
  const size_t size = static_cast<size_t>(end);
  if (size < sizeof(PlanHeader)) {
    return Fail(error, "plan: file too small: " + path);
  }
  if (size > kPlanMaxFileBytes) {
    return Fail(error, "plan: file exceeds kPlanMaxFileBytes: " + path);
  }
  // Read into a uint64_t buffer so every row type's alignment holds.
  std::vector<uint64_t> buf((size + sizeof(uint64_t) - 1) / sizeof(uint64_t),
                            0);
  in.seekg(0, std::ios::beg);
  in.read(reinterpret_cast<char*>(buf.data()), static_cast<long>(size));
  if (!in) return Fail(error, "plan: short read from " + path);
  const auto* base = reinterpret_cast<const unsigned char*>(buf.data());

  const auto* hdr = reinterpret_cast<const PlanHeader*>(base);
  if (std::memcmp(hdr->magic, kPlanMagic, sizeof(hdr->magic)) != 0) {
    return Fail(error, "plan: bad magic in " + path);
  }
  if (hdr->endian_check != kPlanEndianCheck) {
    return Fail(error, "plan: foreign byte order in " + path);
  }
  if (hdr->version != kPlanVersion ||
      hdr->header_bytes != sizeof(PlanHeader) ||
      hdr->section_count != kPlanSectionCount) {
    return Fail(error, "plan: unsupported version " +
                           std::to_string(hdr->version) + " in " + path);
  }
  if (hdr->file_bytes != size) {
    return Fail(error, "plan: truncated file (header says " +
                           std::to_string(hdr->file_bytes) +
                           " bytes, file has " + std::to_string(size) +
                           "): " + path);
  }

  // Section table: one entry per id, ascending, aligned, in bounds.
  const auto* table =
      reinterpret_cast<const PlanSection*>(base + sizeof(PlanHeader));
  if (sizeof(PlanHeader) + kPlanSectionCount * sizeof(PlanSection) > size) {
    return Fail(error, "plan: truncated section table: " + path);
  }
  Region sec[kPlanSectionCount];
  StripedFnv payload;
  payload.Region(hdr, sizeof(PlanHeader) - sizeof(hdr->payload_hash));
  payload.Region(table, kPlanSectionCount * sizeof(PlanSection));
  for (uint32_t i = 0; i < kPlanSectionCount; ++i) {
    const PlanSection& s = table[i];
    if (s.id != i) return Fail(error, "plan: section table out of order");
    if (s.offset % kPlanSectionAlign != 0) {
      return Fail(error, "plan: misaligned section " + std::to_string(i));
    }
    if (s.offset > size || s.bytes > size - s.offset) {
      return Fail(error, "plan: section " + std::to_string(i) +
                             " out of bounds");
    }
    sec[i] = Region{base + s.offset, s.bytes};
    payload.Region(sec[i].data, sec[i].bytes);
  }
  if (payload.Digest() != hdr->payload_hash) {
    return Fail(error, "plan: payload checksum mismatch (corrupt file): " +
                           path);
  }

  // Meta row, then cross-check every count against the section table.
  if (sec[kPlanSecMeta].bytes != sizeof(PlanMeta)) {
    return Fail(error, "plan: meta section size mismatch");
  }
  PlanMeta meta{};
  std::memcpy(&meta, sec[kPlanSecMeta].data, sizeof(meta));
  if (meta.semantics > static_cast<uint32_t>(MatchSemantics::kSimulation)) {
    return Fail(error, "plan: unknown semantics " +
                           std::to_string(meta.semantics));
  }
  if (meta.query_bytes != sec[kPlanSecQueryText].bytes) {
    return Fail(error, "plan: query text size mismatch");
  }
  if (!sec[kPlanSecAnswers].RowAligned<NodeId>() ||
      sec[kPlanSecAnswers].RowCount<NodeId>() != meta.answer_count) {
    return Fail(error, "plan: answer column size mismatch");
  }
  if (!sec[kPlanSecCandidates].RowAligned<NodeId>() ||
      sec[kPlanSecCandidates].RowCount<NodeId>() != meta.candidate_count) {
    return Fail(error, "plan: candidate column size mismatch");
  }
  if (!sec[kPlanSecPathRange].RowAligned<uint64_t>() ||
      sec[kPlanSecPathRange].RowCount<uint64_t>() != meta.path_count + 1) {
    return Fail(error, "plan: path offset column size mismatch");
  }
  if (!sec[kPlanSecSteps].RowAligned<PlanStep>() ||
      sec[kPlanSecSteps].RowCount<PlanStep>() != meta.step_count) {
    return Fail(error, "plan: step column size mismatch");
  }
  const uint64_t* range = sec[kPlanSecPathRange].Rows<uint64_t>();
  if (range[0] != 0 || range[meta.path_count] != meta.step_count) {
    return Fail(error, "plan: path offsets do not bracket the steps");
  }
  for (size_t i = 1; i <= meta.path_count; ++i) {
    if (range[i] < range[i - 1]) {
      return Fail(error, "plan: path offsets not monotonic");
    }
  }
  const PlanStep* steps = sec[kPlanSecSteps].Rows<PlanStep>();
  for (size_t i = 0; i < meta.step_count; ++i) {
    if (steps[i].forward > 1) {
      return Fail(error, "plan: step direction flag out of range");
    }
  }
  if (!StrictlyIncreasing(sec[kPlanSecFpNodeLabels]) ||
      !StrictlyIncreasing(sec[kPlanSecFpEdgeLabels]) ||
      !StrictlyIncreasing(sec[kPlanSecFpAttrs])) {
    return Fail(error, "plan: footprint sections not sorted unique");
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
    stamp->fingerprint = hdr->graph_fingerprint;
    stamp->identity = hdr->graph_identity;
    stamp->generation = hdr->graph_generation;
  }
  return true;
}

bool RestampPlanFile(const std::string& src, const std::string& dst,
                     const PlanStamp& new_stamp, std::string* error) {
  // Full decode + re-encode: the source is validated end to end (a corrupt
  // plan is never carried to a new epoch), and the deterministic writer
  // reproduces the identical payload bytes under the new stamp.
  CompiledPlan plan;
  PlanStamp old_stamp;
  if (!LoadPlanFile(src, &plan, &old_stamp, error)) return false;
  return WritePlanFile(plan, new_stamp, dst, error);
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
      std::move(*q), plan.semantics, plan.answers, plan.output_candidates,
      PathIndex::FromPaths(plan.paths), fresh);
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
  if (!LoadPlanFile(dir_ + "/" + name, &plan, &stamp, &error)) {
    return reject();
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

void PlanStore::SaveAsync(std::shared_ptr<const PreparedQuery> prepared,
                          std::string query_text, uint64_t max_paths,
                          PlanStamp stamp) {
  if (prepared == nullptr) return;
  Enqueue([this, prepared = std::move(prepared),
           query_text = std::move(query_text), max_paths, stamp] {
    const std::string body =
        PreparedQueryKeyBody(prepared->semantics, max_paths, query_text);
    const std::string name =
        PlanFileName(PlanKeyHash(stamp.fingerprint, body));
    {
      MutexLock lock(mu_);
      if (index_.count(name) != 0) return;  // already persisted
    }
    CompiledPlan plan = PlanFromPrepared(*prepared, query_text, max_paths);
    std::string error;
    const std::string path = dir_ + "/" + name;
    if (!WritePlanFile(plan, stamp, path, &error)) return;
    struct stat st{};
    uint64_t bytes =
        ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                       : 0;
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
      if (RestampPlanFile(dir_ + "/" + old_name, dir_ + "/" + new_name,
                          new_stamp, &error)) {
        struct stat st{};
        uint64_t bytes = ::stat((dir_ + "/" + new_name).c_str(), &st) == 0
                             ? static_cast<uint64_t>(st.st_size)
                             : 0;
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
