// The persistent compiled-plan layer (service/plan.h): the on-disk format
// round-trip, the full rejection matrix (truncation sweep, bit flips,
// wrong magic/version/endian, tampered stamps), the PlanStore lifecycle
// (save, hit, eviction by byte budget, boot warm pass, update mirroring),
// and the counter-pinned equivalence proof that a store-loaded plan
// answers byte-identically to a freshly built one under both semantics.
// The concurrency test runs TryLoad probes against writer-thread eviction
// churn — the suite name matches the CI TSan job's filter.

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstddef>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "gen/figure1.h"
#include "graph/graph.h"
#include "graph/snapshot.h"
#include "graph/update.h"
#include "query/query_parser.h"
#include "service/plan.h"
#include "service/prepared.h"
#include "service/request.h"
#include "service/service.h"
#include "why/question.h"
#include "why/why_algorithms.h"
#include "why/whynot_algorithms.h"

namespace whyq {
namespace {

constexpr const char* kReviewQuery =
    "node r Review rating >= i:3\nnode p Product\nedge r p reviewOf\n"
    "output r\n";
constexpr const char* kVendorQuery = "node v Vendor\noutput v\n";

// Reviews 0..3 (ratings 2..5) of product 4; node 5 is an unrelated Vendor.
Graph ReviewGraph() {
  GraphBuilder b;
  for (int i = 0; i < 4; ++i) {
    NodeId v = b.AddNode("Review");
    b.SetAttr(v, "rating", Value(static_cast<int64_t>(i + 2)));
  }
  NodeId p = b.AddNode("Product");
  for (NodeId r = 0; r < 4; ++r) b.AddEdge(r, p, "reviewOf");
  b.AddNode("Vendor");
  return b.Build();
}

Query MustParse(const std::string& text, const Graph& g) {
  std::string err;
  std::optional<Query> q = ParseQuery(text, g, &err);
  EXPECT_TRUE(q.has_value()) << err;
  return *q;
}

// An update the review query provably does not depend on: a fresh Vendor
// node with a fresh attribute and a fresh edge label.
UpdateBatch DisjointBatch(const Graph& g) {
  UpdateBatch batch;
  NodeId fresh = static_cast<NodeId>(g.node_count());
  batch.ops.push_back(UpdateOp::AddNode("Vendor"));
  batch.ops.push_back(UpdateOp::SetAttr(fresh, "zip", Value(int64_t{94110})));
  batch.ops.push_back(UpdateOp::AddEdge(fresh, 5, "ships"));
  return batch;
}

// An update that touches the review query's literal attribute.
UpdateBatch IntersectingBatch() {
  UpdateBatch batch;
  batch.ops.push_back(UpdateOp::SetAttr(0, "rating", Value(int64_t{5})));
  return batch;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "whyq_plan_" + name;
}

// A fresh store directory: created if needed, cleared of any *.plan files
// a previous run left behind (the store indexes pre-existing files).
std::string FreshDir(const std::string& name) {
  std::string dir = TempPath(name);
  ::mkdir(dir.c_str(), 0755);
  DIR* d = ::opendir(dir.c_str());
  if (d != nullptr) {
    while (dirent* e = ::readdir(d)) {
      std::string n = e->d_name;
      if (n.size() > 5 && n.compare(n.size() - 5, 5, ".plan") == 0) {
        ::unlink((dir + "/" + n).c_str());
      }
    }
    ::closedir(d);
  }
  return dir;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

std::shared_ptr<const PreparedQuery> Prepare(const Graph& g, const Query& q,
                                             MatchSemantics semantics,
                                             size_t max_paths) {
  bool complete = false;
  auto p = PrepareQuery(g, Query(q), semantics, max_paths,
                        /*cancel=*/nullptr, &complete);
  EXPECT_TRUE(complete);
  return p;
}

PlanStamp StampOf(const Graph& g) {
  return PlanStamp{GraphFingerprint(g), g.identity(), g.generation()};
}

bool StepsEqual(const std::vector<std::vector<PathIndex::Step>>& a,
                const std::vector<std::vector<PathIndex::Step>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (size_t j = 0; j < a[i].size(); ++j) {
      const PathIndex::Step& x = a[i][j];
      const PathIndex::Step& y = b[i][j];
      if (x.from != y.from || x.to != y.to || x.edge_label != y.edge_label ||
          x.forward != y.forward) {
        return false;
      }
    }
  }
  return true;
}

// One written plan file over Figure 1, shared by the format tests.
struct WrittenPlan {
  Graph graph;
  Query query;
  std::shared_ptr<const PreparedQuery> prepared;
  CompiledPlan plan;
  PlanStamp stamp;
  std::string path;
  std::string bytes;
};

WrittenPlan WriteFigure1Plan(const std::string& file_tag) {
  Figure1 fig = MakeFigure1();
  WrittenPlan w;
  w.graph = std::move(fig.graph);
  w.query = std::move(fig.query);
  w.prepared = Prepare(w.graph, w.query, MatchSemantics::kIsomorphism, 8);
  w.plan = PlanFromPrepared(*w.prepared, WriteQuery(w.query, w.graph), 8);
  w.stamp = StampOf(w.graph);
  w.path = TempPath(file_tag + ".plan");
  std::string error;
  EXPECT_TRUE(WritePlanFile(w.plan, w.stamp, w.path, &error)) << error;
  w.bytes = ReadAll(w.path);
  return w;
}

// ---------------------------------------------------------------------------
// Format round-trip
// ---------------------------------------------------------------------------

TEST(PlanFormatTest, RoundTripReproducesEveryField) {
  WrittenPlan w = WriteFigure1Plan("roundtrip");
  CompiledPlan loaded;
  PlanStamp stamp;
  std::string error;
  ASSERT_TRUE(LoadPlanFile(w.path, &loaded, &stamp, &error)) << error;

  EXPECT_EQ(loaded.query_text, w.plan.query_text);
  EXPECT_EQ(loaded.semantics, w.plan.semantics);
  EXPECT_EQ(loaded.max_paths, w.plan.max_paths);
  EXPECT_EQ(loaded.answers, w.plan.answers);
  EXPECT_EQ(loaded.output_candidates, w.plan.output_candidates);
  EXPECT_TRUE(StepsEqual(loaded.paths, w.plan.paths));
  EXPECT_EQ(loaded.footprint.node_labels, w.plan.footprint.node_labels);
  EXPECT_EQ(loaded.footprint.edge_labels, w.plan.footprint.edge_labels);
  EXPECT_EQ(loaded.footprint.attrs, w.plan.footprint.attrs);
  EXPECT_EQ(stamp.fingerprint, w.stamp.fingerprint);
  EXPECT_EQ(stamp.identity, w.stamp.identity);
  EXPECT_EQ(stamp.generation, w.stamp.generation);
}

TEST(PlanFormatTest, SamePlanWritesByteIdenticalFiles) {
  WrittenPlan w = WriteFigure1Plan("determ_a");
  std::string other = TempPath("determ_b.plan");
  std::string error;
  ASSERT_TRUE(WritePlanFile(w.plan, w.stamp, other, &error)) << error;
  EXPECT_EQ(w.bytes, ReadAll(other));
}

TEST(PlanFormatTest, PreparedFromPlanRebuildsTheOriginalArtifacts) {
  WrittenPlan w = WriteFigure1Plan("rebuild");
  CompiledPlan loaded;
  PlanStamp stamp;
  std::string error;
  ASSERT_TRUE(LoadPlanFile(w.path, &loaded, &stamp, &error)) << error;
  auto rebuilt = PreparedFromPlan(loaded, w.graph, &error);
  ASSERT_NE(rebuilt, nullptr) << error;

  EXPECT_EQ(rebuilt->semantics, w.prepared->semantics);
  EXPECT_EQ(rebuilt->answers, w.prepared->answers);
  EXPECT_EQ(rebuilt->output_candidates, w.prepared->output_candidates);
  EXPECT_TRUE(
      StepsEqual(rebuilt->path_index.paths(), w.prepared->path_index.paths()));
  EXPECT_EQ(rebuilt->footprint.node_labels, w.prepared->footprint.node_labels);
  EXPECT_EQ(rebuilt->footprint.edge_labels, w.prepared->footprint.edge_labels);
  EXPECT_EQ(rebuilt->footprint.attrs, w.prepared->footprint.attrs);
  EXPECT_EQ(WriteQuery(rebuilt->query, w.graph),
            WriteQuery(w.prepared->query, w.graph));
}

TEST(PlanFormatTest, RestampRewritesTheStampAndNothingElse) {
  WrittenPlan w = WriteFigure1Plan("restamp_src");
  PlanStamp next{w.stamp.fingerprint + 7, w.stamp.identity,
                 w.stamp.generation + 1};
  std::string dst = TempPath("restamp_dst.plan");
  std::string error;
  ASSERT_TRUE(RestampPlanFile(w.path, dst, next, &error)) << error;

  CompiledPlan loaded;
  PlanStamp stamp;
  ASSERT_TRUE(LoadPlanFile(dst, &loaded, &stamp, &error)) << error;
  EXPECT_EQ(stamp.fingerprint, next.fingerprint);
  EXPECT_EQ(stamp.generation, next.generation);
  EXPECT_EQ(loaded.query_text, w.plan.query_text);
  EXPECT_EQ(loaded.answers, w.plan.answers);
  EXPECT_TRUE(StepsEqual(loaded.paths, w.plan.paths));
  // Outside the header (stamp fields + recomputed checksum) the two files
  // are byte-identical — restamping never touches the payloads.
  std::string restamped = ReadAll(dst);
  ASSERT_EQ(restamped.size(), w.bytes.size());
  EXPECT_EQ(restamped.substr(sizeof(PlanHeader)),
            w.bytes.substr(sizeof(PlanHeader)));
  // The source file still validates with its original stamp.
  ASSERT_TRUE(LoadPlanFile(w.path, &loaded, &stamp, &error)) << error;
  EXPECT_EQ(stamp.fingerprint, w.stamp.fingerprint);
}

TEST(PlanFormatTest, KeyHashSeparatesGraphsAndBodies) {
  std::string body_a = PreparedQueryKeyBody(MatchSemantics::kIsomorphism, 8,
                                            "node v Vendor\noutput v\n");
  std::string body_b = PreparedQueryKeyBody(MatchSemantics::kSimulation, 8,
                                            "node v Vendor\noutput v\n");
  std::string body_c = PreparedQueryKeyBody(MatchSemantics::kIsomorphism, 4,
                                            "node v Vendor\noutput v\n");
  EXPECT_NE(PlanKeyHash(1, body_a), PlanKeyHash(2, body_a));
  EXPECT_NE(PlanKeyHash(1, body_a), PlanKeyHash(1, body_b));
  EXPECT_NE(PlanKeyHash(1, body_a), PlanKeyHash(1, body_c));
  EXPECT_EQ(PlanFileName(PlanKeyHash(1, body_a)).size(),
            PlanFileName(0).size());
}

// ---------------------------------------------------------------------------
// Rejection matrix
// ---------------------------------------------------------------------------

TEST(PlanRejectTest, EveryTruncationFailsToLoad) {
  WrittenPlan w = WriteFigure1Plan("truncate");
  std::string victim = TempPath("truncate_victim.plan");
  CompiledPlan out;
  PlanStamp stamp;
  for (size_t len = 0; len < w.bytes.size(); ++len) {
    WriteAll(victim, w.bytes.substr(0, len));
    std::string error;
    EXPECT_FALSE(LoadPlanFile(victim, &out, &stamp, &error))
        << "prefix of " << len << " bytes loaded";
  }
}

TEST(PlanRejectTest, EveryBitFlipFailsOrLeavesContentIntact) {
  // Flipping any single byte either fails validation or — when the flip
  // lands in inter-section padding, which the checksum deliberately does
  // not cover — decodes a plan identical to the original. A flip that
  // silently changes decoded content would be a checksum coverage hole.
  WrittenPlan w = WriteFigure1Plan("bitflip");
  std::string victim = TempPath("bitflip_victim.plan");
  for (size_t i = 0; i < w.bytes.size(); ++i) {
    std::string mutated = w.bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x01);
    WriteAll(victim, mutated);
    CompiledPlan out;
    PlanStamp stamp;
    std::string error;
    if (!LoadPlanFile(victim, &out, &stamp, &error)) continue;
    EXPECT_EQ(out.query_text, w.plan.query_text) << "flip at byte " << i;
    EXPECT_EQ(out.answers, w.plan.answers) << "flip at byte " << i;
    EXPECT_EQ(out.output_candidates, w.plan.output_candidates)
        << "flip at byte " << i;
    EXPECT_TRUE(StepsEqual(out.paths, w.plan.paths)) << "flip at byte " << i;
    EXPECT_EQ(stamp.fingerprint, w.stamp.fingerprint) << "flip at byte " << i;
    EXPECT_EQ(stamp.generation, w.stamp.generation) << "flip at byte " << i;
  }
}

TEST(PlanRejectTest, HeaderFieldTamperingIsNamedPrecisely) {
  WrittenPlan w = WriteFigure1Plan("tamper");
  std::string victim = TempPath("tamper_victim.plan");
  CompiledPlan out;
  PlanStamp stamp;
  std::string error;

  {  // Wrong magic: the very first check.
    std::string bytes = w.bytes;
    bytes[0] = 'x';
    WriteAll(victim, bytes);
    ASSERT_FALSE(LoadPlanFile(victim, &out, &stamp, &error));
    EXPECT_NE(error.find("bad magic"), std::string::npos) << error;
  }
  {  // Unsupported version (checked before the checksum).
    std::string bytes = w.bytes;
    uint32_t v = kPlanVersion + 1;
    std::memcpy(&bytes[offsetof(PlanHeader, version)], &v, sizeof(v));
    WriteAll(victim, bytes);
    ASSERT_FALSE(LoadPlanFile(victim, &out, &stamp, &error));
    EXPECT_NE(error.find("unsupported version"), std::string::npos) << error;
  }
  {  // Foreign byte order: the endian check reads back byte-swapped.
    std::string bytes = w.bytes;
    uint32_t swapped = 0x04030201;
    std::memcpy(&bytes[offsetof(PlanHeader, endian_check)], &swapped,
                sizeof(swapped));
    WriteAll(victim, bytes);
    ASSERT_FALSE(LoadPlanFile(victim, &out, &stamp, &error));
    EXPECT_NE(error.find("foreign byte order"), std::string::npos) << error;
  }
  {  // A tampered epoch stamp is caught by the checksum: the stamp lives
    // in the checksummed header prefix, so no edit can move a plan to a
    // different graph epoch without failing validation.
    std::string bytes = w.bytes;
    bytes[offsetof(PlanHeader, graph_generation)] ^= 0x01;
    WriteAll(victim, bytes);
    ASSERT_FALSE(LoadPlanFile(victim, &out, &stamp, &error));
    EXPECT_NE(error.find("checksum mismatch"), std::string::npos) << error;
  }
  {  // Inflated file_bytes: rejected as truncated before any allocation.
    std::string bytes = w.bytes;
    uint64_t inflated = bytes.size() + kPlanSectionAlign;
    std::memcpy(&bytes[offsetof(PlanHeader, file_bytes)], &inflated,
                sizeof(inflated));
    WriteAll(victim, bytes);
    ASSERT_FALSE(LoadPlanFile(victim, &out, &stamp, &error));
    EXPECT_NE(error.find("truncated file"), std::string::npos) << error;
  }
  {  // A stub far below the fixed header size.
    WriteAll(victim, "WHYQPLN1");
    ASSERT_FALSE(LoadPlanFile(victim, &out, &stamp, &error));
    EXPECT_NE(error.find("file too small"), std::string::npos) << error;
  }
}

// ---------------------------------------------------------------------------
// PlanStore lifecycle
// ---------------------------------------------------------------------------

TEST(PlanStoreTest, SaveThenTryLoadHits) {
  Graph g = ReviewGraph();
  Query q = MustParse(kReviewQuery, g);
  std::string canonical = WriteQuery(q, g);
  auto prepared = Prepare(g, q, MatchSemantics::kIsomorphism, 8);
  uint64_t fp = GraphFingerprint(g);

  PlanStore store(FreshDir("save_hit"));
  EXPECT_EQ(store.TryLoad(g, fp, MatchSemantics::kIsomorphism, 8, canonical),
            nullptr);
  store.SaveAsync(prepared, canonical, 8, StampOf(g));
  store.Flush();
  EXPECT_EQ(store.counters().writes, 1u);
  EXPECT_EQ(store.file_count(), 1u);
  EXPECT_GT(store.stored_bytes(), 0u);

  auto loaded =
      store.TryLoad(g, fp, MatchSemantics::kIsomorphism, 8, canonical);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->answers, prepared->answers);
  EXPECT_EQ(loaded->output_candidates, prepared->output_candidates);
  EXPECT_TRUE(
      StepsEqual(loaded->path_index.paths(), prepared->path_index.paths()));
  PlanStore::Counters c = store.counters();
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.invalid, 0u);
  // Duplicate saves are no-ops: the file already exists for this key.
  store.SaveAsync(prepared, canonical, 8, StampOf(g));
  store.Flush();
  EXPECT_EQ(store.counters().writes, 1u);
}

TEST(PlanStoreTest, StalePlanIsNeverServed) {
  // A file stamped with the probing graph's fingerprint but an older
  // generation of the same identity must be rejected (and deleted), even
  // though it sits at exactly the probed address — the defense against a
  // restamp bug or a fingerprint collision resurrecting a dead epoch.
  Graph g = ReviewGraph();
  Query q = MustParse(kReviewQuery, g);
  std::string canonical = WriteQuery(q, g);
  auto prepared = Prepare(g, q, MatchSemantics::kIsomorphism, 8);
  uint64_t fp = GraphFingerprint(g);
  std::string body =
      PreparedQueryKeyBody(MatchSemantics::kIsomorphism, 8, canonical);

  std::string dir = FreshDir("stale");
  CompiledPlan plan = PlanFromPrepared(*prepared, canonical, 8);
  PlanStamp stale{fp, g.identity(), g.generation() + 1};  // a foreign epoch
  std::string error;
  ASSERT_TRUE(WritePlanFile(plan, stale,
                            dir + "/" + PlanFileName(PlanKeyHash(fp, body)),
                            &error))
      << error;

  PlanStore store(dir);  // indexes the pre-existing file
  EXPECT_EQ(store.file_count(), 1u);
  EXPECT_EQ(store.TryLoad(g, fp, MatchSemantics::kIsomorphism, 8, canonical),
            nullptr);
  store.Flush();
  PlanStore::Counters c = store.counters();
  EXPECT_EQ(c.hits, 0u);
  EXPECT_EQ(c.invalid, 1u);
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(store.file_count(), 0u);  // the stale file was deleted
}

TEST(PlanStoreTest, WrongFingerprintAtTheProbedAddressIsInvalid) {
  Graph g = ReviewGraph();
  Query q = MustParse(kReviewQuery, g);
  std::string canonical = WriteQuery(q, g);
  auto prepared = Prepare(g, q, MatchSemantics::kIsomorphism, 8);
  uint64_t fp = GraphFingerprint(g);
  std::string body =
      PreparedQueryKeyBody(MatchSemantics::kIsomorphism, 8, canonical);

  std::string dir = FreshDir("wrong_fp");
  CompiledPlan plan = PlanFromPrepared(*prepared, canonical, 8);
  PlanStamp foreign{fp ^ 0xdeadbeefull, g.identity() + 1, 0};
  std::string error;
  ASSERT_TRUE(WritePlanFile(plan, foreign,
                            dir + "/" + PlanFileName(PlanKeyHash(fp, body)),
                            &error))
      << error;

  PlanStore store(dir);
  EXPECT_EQ(store.TryLoad(g, fp, MatchSemantics::kIsomorphism, 8, canonical),
            nullptr);
  store.Flush();
  EXPECT_EQ(store.counters().invalid, 1u);
  EXPECT_EQ(store.file_count(), 0u);
}

TEST(PlanStoreTest, CollidingFileWithDifferentKeyFieldsIsInvalid) {
  // Hash-collision defense: a validly stamped file whose echoed key fields
  // (here max_paths) disagree with the probe is rejected, not served.
  Graph g = ReviewGraph();
  Query q = MustParse(kReviewQuery, g);
  std::string canonical = WriteQuery(q, g);
  auto prepared = Prepare(g, q, MatchSemantics::kIsomorphism, 4);
  uint64_t fp = GraphFingerprint(g);
  std::string probed_body =
      PreparedQueryKeyBody(MatchSemantics::kIsomorphism, 8, canonical);

  std::string dir = FreshDir("collision");
  CompiledPlan plan = PlanFromPrepared(*prepared, canonical, 4);
  std::string error;
  ASSERT_TRUE(
      WritePlanFile(plan, StampOf(g),
                    dir + "/" + PlanFileName(PlanKeyHash(fp, probed_body)),
                    &error))
      << error;

  PlanStore store(dir);
  EXPECT_EQ(store.TryLoad(g, fp, MatchSemantics::kIsomorphism, 8, canonical),
            nullptr);
  store.Flush();
  EXPECT_EQ(store.counters().invalid, 1u);
  EXPECT_EQ(store.file_count(), 0u);
}

TEST(PlanStoreTest, CorruptFileIsRejectedAndDeleted) {
  Graph g = ReviewGraph();
  Query q = MustParse(kReviewQuery, g);
  std::string canonical = WriteQuery(q, g);
  auto prepared = Prepare(g, q, MatchSemantics::kIsomorphism, 8);
  uint64_t fp = GraphFingerprint(g);

  std::string dir = FreshDir("corrupt");
  std::string file;
  {
    PlanStore store(dir);
    store.SaveAsync(prepared, canonical, 8, StampOf(g));
    store.Flush();
    std::string body =
        PreparedQueryKeyBody(MatchSemantics::kIsomorphism, 8, canonical);
    file = dir + "/" + PlanFileName(PlanKeyHash(fp, body));
    ASSERT_TRUE(FileExists(file));
  }
  // Flip the first payload byte (the meta section starts right after the
  // table; padding is not checksummed, payloads are).
  std::string bytes = ReadAll(file);
  PlanSection first;
  std::memcpy(&first, bytes.data() + sizeof(PlanHeader), sizeof(first));
  bytes[first.offset] = static_cast<char>(bytes[first.offset] ^ 0x01);
  WriteAll(file, bytes);

  PlanStore store(dir);
  EXPECT_EQ(store.TryLoad(g, fp, MatchSemantics::kIsomorphism, 8, canonical),
            nullptr);
  store.Flush();
  PlanStore::Counters c = store.counters();
  EXPECT_EQ(c.invalid, 1u);
  EXPECT_EQ(c.misses, 1u);
  EXPECT_FALSE(FileExists(file));
}

TEST(PlanStoreTest, EvictionFollowsTheByteBudgetInRecencyOrder) {
  Graph g = ReviewGraph();
  Query review = MustParse(kReviewQuery, g);
  Query vendor = MustParse(kVendorQuery, g);
  Query product = MustParse("node p Product\noutput p\n", g);
  uint64_t fp = GraphFingerprint(g);
  auto prep = [&](const Query& q) {
    return Prepare(g, q, MatchSemantics::kIsomorphism, 8);
  };
  std::string review_text = WriteQuery(review, g);
  std::string vendor_text = WriteQuery(vendor, g);
  std::string product_text = WriteQuery(product, g);

  // Measure the three plans' combined size to derive a budget that holds
  // any two of them but not all three.
  uint64_t all;
  {
    PlanStore probe(FreshDir("evict_probe"));
    probe.SaveAsync(prep(review), review_text, 8, StampOf(g));
    probe.SaveAsync(prep(vendor), vendor_text, 8, StampOf(g));
    probe.SaveAsync(prep(product), product_text, 8, StampOf(g));
    probe.Flush();
    ASSERT_EQ(probe.file_count(), 3u);
    all = probe.stored_bytes();
    ASSERT_GT(all, 0u);
  }

  PlanStore store(FreshDir("evict"), /*byte_budget=*/all - 1);
  store.SaveAsync(prep(review), review_text, 8, StampOf(g));
  store.SaveAsync(prep(vendor), vendor_text, 8, StampOf(g));
  store.Flush();
  EXPECT_EQ(store.file_count(), 2u);
  // Touch the older plan so the untouched one becomes the LRU victim.
  ASSERT_NE(store.TryLoad(g, fp, MatchSemantics::kIsomorphism, 8, review_text),
            nullptr);
  store.SaveAsync(prep(product), product_text, 8, StampOf(g));
  store.Flush();

  PlanStore::Counters c = store.counters();
  EXPECT_EQ(c.evictions, 1u);
  EXPECT_EQ(store.file_count(), 2u);
  EXPECT_LE(store.stored_bytes(), store.byte_budget());
  EXPECT_NE(store.TryLoad(g, fp, MatchSemantics::kIsomorphism, 8, review_text),
            nullptr);
  EXPECT_EQ(store.TryLoad(g, fp, MatchSemantics::kIsomorphism, 8, vendor_text),
            nullptr);  // the evicted one
  EXPECT_NE(
      store.TryLoad(g, fp, MatchSemantics::kIsomorphism, 8, product_text),
      nullptr);
}

TEST(PlanStoreTest, WarmLoadFillsTheCacheMostRecentFirst) {
  Graph g = ReviewGraph();
  Query review = MustParse(kReviewQuery, g);
  Query vendor = MustParse(kVendorQuery, g);
  uint64_t fp = GraphFingerprint(g);
  std::string review_text = WriteQuery(review, g);
  std::string vendor_text = WriteQuery(vendor, g);
  std::string dir = FreshDir("warm");
  {
    PlanStore store(dir);
    store.SaveAsync(Prepare(g, review, MatchSemantics::kIsomorphism, 8),
                    review_text, 8, StampOf(g));
    store.Flush();  // order the recencies: review first (older) ...
    store.SaveAsync(Prepare(g, vendor, MatchSemantics::kIsomorphism, 8),
                    vendor_text, 8, StampOf(g));
    store.Flush();
  }

  PlanStore store(dir);
  PreparedQueryCache cache(8);
  EXPECT_EQ(store.WarmLoad(g, fp, /*max_plans=*/16, &cache), 2u);
  EXPECT_EQ(cache.size(), 2u);
  std::string prefix = GraphEpochPrefix(g);
  EXPECT_NE(cache.Get(prefix + PreparedQueryKeyBody(
                                   MatchSemantics::kIsomorphism, 8,
                                   review_text)),
            nullptr);
  EXPECT_NE(cache.Get(prefix + PreparedQueryKeyBody(
                                   MatchSemantics::kIsomorphism, 8,
                                   vendor_text)),
            nullptr);
  // Warm loads touch neither hit nor miss counters.
  PlanStore::Counters c = store.counters();
  EXPECT_EQ(c.hits, 0u);
  EXPECT_EQ(c.misses, 0u);

  // A capped pass loads only the most recently used plan.
  PlanStore capped(dir);
  PreparedQueryCache small(8);
  EXPECT_EQ(capped.WarmLoad(g, fp, /*max_plans=*/1, &small), 1u);
  EXPECT_NE(small.Get(prefix + PreparedQueryKeyBody(
                                   MatchSemantics::kIsomorphism, 8,
                                   vendor_text)),
            nullptr);
  EXPECT_EQ(small.Get(prefix + PreparedQueryKeyBody(
                                   MatchSemantics::kIsomorphism, 8,
                                   review_text)),
            nullptr);
}

TEST(PlanStoreTest, WarmLoadSkipsForeignPlansAndDeletesCorruptOnes) {
  Graph g = ReviewGraph();
  Figure1 other = MakeFigure1();
  Query review = MustParse(kReviewQuery, g);
  Query vendor = MustParse(kVendorQuery, g);
  uint64_t fp = GraphFingerprint(g);
  std::string review_text = WriteQuery(review, g);
  std::string vendor_text = WriteQuery(vendor, g);
  std::string dir = FreshDir("warm_mixed");
  std::string corrupt_file;
  {
    PlanStore store(dir);
    store.SaveAsync(Prepare(g, review, MatchSemantics::kIsomorphism, 8),
                    review_text, 8, StampOf(g));
    store.SaveAsync(Prepare(g, vendor, MatchSemantics::kIsomorphism, 8),
                    vendor_text, 8, StampOf(g));
    // A third plan for an unrelated graph shares the directory.
    store.SaveAsync(
        Prepare(other.graph, other.query, MatchSemantics::kIsomorphism, 8),
        WriteQuery(other.query, other.graph), 8, StampOf(other.graph));
    store.Flush();
    std::string body =
        PreparedQueryKeyBody(MatchSemantics::kIsomorphism, 8, vendor_text);
    corrupt_file = dir + "/" + PlanFileName(PlanKeyHash(fp, body));
  }
  // Corrupt the vendor plan's first payload byte.
  std::string bytes = ReadAll(corrupt_file);
  PlanSection first;
  std::memcpy(&first, bytes.data() + sizeof(PlanHeader), sizeof(first));
  bytes[first.offset] = static_cast<char>(bytes[first.offset] ^ 0x01);
  WriteAll(corrupt_file, bytes);

  PlanStore store(dir);
  ASSERT_EQ(store.file_count(), 3u);
  PreparedQueryCache cache(8);
  EXPECT_EQ(store.WarmLoad(g, fp, 16, &cache), 1u);  // only the review plan
  EXPECT_EQ(cache.size(), 1u);
  store.Flush();
  PlanStore::Counters c = store.counters();
  EXPECT_EQ(c.invalid, 1u);
  EXPECT_FALSE(FileExists(corrupt_file));
  EXPECT_EQ(store.file_count(), 2u);  // the foreign plan was left alone
}

TEST(PlanStoreTest, OnUpdateDeletesDroppedAndRestampsCarriedPlans) {
  Graph g = ReviewGraph();
  Graph next;
  UpdateResult r;
  ASSERT_TRUE(g.ApplyUpdate(DisjointBatch(g), &next, &r)) << r.error;
  Query review = MustParse(kReviewQuery, g);
  Query vendor = MustParse(kVendorQuery, g);
  uint64_t old_fp = GraphFingerprint(g);
  uint64_t new_fp = GraphFingerprint(next);
  ASSERT_NE(old_fp, new_fp);
  std::string review_text = WriteQuery(review, g);
  std::string vendor_text = WriteQuery(vendor, g);
  std::string review_body =
      PreparedQueryKeyBody(MatchSemantics::kIsomorphism, 8, review_text);
  std::string vendor_body =
      PreparedQueryKeyBody(MatchSemantics::kIsomorphism, 8, vendor_text);

  PlanStore store(FreshDir("on_update"));
  store.SaveAsync(Prepare(g, review, MatchSemantics::kIsomorphism, 8),
                  review_text, 8, StampOf(g));
  store.SaveAsync(Prepare(g, vendor, MatchSemantics::kIsomorphism, 8),
                  vendor_text, 8, StampOf(g));
  store.Flush();
  ASSERT_EQ(store.file_count(), 2u);

  // Pretend the update dropped the review plan and carried the vendor one
  // (what ApplyDelta decides for an intersecting/disjoint footprint).
  store.OnUpdate(old_fp, StampOf(next), {review_body}, {vendor_body});
  store.Flush();

  PlanStore::Counters c = store.counters();
  EXPECT_EQ(c.invalid, 1u);   // the dropped plan's epoch is gone
  EXPECT_EQ(c.writes, 3u);    // two saves + one restamp
  EXPECT_EQ(store.file_count(), 1u);
  // The carried plan now answers probes for the NEW epoch...
  auto carried = store.TryLoad(next, new_fp, MatchSemantics::kIsomorphism, 8,
                               WriteQuery(MustParse(kVendorQuery, next), next));
  EXPECT_NE(carried, nullptr);
  // ...and neither old-epoch plan resolves anymore.
  EXPECT_EQ(
      store.TryLoad(g, old_fp, MatchSemantics::kIsomorphism, 8, review_text),
      nullptr);
  EXPECT_EQ(
      store.TryLoad(g, old_fp, MatchSemantics::kIsomorphism, 8, vendor_text),
      nullptr);
}

// Runs TryLoad probes from several threads against writer-thread save and
// eviction churn. The suite name keeps it under the CI TSan filter.
TEST(PlanStoreConcurrencyTest, LoadsRaceEvictionsWithoutTearing) {
  Graph g = ReviewGraph();
  uint64_t fp = GraphFingerprint(g);
  std::vector<Query> queries;
  std::vector<std::string> texts;
  std::vector<std::shared_ptr<const PreparedQuery>> prepared;
  const char* dsl[] = {
      kReviewQuery, kVendorQuery, "node p Product\noutput p\n",
      "node r Review rating >= i:4\nnode p Product\nedge r p reviewOf\n"
      "output r\n"};
  for (const char* text : dsl) {
    queries.push_back(MustParse(text, g));
    texts.push_back(WriteQuery(queries.back(), g));
    prepared.push_back(
        Prepare(g, queries.back(), MatchSemantics::kIsomorphism, 8));
  }

  uint64_t one;
  {
    PlanStore probe(FreshDir("race_probe"));
    probe.SaveAsync(prepared[0], texts[0], 8, StampOf(g));
    probe.Flush();
    one = probe.stored_bytes();
  }
  // Budget for ~2 plans: every save round forces evictions under the
  // readers' feet.
  PlanStore store(FreshDir("race"), /*byte_budget=*/2 * one + one / 2);

  constexpr int kRounds = 40;
  std::vector<std::thread> readers;
  std::vector<uint64_t> probes(queries.size(), 0);
  for (size_t t = 0; t < queries.size(); ++t) {
    readers.emplace_back([&, t] {
      for (int i = 0; i < kRounds; ++i) {
        auto p = store.TryLoad(g, fp, MatchSemantics::kIsomorphism, 8,
                               texts[t]);
        if (p != nullptr) {
          EXPECT_EQ(p->answers, prepared[t]->answers);
        }
        ++probes[t];
      }
    });
  }
  for (int i = 0; i < kRounds; ++i) {
    for (size_t t = 0; t < queries.size(); ++t) {
      store.SaveAsync(prepared[t], texts[t], 8, StampOf(g));
    }
  }
  for (std::thread& th : readers) th.join();
  store.Flush();

  PlanStore::Counters c = store.counters();
  uint64_t total = 0;
  for (uint64_t p : probes) total += p;
  // Every probe resolved to exactly one of hit/miss; nothing was lost.
  EXPECT_EQ(c.hits + c.misses, total);
  EXPECT_EQ(c.invalid, 0u);  // eviction churn never serves a broken plan
  EXPECT_LE(store.stored_bytes(), store.byte_budget());
}

// ---------------------------------------------------------------------------
// ApplyDelta LRU preservation (the rekey-recency fix)
// ---------------------------------------------------------------------------

TEST(PreparedCacheLruTest, RekeyedEntriesKeepTheirEvictionOrder) {
  Graph g = ReviewGraph();
  Graph next;
  UpdateResult r;
  ASSERT_TRUE(g.ApplyUpdate(DisjointBatch(g), &next, &r)) << r.error;

  // Three review-footprint queries (all disjoint from the vendor delta),
  // cached in insertion order A, B, C; touching A makes B the LRU entry.
  const char* dsl[] = {
      kReviewQuery,
      "node r Review rating >= i:4\nnode p Product\nedge r p reviewOf\n"
      "output r\n",
      "node r Review rating >= i:5\nnode p Product\nedge r p reviewOf\n"
      "output r\n"};
  PreparedQueryCache cache(3);
  std::vector<std::string> old_keys;
  std::vector<std::string> bodies;
  for (const char* text : dsl) {
    Query q = MustParse(text, g);
    std::string canonical = WriteQuery(q, g);
    bodies.push_back(
        PreparedQueryKeyBody(MatchSemantics::kIsomorphism, 8, canonical));
    old_keys.push_back(GraphEpochPrefix(g) + bodies.back());
    cache.Put(old_keys.back(),
              Prepare(g, q, MatchSemantics::kIsomorphism, 8));
  }
  ASSERT_NE(cache.Get(old_keys[0]), nullptr);  // recency now: A, C, B

  PreparedQueryCache::DeltaOutcome outcome = cache.ApplyDelta(
      GraphEpochPrefix(g), GraphEpochPrefix(next), r.delta);
  EXPECT_EQ(outcome.invalidated, 0u);
  EXPECT_EQ(outcome.rekeyed, 3u);
  EXPECT_EQ(cache.size(), 3u);

  // A fourth insert must evict B — the entry that was least recent BEFORE
  // the update. A rekey that reinserted entries (instead of renaming the
  // list nodes in place) would have scrambled this order.
  Query vendor = MustParse(kVendorQuery, next);
  cache.Put(PreparedQueryKey(vendor, next, MatchSemantics::kIsomorphism, 8),
            Prepare(next, vendor, MatchSemantics::kIsomorphism, 8));
  std::string new_prefix = GraphEpochPrefix(next);
  EXPECT_NE(cache.Get(new_prefix + bodies[0]), nullptr);  // A survives
  EXPECT_EQ(cache.Get(new_prefix + bodies[1]), nullptr);  // B evicted
  EXPECT_NE(cache.Get(new_prefix + bodies[2]), nullptr);  // C survives
}

TEST(PreparedCacheLruTest, RekeyCollisionKeepsTheNewEpochEntry) {
  Graph g = ReviewGraph();
  Graph next;
  UpdateResult r;
  ASSERT_TRUE(g.ApplyUpdate(DisjointBatch(g), &next, &r)) << r.error;
  Query q_old = MustParse(kReviewQuery, g);
  Query q_new = MustParse(kReviewQuery, next);
  std::string body = PreparedQueryKeyBody(MatchSemantics::kIsomorphism, 8,
                                          WriteQuery(q_old, g));

  PreparedQueryCache cache(4);
  auto carried = Prepare(g, q_old, MatchSemantics::kIsomorphism, 8);
  auto resident = Prepare(next, q_new, MatchSemantics::kIsomorphism, 8);
  cache.Put(GraphEpochPrefix(g) + body, carried);
  cache.Put(GraphEpochPrefix(next) + body, resident);
  ASSERT_EQ(cache.size(), 2u);

  cache.ApplyDelta(GraphEpochPrefix(g), GraphEpochPrefix(next), r.delta);
  // The carried duplicate is dropped; the entry already living under the
  // new epoch's key survives with its own value.
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Get(GraphEpochPrefix(next) + body), resident);
}

// ---------------------------------------------------------------------------
// Service integration: restart warm path, counters, update mirroring
// ---------------------------------------------------------------------------

ServiceRequest WhyRequest(const std::string& query_text, NodeId entity) {
  ServiceRequest req;
  req.kind = RequestKind::kWhy;
  req.query_text = query_text;
  req.entities = {entity};
  return req;
}

TEST(PlanServiceTest, RestartServesTheFirstRepeatedQuestionWarm) {
  std::string dir = FreshDir("svc_restart");
  {
    ServiceConfig sc;
    sc.workers = 1;
    sc.plan_store = std::make_shared<PlanStore>(dir);
    WhyqService svc(ReviewGraph(), sc);
    ServiceResponse resp = svc.Execute(WhyRequest(kReviewQuery, 1));
    ASSERT_EQ(resp.status, ResponseStatus::kOk) << resp.error;
    EXPECT_FALSE(resp.cache_hit);
    sc.plan_store->Flush();
    StatsSnapshot s = svc.Stats();
    EXPECT_EQ(s.plan_store_misses, 1u);
    EXPECT_EQ(s.plan_store_writes, 1u);
    EXPECT_EQ(s.plan_store_hits + s.plan_store_misses, s.cache_misses);
  }
  // A NEW process over an equal-content graph (fresh identity — the plan
  // relocates by fingerprint): the boot warm pass fills the cache, so the
  // very first repeated question is a memory-cache hit.
  {
    ServiceConfig sc;
    sc.workers = 1;
    sc.plan_store = std::make_shared<PlanStore>(dir);
    WhyqService svc(ReviewGraph(), sc);
    ServiceResponse resp = svc.Execute(WhyRequest(kReviewQuery, 1));
    ASSERT_EQ(resp.status, ResponseStatus::kOk) << resp.error;
    EXPECT_TRUE(resp.cache_hit);
    StatsSnapshot s = svc.Stats();
    EXPECT_EQ(s.plan_store_misses, 0u);  // warm pass counts no miss/hit
    EXPECT_EQ(s.plan_store_hits, 0u);
  }
  // With the memory cache disabled the same restart probes the store on
  // the request path: a store hit that still counts as a cache miss.
  {
    ServiceConfig sc;
    sc.workers = 1;
    sc.cache_capacity = 0;
    sc.plan_store = std::make_shared<PlanStore>(dir);
    WhyqService svc(ReviewGraph(), sc);
    ServiceResponse resp = svc.Execute(WhyRequest(kReviewQuery, 1));
    ASSERT_EQ(resp.status, ResponseStatus::kOk) << resp.error;
    EXPECT_FALSE(resp.cache_hit);
    StatsSnapshot s = svc.Stats();
    EXPECT_EQ(s.plan_store_hits, 1u);
    EXPECT_EQ(s.cache_misses, 1u);
    EXPECT_EQ(s.plan_store_hits + s.plan_store_misses, s.cache_misses);
  }
}

TEST(PlanServiceTest, ApplyUpdateMirrorsVerdictsOntoStoredPlans) {
  std::string dir = FreshDir("svc_update");
  ServiceConfig sc;
  sc.workers = 1;
  sc.plan_store = std::make_shared<PlanStore>(dir);
  WhyqService svc(ReviewGraph(), sc);

  ASSERT_EQ(svc.Execute(WhyRequest(kReviewQuery, 1)).status,
            ResponseStatus::kOk);
  ASSERT_EQ(svc.Execute(WhyRequest(kVendorQuery, 5)).status,
            ResponseStatus::kOk);
  sc.plan_store->Flush();
  ASSERT_EQ(sc.plan_store->file_count(), 2u);

  // The rating update intersects the review footprint only: the review
  // plan dies with its epoch, the vendor plan is restamped and carried.
  UpdateResult result;
  ASSERT_TRUE(svc.ApplyUpdate(IntersectingBatch(), &result)) << result.error;
  sc.plan_store->Flush();
  StatsSnapshot s = svc.Stats();
  EXPECT_EQ(s.cache_invalidated, 1u);
  EXPECT_EQ(s.cache_rekeyed, 1u);
  EXPECT_EQ(s.plan_store_invalid, 1u);
  EXPECT_EQ(s.plan_store_writes, 3u);  // two saves + one restamp
  EXPECT_EQ(sc.plan_store->file_count(), 1u);

  // The carried vendor plan still serves (memory cache hit after rekey);
  // the dropped review plan must be re-prepared from scratch.
  ServiceResponse vendor = svc.Execute(WhyRequest(kVendorQuery, 5));
  EXPECT_TRUE(vendor.cache_hit);
  ServiceResponse review = svc.Execute(WhyRequest(kReviewQuery, 1));
  ASSERT_EQ(review.status, ResponseStatus::kOk) << review.error;
  EXPECT_FALSE(review.cache_hit);
}

// ---------------------------------------------------------------------------
// Counter-pinned equivalence: a loaded plan answers like a fresh build
// ---------------------------------------------------------------------------

TEST(PlanEquivalenceTest, LoadedPlanAnswersByteIdenticallyUnderBothSemantics) {
  Figure1 fig = MakeFigure1();
  for (MatchSemantics sem :
       {MatchSemantics::kIsomorphism, MatchSemantics::kSimulation}) {
    SCOPED_TRACE(static_cast<int>(sem));
    auto fresh = Prepare(fig.graph, fig.query, sem, 8);

    CompiledPlan plan =
        PlanFromPrepared(*fresh, WriteQuery(fig.query, fig.graph), 8);
    std::string path = TempPath("equiv.plan");
    std::string error;
    ASSERT_TRUE(WritePlanFile(plan, StampOf(fig.graph), path, &error))
        << error;
    CompiledPlan loaded_plan;
    PlanStamp stamp;
    ASSERT_TRUE(LoadPlanFile(path, &loaded_plan, &stamp, &error)) << error;
    auto loaded = PreparedFromPlan(loaded_plan, fig.graph, &error);
    ASSERT_NE(loaded, nullptr) << error;
    ASSERT_EQ(loaded->answers, fresh->answers);

    // The same Why question answered from both artifact sets — every
    // result field and work counter must agree, or the loaded plan did
    // different work than the build it claims to cache.
    AnswerConfig cfg;
    cfg.semantics = sem;
    WhyQuestion why{{fig.a5, fig.s5}};
    cfg.path_index = &fresh->path_index;
    RewriteAnswer a = ApproxWhy(fig.graph, fresh->query, fresh->answers, why,
                                cfg);
    cfg.path_index = &loaded->path_index;
    RewriteAnswer b = ApproxWhy(fig.graph, loaded->query, loaded->answers,
                                why, cfg);
    EXPECT_EQ(a.found, b.found);
    EXPECT_EQ(a.Explain(fig.graph), b.Explain(fig.graph));
    EXPECT_EQ(a.cost, b.cost);
    EXPECT_EQ(a.estimated_closeness, b.estimated_closeness);
    EXPECT_EQ(a.picky_count, b.picky_count);
    EXPECT_EQ(a.sets_verified, b.sets_verified);
    EXPECT_EQ(a.ctx.hits, b.ctx.hits);
    EXPECT_EQ(a.ctx.misses, b.ctx.misses);
    EXPECT_EQ(a.ctx.pruned, b.ctx.pruned);

    // And the same for a Why-not question over the loaded candidates.
    WhyNotQuestion whynot;
    whynot.missing = {fig.s8, fig.s9};
    cfg.path_index = &fresh->path_index;
    RewriteAnswer c = FastWhyNot(fig.graph, fresh->query, fresh->answers,
                                 whynot, cfg);
    cfg.path_index = &loaded->path_index;
    RewriteAnswer d = FastWhyNot(fig.graph, loaded->query, loaded->answers,
                                 whynot, cfg);
    EXPECT_EQ(c.found, d.found);
    EXPECT_EQ(c.Explain(fig.graph), d.Explain(fig.graph));
    EXPECT_EQ(c.cost, d.cost);
    EXPECT_EQ(c.sets_verified, d.sets_verified);
  }
}

}  // namespace
}  // namespace whyq
