// Frozen snapshot coverage in three layers:
//   1. deep round-trip equality: Write → Load reproduces every public
//      observation of the graph (labels, attribute tuples, adjacency in
//      order, label slices, buckets, attribute ranges, dictionaries) on
//      the Fig. 1 fixture, BSBM, a random profile graph, and the empty
//      graph;
//   2. counter-pinned equivalence: matcher answers AND work counters are
//      bit-identical between the heap-built graph and the mmap-backed
//      one, with and without a MatchContext, under both semantics;
//   3. rejection: truncated, corrupted, wrong-version, wrong-magic, and
//      fingerprint-tampered images all fail Load with an error instead
//      of serving garbage (the checksum covers the header prefix and
//      section table, not just payload bytes).

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gen/bsbm.h"
#include "gen/figure1.h"
#include "gen/profiles.h"
#include "gen/query_gen.h"
#include "graph/snapshot.h"
#include "matcher/match_context.h"
#include "matcher/match_engine.h"
#include "matcher/matcher.h"

namespace whyq {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "whyq_" + name;
}

std::string WriteSnapshotOrDie(const Graph& g, const std::string& name) {
  std::string path = TempPath(name);
  std::string err;
  EXPECT_TRUE(GraphSnapshot::Write(g, path, &err)) << err;
  return path;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<long>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

void ExpectSameDict(const Dictionary& a, const Dictionary& b) {
  ASSERT_EQ(a.size(), b.size());
  for (SymbolId i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.NameOf(i), b.NameOf(i)) << "symbol " << i;
  }
}

std::vector<NodeId> ToVec(NodeSpan s) {
  return std::vector<NodeId>(s.begin(), s.end());
}

// Every public observation of `b` must match `a` — the loaded graph is
// indistinguishable from the built one.
void ExpectSameGraph(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.edge_count(), b.edge_count());
  ExpectSameDict(a.node_labels(), b.node_labels());
  ExpectSameDict(a.edge_labels(), b.edge_labels());
  ExpectSameDict(a.attr_names(), b.attr_names());
  for (NodeId v = 0; v < a.node_count(); ++v) {
    EXPECT_EQ(a.label(v), b.label(v)) << "node " << v;
    AttrSpan at = a.attrs(v);
    AttrSpan bt = b.attrs(v);
    ASSERT_EQ(at.size(), bt.size()) << "node " << v;
    for (size_t i = 0; i < at.size(); ++i) {
      EXPECT_EQ(at[i].attr, bt[i].attr);
      EXPECT_EQ(at[i].value.ToString(), bt[i].value.ToString());
    }
    for (bool forward : {true, false}) {
      EdgeSpan ae = forward ? a.out_edges(v) : a.in_edges(v);
      EdgeSpan be = forward ? b.out_edges(v) : b.in_edges(v);
      ASSERT_EQ(ae.size(), be.size()) << "node " << v;
      for (size_t i = 0; i < ae.size(); ++i) {
        EXPECT_EQ(ae[i].other, be[i].other);
        EXPECT_EQ(ae[i].label, be[i].label);
      }
    }
    // Label-partitioned adjacency agrees slice by slice.
    for (SymbolId l = 0; l < a.edge_labels().size(); ++l) {
      EXPECT_EQ(ToVec(a.LabeledOutNeighbors(v, l)),
                ToVec(b.LabeledOutNeighbors(v, l)));
      EXPECT_EQ(ToVec(a.LabeledInNeighbors(v, l)),
                ToVec(b.LabeledInNeighbors(v, l)));
    }
  }
  for (SymbolId l = 0; l < a.node_labels().size(); ++l) {
    EXPECT_EQ(ToVec(a.NodesWithLabel(l)), ToVec(b.NodesWithLabel(l)))
        << "label " << l;
  }
  for (SymbolId attr = 0; attr < a.attr_names().size(); ++attr) {
    const AttrRange* ar = a.RangeOf(attr);
    const AttrRange* br = b.RangeOf(attr);
    ASSERT_EQ(ar == nullptr, br == nullptr) << "attr " << attr;
    if (ar == nullptr) continue;
    EXPECT_EQ(ar->min, br->min);
    EXPECT_EQ(ar->max, br->max);
    EXPECT_EQ(ar->numeric, br->numeric);
    EXPECT_EQ(ar->count, br->count);
  }
  EXPECT_EQ(GraphFingerprint(a), GraphFingerprint(b));
}

TEST(SnapshotRoundTripTest, Figure1IsReproducedExactly) {
  Figure1 f = MakeFigure1();
  std::string path = WriteSnapshotOrDie(f.graph, "fig1.snap");
  std::string err;
  std::unique_ptr<GraphSnapshot> snap = GraphSnapshot::Load(path, &err);
  ASSERT_NE(snap, nullptr) << err;
  EXPECT_GT(snap->mapped_bytes(), sizeof(SnapHeader));
  EXPECT_EQ(snap->fingerprint(), GraphFingerprint(f.graph));
  ExpectSameGraph(f.graph, snap->graph());
}

TEST(SnapshotRoundTripTest, BsbmAndProfileGraphsSurvive) {
  BsbmConfig bc;
  bc.products = 120;
  bc.seed = 17;
  Graph bsbm = GenerateBsbm(bc);
  Graph prof = GenerateProfile(DatasetProfile::kDBpedia, 800, 29);
  int idx = 0;
  for (const Graph* g : {&bsbm, &prof}) {
    std::string path =
        WriteSnapshotOrDie(*g, "rt" + std::to_string(idx++) + ".snap");
    std::string err;
    std::unique_ptr<GraphSnapshot> snap = GraphSnapshot::Load(path, &err);
    ASSERT_NE(snap, nullptr) << err;
    ExpectSameGraph(*g, snap->graph());
  }
}

TEST(SnapshotRoundTripTest, EmptyGraphSurvives) {
  Graph empty;
  std::string path = WriteSnapshotOrDie(empty, "empty.snap");
  std::string err;
  std::unique_ptr<GraphSnapshot> snap = GraphSnapshot::Load(path, &err);
  ASSERT_NE(snap, nullptr) << err;
  EXPECT_EQ(snap->graph().node_count(), 0u);
  EXPECT_EQ(snap->graph().edge_count(), 0u);
}

TEST(SnapshotRoundTripTest, WriteIsDeterministic) {
  Figure1 f = MakeFigure1();
  std::string a = WriteSnapshotOrDie(f.graph, "det_a.snap");
  std::string b = WriteSnapshotOrDie(f.graph, "det_b.snap");
  EXPECT_EQ(ReadAll(a), ReadAll(b));
}

// --- Golden bytes. --------------------------------------------------------

// xxd's hex columns for bytes [0, n): 16 bytes per line, in pairs.
std::string HexRows(const std::string& bytes, size_t n) {
  std::string out;
  char buf[3];
  for (size_t i = 0; i < n && i < bytes.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%02x",
                  static_cast<unsigned char>(bytes[i]));
    out += buf;
    if (i % 16 == 15) {
      out += '\n';
    } else if (i % 2 == 1) {
      out += ' ';
    }
  }
  return out;
}

// The worked example of docs/SNAPSHOT_FORMAT.md: the header carries the
// payload checksum, so header + the zero-padding test below pin the file.
TEST(SnapshotGoldenTest, Figure1HeaderMatchesTheFormatDoc) {
  Figure1 f = MakeFigure1();
  std::string image = ReadAll(WriteSnapshotOrDie(f.graph, "golden.snap"));
  EXPECT_EQ(image.size(), 3712u);
  EXPECT_EQ(HexRows(image, 64),
            "5748 5951 534e 5031 0100 0000 0403 0201\n"
            "4000 0000 1400 0000 800e 0000 0000 0000\n"
            "0c00 0000 0000 0000 1400 0000 0000 0000\n"
            "8d9d e929 65fb adc7 7ed6 d219 4efc 14b8\n");
  SnapHeader hdr;
  std::memcpy(&hdr, image.data(), sizeof(hdr));
  EXPECT_EQ(hdr.payload_hash, 0xb814fc4e19d2d67eull);
  EXPECT_EQ(hdr.fingerprint, 0xc7adfb6529e99d8dull);
}

TEST(SnapshotGoldenTest, EveryByteOutsideAPayloadIsZero) {
  Figure1 f = MakeFigure1();
  std::string image = ReadAll(WriteSnapshotOrDie(f.graph, "zeros.snap"));
  std::vector<bool> payload(image.size(), false);
  const size_t table_end =
      sizeof(SnapHeader) + kSnapshotSectionCount * sizeof(SnapSection);
  ASSERT_LE(table_end, image.size());
  for (size_t at = 0; at < table_end; ++at) payload[at] = true;
  for (uint32_t i = 0; i < kSnapshotSectionCount; ++i) {
    SnapSection s;
    std::memcpy(&s, image.data() + sizeof(SnapHeader) + i * sizeof(s),
                sizeof(s));
    EXPECT_EQ(s.reserved, 0u) << "section " << i;
    ASSERT_LE(s.offset + s.bytes, image.size()) << "section " << i;
    for (uint64_t at = s.offset; at < s.offset + s.bytes; ++at) {
      payload[at] = true;
    }
  }
  for (size_t at = 0; at < image.size(); ++at) {
    if (!payload[at]) {
      EXPECT_EQ(image[at], '\0') << "byte " << at;
    }
  }
}

// --- Counter-pinned equivalence. ----------------------------------------

struct MatchRun {
  std::vector<NodeId> answers;
  std::vector<uint8_t> tested;
  MatcherStats stats;
};

// MatchOutput then TestAnswers, over one context reused by both calls or
// over a fresh context per call; the stats are those of the matcher that
// ran TestAnswers.
MatchRun RunIso(const Graph& g, const Query& q, const std::vector<NodeId>& probes,
           bool reuse_context) {
  Matcher first(g);
  Matcher fresh(g);
  Matcher& second = reuse_context ? first : fresh;
  MatchRun r;
  r.answers = first.MatchOutput(q);
  r.tested = second.TestAnswers(q, probes);
  r.stats = second.stats();
  return r;
}

void ExpectSameCounters(const MatcherStats& a, const MatcherStats& b) {
  EXPECT_EQ(a.embeddings_tried, b.embeddings_tried);
  EXPECT_EQ(a.iso_tests, b.iso_tests);
  EXPECT_EQ(a.ctx_hits, b.ctx_hits);
  EXPECT_EQ(a.ctx_misses, b.ctx_misses);
  EXPECT_EQ(a.ctx_delta_builds, b.ctx_delta_builds);
  EXPECT_EQ(a.ctx_pruned, b.ctx_pruned);
  EXPECT_EQ(a.ctx_arena_bytes, b.ctx_arena_bytes);
}

TEST(SnapshotEquivalenceTest, MatcherCountersArePinnedBothSemantics) {
  BsbmConfig bc;
  bc.products = 200;
  bc.seed = 23;
  Graph built = GenerateBsbm(bc);
  std::string path = WriteSnapshotOrDie(built, "equiv.snap");
  std::string err;
  std::unique_ptr<GraphSnapshot> snap = GraphSnapshot::Load(path, &err);
  ASSERT_NE(snap, nullptr) << err;
  const Graph& mapped = snap->graph();

  Rng rng(5);
  QueryGenConfig qc;
  qc.edges = 3;
  qc.literals_per_node = 2;
  qc.min_answers = 1;
  std::optional<GeneratedQuery> gen = GenerateQuery(built, qc, rng);
  ASSERT_TRUE(gen.has_value());
  const Query& q = gen->query;
  std::vector<NodeId> probes = gen->answers;
  for (int i = 0; i < 16; ++i) {
    probes.push_back(static_cast<NodeId>(rng.Index(built.node_count())));
  }

  // Matcher counters pinned exactly, with a reused or a fresh context.
  for (bool reuse_context : {false, true}) {
    MatchRun heap = RunIso(built, q, probes, reuse_context);
    MatchRun mmapd = RunIso(mapped, q, probes, reuse_context);
    EXPECT_EQ(heap.answers, mmapd.answers) << "reuse " << reuse_context;
    EXPECT_EQ(heap.tested, mmapd.tested);
    ExpectSameCounters(heap.stats, mmapd.stats);
  }

  // Engine-level answers pinned under both semantics.
  for (MatchSemantics sem :
       {MatchSemantics::kIsomorphism, MatchSemantics::kSimulation}) {
    MatchContext heap_ctx(built);
    MatchContext map_ctx(mapped);
    std::unique_ptr<MatchEngine> on_heap = MakeMatchEngine(heap_ctx, sem);
    std::unique_ptr<MatchEngine> on_map = MakeMatchEngine(map_ctx, sem);
    EXPECT_EQ(on_heap->MatchOutput(q), on_map->MatchOutput(q));
    EXPECT_EQ(on_heap->TestAnswers(q, probes), on_map->TestAnswers(q, probes));
  }
}

// --- Rejection of damaged images. ---------------------------------------

class SnapshotRejectTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Figure1 f = MakeFigure1();
    path_ = WriteSnapshotOrDie(f.graph, "reject.snap");
    image_ = ReadAll(path_);
    ASSERT_GT(image_.size(), sizeof(SnapHeader));
  }

  // Writes a mutated copy and expects Load to reject it with an error
  // message containing `expect_msg`.
  void ExpectRejected(const std::string& bytes, const std::string& name,
                      const std::string& expect_msg) {
    std::string mutated = TempPath(name);
    WriteAll(mutated, bytes);
    std::string err;
    std::unique_ptr<GraphSnapshot> snap = GraphSnapshot::Load(mutated, &err);
    EXPECT_EQ(snap, nullptr) << name;
    EXPECT_NE(err.find(expect_msg), std::string::npos)
        << name << ": got error '" << err << "'";
  }

  std::string path_;
  std::string image_;
};

TEST_F(SnapshotRejectTest, BucketNodeOutOfRange) {
  // A well-formed, checksummed image whose label bucket names a node past
  // |V|: Load builds the typed attribute columns over the buckets, so it
  // must reject the image before indexing with it.
  const ImageFormat format{"snapshot", kSnapshotMagic, kSnapshotVersion,
                           kSnapshotSectionCount};
  std::vector<uint64_t> aligned((image_.size() + 7) / 8);
  std::memcpy(aligned.data(), image_.data(), image_.size());
  ImageRegion sec[kSnapshotSectionCount];
  std::string err;
  ASSERT_TRUE(ValidateImage(format, aligned.data(), image_.size(), path_,
                            sec, &err))
      << err;
  SnapHeader hdr;
  std::memcpy(&hdr, aligned.data(), sizeof(hdr));
  const ImageRegion& b = sec[kSecBucketNodes];
  std::vector<NodeId> bucket(b.Rows<NodeId>(),
                             b.Rows<NodeId>() + b.RowCount<NodeId>());
  ASSERT_FALSE(bucket.empty());
  bucket.back() = static_cast<NodeId>(hdr.node_count);
  sec[kSecBucketNodes] = ImageRegion::Of(bucket);
  const uint64_t words[kImageFormatWords] = {hdr.node_count, hdr.edge_count,
                                             hdr.fingerprint};
  std::string path = TempPath("bucket_range.snap");
  ASSERT_TRUE(WriteImage(format, words, sec, path, nullptr, &err)) << err;
  EXPECT_EQ(GraphSnapshot::Load(path, &err), nullptr);
  EXPECT_NE(err.find("label bucket node out of range"), std::string::npos)
      << err;
}

TEST_F(SnapshotRejectTest, GoodImageLoads) {
  std::string err;
  EXPECT_NE(GraphSnapshot::Load(path_, &err), nullptr) << err;
}

TEST_F(SnapshotRejectTest, MissingFile) {
  std::string err;
  EXPECT_EQ(GraphSnapshot::Load(TempPath("nonexistent.snap"), &err), nullptr);
  EXPECT_NE(err.find("cannot open"), std::string::npos) << err;
}

TEST_F(SnapshotRejectTest, TruncatedImage) {
  ExpectRejected(image_.substr(0, image_.size() / 2), "trunc.snap",
                 "truncated");
  ExpectRejected(image_.substr(0, sizeof(SnapHeader) / 2), "stub.snap",
                 "too small");
}

TEST_F(SnapshotRejectTest, EveryTruncationFailsToLoad) {
  std::string victim = TempPath("truncate_victim.snap");
  for (size_t len = 0; len < image_.size(); ++len) {
    WriteAll(victim, image_.substr(0, len));
    std::string err;
    EXPECT_EQ(GraphSnapshot::Load(victim, &err), nullptr)
        << "prefix of " << len << " bytes loaded";
  }
}

TEST_F(SnapshotRejectTest, EveryByteFlipFailsOrKeepsTheFingerprint) {
  // A flip either fails validation or lands in inter-section padding,
  // which the checksum does not cover; then the loaded graph must be the
  // original one. A flip that loads a different graph would be a
  // checksum coverage hole.
  const uint64_t fp = GraphFingerprint(MakeFigure1().graph);
  std::string victim = TempPath("flip_victim.snap");
  for (size_t i = 0; i < image_.size(); ++i) {
    std::string mutated = image_;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x01);
    WriteAll(victim, mutated);
    std::string err;
    std::unique_ptr<GraphSnapshot> snap = GraphSnapshot::Load(victim, &err);
    if (snap == nullptr) continue;
    EXPECT_EQ(GraphFingerprint(snap->graph()), fp) << "flip at byte " << i;
  }
}

TEST_F(SnapshotRejectTest, CorruptPayloadByte) {
  // Flip the first byte of the first section's payload (trailing padding
  // is NOT covered by the checksum, so the mutation must land inside a
  // section, not merely inside the file).
  GraphSnapshot::Info info;
  std::string err;
  ASSERT_TRUE(GraphSnapshot::ReadInfo(path_, &info, &err)) << err;
  ASSERT_GT(info.sections[0].bytes, 0u);
  std::string bytes = image_;
  bytes[info.sections[0].offset] ^= 0x01;
  ExpectRejected(bytes, "corrupt.snap", "checksum");
}

TEST_F(SnapshotRejectTest, WrongMagic) {
  std::string bytes = image_;
  bytes[0] = 'x';
  ExpectRejected(bytes, "magic.snap", "bad magic");
}

TEST_F(SnapshotRejectTest, WrongVersion) {
  std::string bytes = image_;
  bytes[offsetof(SnapHeader, version)] =
      static_cast<char>(kSnapshotVersion + 1);
  ExpectRejected(bytes, "version.snap", "unsupported version");
}

TEST_F(SnapshotRejectTest, TamperedFingerprint) {
  // The checksum covers the header prefix, so flipping the stored
  // fingerprint is caught even though every payload byte is intact.
  std::string bytes = image_;
  bytes[offsetof(SnapHeader, fingerprint)] ^= 0x01;
  ExpectRejected(bytes, "fp.snap", "checksum");
}

TEST_F(SnapshotRejectTest, TamperedSectionTable) {
  std::string bytes = image_;
  // First section's offset field (id @+0, reserved @+4, offset @+8).
  size_t table_at = sizeof(SnapHeader);
  bytes[table_at + offsetof(SnapSection, offset)] ^= 0x01;
  ExpectRejected(bytes, "table.snap", "");
}

TEST_F(SnapshotRejectTest, ReadInfoReportsLayout) {
  GraphSnapshot::Info info;
  std::string err;
  ASSERT_TRUE(GraphSnapshot::ReadInfo(path_, &info, &err)) << err;
  EXPECT_EQ(info.version, kSnapshotVersion);
  EXPECT_EQ(info.file_bytes, image_.size());
  ASSERT_EQ(info.sections.size(), size_t{kSnapshotSectionCount});
  uint64_t prev_end = 0;
  for (uint32_t i = 0; i < kSnapshotSectionCount; ++i) {
    const SnapSection& s = info.sections[i];
    EXPECT_EQ(s.id, i);
    EXPECT_EQ(s.offset % kSnapshotSectionAlign, 0u);
    EXPECT_GE(s.offset, prev_end);
    EXPECT_LE(s.offset + s.bytes, info.file_bytes);
    prev_end = s.offset + s.bytes;
  }
  Figure1 f = MakeFigure1();
  EXPECT_EQ(info.node_count, f.graph.node_count());
  EXPECT_EQ(info.edge_count, f.graph.edge_count());
  EXPECT_EQ(info.fingerprint, GraphFingerprint(f.graph));
}

}  // namespace
}  // namespace whyq
