// Graph::ApplyUpdate: op semantics, atomic validation, epoch bookkeeping,
// copy-on-write column sharing, frozen-graph rejection, batch-file
// round-trips — and the load-bearing equivalence property: incremental
// materialization and ApplyUpdateByRebuild yield byte-identical graphs
// (same text serialization, same fingerprint) for every valid batch.

#include "graph/update.h"

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gen/bsbm.h"
#include "graph/graph.h"
#include "graph/graph_io.h"
#include "graph/snapshot.h"
#include "matcher/match_engine.h"
#include "query/query_parser.h"

namespace whyq {
namespace {

// 0 -> 1 -> 2 labeled "N" with idx attributes, plus a "B"-labeled spare.
Graph SmallGraph() {
  GraphBuilder b;
  for (int i = 0; i < 3; ++i) {
    NodeId v = b.AddNode("N");
    b.SetAttr(v, "idx", Value(static_cast<int64_t>(i)));
  }
  b.AddNode("B");
  b.AddEdge(0, 1, "next");
  b.AddEdge(1, 2, "next");
  return b.Build();
}

std::string Serialize(const Graph& g) {
  std::ostringstream os;
  WriteGraph(g, os);
  return os.str();
}

UpdateResult MustApply(const Graph& g, const UpdateBatch& batch, Graph* out) {
  UpdateResult result;
  EXPECT_TRUE(g.ApplyUpdate(batch, out, &result))
      << UpdateStatusName(result.status) << ": " << result.error;
  return result;
}

// ---------------------------------------------------------------------------
// Op semantics
// ---------------------------------------------------------------------------

TEST(UpdateOpsTest, AddNodeAllocatesDenseIdsSequentially) {
  Graph g = SmallGraph();
  UpdateBatch batch;
  batch.ops.push_back(UpdateOp::AddNode("N"));
  batch.ops.push_back(UpdateOp::AddNode("M"));
  // Ops apply sequentially: the node added above is addressable below.
  batch.ops.push_back(
      UpdateOp::AddEdge(static_cast<NodeId>(g.node_count()),
                        static_cast<NodeId>(g.node_count() + 1), "next"));
  Graph next;
  UpdateResult r = MustApply(g, batch, &next);
  EXPECT_EQ(next.node_count(), g.node_count() + 2);
  EXPECT_EQ(next.edge_count(), g.edge_count() + 1);
  EXPECT_EQ(r.delta.nodes_added, 2u);
  EXPECT_EQ(r.delta.edges_added, 1u);
  SymbolId m = *next.node_labels().Find("M");
  NodeSpan ms = next.NodesWithLabel(m);
  ASSERT_EQ(ms.size(), 1u);
  EXPECT_EQ(ms[0], static_cast<NodeId>(g.node_count() + 1));
}

TEST(UpdateOpsTest, DeleteNodeTombstonesAndDetaches) {
  Graph g = SmallGraph();
  UpdateBatch batch;
  batch.ops.push_back(UpdateOp::DeleteNode(1));
  Graph next;
  UpdateResult r = MustApply(g, batch, &next);
  // Ids stay dense and allocated; the node just vanishes from every index.
  EXPECT_EQ(next.node_count(), g.node_count());
  EXPECT_EQ(r.delta.nodes_deleted, 1u);
  EXPECT_EQ(next.attrs(1).size(), 0u);
  EXPECT_EQ(next.out_edges(1).size(), 0u);
  EXPECT_EQ(next.in_edges(1).size(), 0u);
  // Its incident edges are gone from the surviving endpoints too.
  EXPECT_EQ(next.out_edges(0).size(), 0u);
  EXPECT_EQ(next.in_edges(2).size(), 0u);
  EXPECT_EQ(next.edge_count(), 0u);
  // Re-bucketed under the tombstone label, out of its old bucket.
  SymbolId n_label = *next.node_labels().Find("N");
  for (NodeId v : next.NodesWithLabel(n_label)) EXPECT_NE(v, 1u);
  std::optional<SymbolId> dead = next.node_labels().Find(kTombstoneLabel);
  ASSERT_TRUE(dead.has_value());
  NodeSpan dead_nodes = next.NodesWithLabel(*dead);
  ASSERT_EQ(dead_nodes.size(), 1u);
  EXPECT_EQ(dead_nodes[0], 1u);
}

TEST(UpdateOpsTest, DuplicateAddEdgeIsANoOp) {
  Graph g = SmallGraph();
  UpdateBatch batch;
  batch.ops.push_back(UpdateOp::AddEdge(0, 1, "next"));  // already exists
  batch.ops.push_back(UpdateOp::AddEdge(0, 2, "next"));  // new
  Graph next;
  UpdateResult r = MustApply(g, batch, &next);
  EXPECT_EQ(r.delta.edges_added, 1u);
  EXPECT_EQ(next.edge_count(), g.edge_count() + 1);
}

TEST(UpdateOpsTest, SetAttrOverwritesAndDelAttrRemoves) {
  Graph g = SmallGraph();
  UpdateBatch batch;
  batch.ops.push_back(UpdateOp::SetAttr(0, "idx", Value(int64_t{42})));
  batch.ops.push_back(UpdateOp::SetAttr(0, "fresh", Value(std::string("x"))));
  batch.ops.push_back(UpdateOp::DelAttr(1, "idx"));
  Graph next;
  UpdateResult r = MustApply(g, batch, &next);
  EXPECT_EQ(r.delta.attrs_set, 2u);
  EXPECT_EQ(r.delta.attrs_deleted, 1u);
  EXPECT_EQ(next.GetAttr(0, *next.attr_names().Find("idx"))->as_int(), 42);
  EXPECT_EQ(next.GetAttr(0, *next.attr_names().Find("fresh"))->as_string(),
            "x");
  EXPECT_EQ(next.GetAttr(1, *next.attr_names().Find("idx")), nullptr);
}

// ---------------------------------------------------------------------------
// Validation: typed failures, atomicity
// ---------------------------------------------------------------------------

TEST(UpdateValidationTest, TypedStatusesAndFirstBadOpIndex) {
  Graph g = SmallGraph();
  struct Case {
    UpdateOp op;
    UpdateStatus want;
  };
  const Case cases[] = {
      {UpdateOp::DeleteNode(99), UpdateStatus::kNoSuchNode},
      {UpdateOp::AddEdge(0, 99, "next"), UpdateStatus::kNoSuchNode},
      {UpdateOp::DeleteEdge(0, 2, "next"), UpdateStatus::kNoSuchEdge},
      {UpdateOp::DelAttr(3, "idx"), UpdateStatus::kNoSuchAttr},
      {UpdateOp::AddNode(""), UpdateStatus::kBadOp},
      {UpdateOp::AddNode(kTombstoneLabel), UpdateStatus::kBadOp},
  };
  for (const Case& c : cases) {
    UpdateBatch batch;
    batch.ops.push_back(UpdateOp::SetAttr(0, "idx", Value(int64_t{7})));
    batch.ops.push_back(c.op);
    Graph next;
    UpdateResult result;
    EXPECT_FALSE(g.ApplyUpdate(batch, &next, &result));
    EXPECT_EQ(result.status, c.want) << result.error;
    EXPECT_EQ(result.failed_op, 1u);
    EXPECT_FALSE(result.error.empty());
    // Atomic: the valid first op must not have leaked anywhere.
    EXPECT_EQ(next.node_count(), 0u);
    EXPECT_EQ(g.GetAttr(0, *g.attr_names().Find("idx"))->as_int(), 0);
  }
}

TEST(UpdateValidationTest, TombstonedNodeIsNoSuchNode) {
  Graph g = SmallGraph();
  UpdateBatch batch;
  batch.ops.push_back(UpdateOp::DeleteNode(2));
  batch.ops.push_back(UpdateOp::SetAttr(2, "idx", Value(int64_t{1})));
  Graph next;
  UpdateResult result;
  EXPECT_FALSE(g.ApplyUpdate(batch, &next, &result));
  EXPECT_EQ(result.status, UpdateStatus::kNoSuchNode);
  EXPECT_EQ(result.failed_op, 1u);
}

// ---------------------------------------------------------------------------
// Epochs and copy-on-write sharing
// ---------------------------------------------------------------------------

TEST(UpdateEpochTest, GenerationBumpsIdentityPersists) {
  Graph g = SmallGraph();
  EXPECT_EQ(g.generation(), 0u);
  UpdateBatch batch;
  batch.ops.push_back(UpdateOp::AddNode("N"));
  Graph g1;
  MustApply(g, batch, &g1);
  Graph g2;
  MustApply(g1, batch, &g2);
  EXPECT_EQ(g1.generation(), 1u);
  EXPECT_EQ(g2.generation(), 2u);
  EXPECT_EQ(g1.identity(), g.identity());
  EXPECT_EQ(g2.identity(), g.identity());
  // Distinct logical graphs get distinct identities.
  EXPECT_NE(SmallGraph().identity(), g.identity());
}

TEST(UpdateEpochTest, AttrOnlyBatchSharesAdjacencyStorage) {
  Graph g = SmallGraph();
  UpdateBatch batch;
  batch.ops.push_back(UpdateOp::SetAttr(0, "idx", Value(int64_t{9})));
  Graph next;
  MustApply(g, batch, &next);
  // Adjacency untouched by the batch: the epochs alias the same rows.
  EXPECT_EQ(next.out_edges(0).data(), g.out_edges(0).data());
  EXPECT_EQ(next.in_edges(2).data(), g.in_edges(2).data());
  // Attribute storage was rebuilt; the base epoch kept its value.
  EXPECT_NE(next.attrs(0).data(), g.attrs(0).data());
  EXPECT_EQ(g.GetAttr(0, *g.attr_names().Find("idx"))->as_int(), 0);
}

TEST(UpdateEpochTest, EdgeOnlyBatchSharesAttributeStorage) {
  Graph g = SmallGraph();
  UpdateBatch batch;
  batch.ops.push_back(UpdateOp::AddEdge(2, 0, "next"));
  Graph next;
  MustApply(g, batch, &next);
  EXPECT_EQ(next.attrs(0).data(), g.attrs(0).data());
  EXPECT_NE(next.out_edges(2).data(), g.out_edges(2).data());
}

TEST(UpdateEpochTest, UntouchedLabelsAliasTheirAttrColumns) {
  GraphBuilder b;
  for (int i = 0; i < 3; ++i) {
    b.SetAttr(b.AddNode("N"), "idx", Value(static_cast<int64_t>(i)));
    b.SetAttr(b.AddNode("B"), "w", Value(static_cast<int64_t>(i)));
  }
  Graph g = b.Build();
  SymbolId n = *g.node_labels().Find("N");
  SymbolId bl = *g.node_labels().Find("B");
  SymbolId idx = *g.attr_names().Find("idx");
  SymbolId w = *g.attr_names().Find("w");
  ASSERT_NE(g.AttrColumnOf(n, idx), nullptr);
  EXPECT_EQ(g.AttrColumnOf(n, w), nullptr);

  // A batch touching one B tuple rebuilds B's columns only.
  UpdateBatch batch;
  batch.ops.push_back(UpdateOp::SetAttr(1, "w", Value(int64_t{9})));
  Graph next;
  MustApply(g, batch, &next);
  EXPECT_EQ(next.AttrColumnOf(n, idx), g.AttrColumnOf(n, idx));
  EXPECT_NE(next.AttrColumnOf(bl, w), g.AttrColumnOf(bl, w));
  EXPECT_EQ(next.AttrColumnOf(bl, w)->int_at(0), 9);
  EXPECT_EQ(g.AttrColumnOf(bl, w)->int_at(0), 0);

  // A new label is built; both old labels alias the previous epoch.
  UpdateBatch grow;
  grow.ops.push_back(UpdateOp::AddNode("C"));
  grow.ops.push_back(UpdateOp::SetAttr(6, "w", Value("c")));
  Graph third;
  MustApply(next, grow, &third);
  EXPECT_EQ(third.AttrColumnOf(n, idx), g.AttrColumnOf(n, idx));
  EXPECT_EQ(third.AttrColumnOf(bl, w), next.AttrColumnOf(bl, w));
  const AttrColumn* c =
      third.AttrColumnOf(*third.node_labels().Find("C"), w);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->strings, std::vector<std::string>{"c"});
}

// ---------------------------------------------------------------------------
// Frozen (snapshot-backed) graphs
// ---------------------------------------------------------------------------

TEST(UpdateFrozenTest, SnapshotBackedGraphRejectsUpdatesTyped) {
  Graph g = SmallGraph();
  std::string path = ::testing::TempDir() + "whyq_update_frozen.snap";
  std::string err;
  ASSERT_TRUE(GraphSnapshot::Write(g, path, &err)) << err;
  std::unique_ptr<GraphSnapshot> snap = GraphSnapshot::Load(path, &err);
  ASSERT_NE(snap, nullptr) << err;
  EXPECT_FALSE(g.frozen());
  EXPECT_TRUE(snap->graph().frozen());
  UpdateBatch batch;
  batch.ops.push_back(UpdateOp::AddNode("N"));
  Graph next;
  UpdateResult result;
  EXPECT_FALSE(snap->graph().ApplyUpdate(batch, &next, &result));
  EXPECT_EQ(result.status, UpdateStatus::kFrozen);
  EXPECT_FALSE(result.error.empty());
  EXPECT_STREQ(UpdateStatusName(UpdateStatus::kFrozen), "frozen");
}

// ---------------------------------------------------------------------------
// Batch text format round-trip
// ---------------------------------------------------------------------------

TEST(UpdateIoTest, BatchRoundTripsThroughTextFormat) {
  UpdateBatch batch;
  batch.ops.push_back(UpdateOp::AddNode("Review"));
  batch.ops.push_back(UpdateOp::DeleteNode(3));
  batch.ops.push_back(UpdateOp::AddEdge(4, 1, "reviewOf"));
  batch.ops.push_back(UpdateOp::DeleteEdge(0, 1, "next"));
  batch.ops.push_back(UpdateOp::SetAttr(4, "rating", Value(int64_t{5})));
  // Whitespace-free, like every string in the graph text format: both
  // formats tokenize on spaces (a format-wide constraint, not update-only).
  batch.ops.push_back(
      UpdateOp::SetAttr(4, "title", Value(std::string("a_b"))));
  batch.ops.push_back(UpdateOp::DelAttr(2, "idx"));
  std::ostringstream os;
  WriteUpdateBatch(batch, os);
  std::istringstream is(os.str());
  std::string err;
  std::optional<UpdateBatch> back = ReadUpdateBatch(is, &err);
  ASSERT_TRUE(back.has_value()) << err;
  ASSERT_EQ(back->size(), batch.size());
  std::ostringstream os2;
  WriteUpdateBatch(*back, os2);
  EXPECT_EQ(os.str(), os2.str());
}

TEST(UpdateIoTest, ParserReportsLineNumberedErrors) {
  std::istringstream is("# comment\nAN Review\nXX what\n");
  std::string err;
  EXPECT_FALSE(ReadUpdateBatch(is, &err).has_value());
  EXPECT_NE(err.find("3"), std::string::npos) << err;
}

// ---------------------------------------------------------------------------
// The equivalence property: incremental == rebuild, byte for byte
// ---------------------------------------------------------------------------

// Random-but-valid batch against `g`: every op drawn against the graph
// state the preceding ops left (mirrors how the updater validates), so
// tombstoned nodes are never referenced again within the batch.
UpdateBatch RandomBatch(const Graph& g, size_t ops, Rng& rng) {
  UpdateBatch batch;
  std::vector<NodeId> alive;  // fresh graphs carry no tombstones
  for (NodeId v = 0; v < g.node_count(); ++v) alive.push_back(v);
  size_t next_id = g.node_count();
  for (size_t i = 0; i < ops; ++i) {
    switch (rng.Index(5)) {
      case 0:
        batch.ops.push_back(
            UpdateOp::AddNode(rng.Chance(0.5) ? "Fresh" : "Review"));
        alive.push_back(static_cast<NodeId>(next_id++));
        break;
      case 1:
        batch.ops.push_back(UpdateOp::AddEdge(alive[rng.Index(alive.size())],
                                              alive[rng.Index(alive.size())],
                                              "touches"));
        break;
      case 2:
        batch.ops.push_back(UpdateOp::SetAttr(
            alive[rng.Index(alive.size())], "heat",
            Value(static_cast<int64_t>(rng.Uniform(0, 100)))));
        break;
      case 3:
        batch.ops.push_back(UpdateOp::SetAttr(
            alive[rng.Index(alive.size())], "tag",
            Value(std::string(rng.Chance(0.5) ? "hot" : "cold"))));
        break;
      default: {
        size_t pick = rng.Index(alive.size());
        batch.ops.push_back(UpdateOp::DeleteNode(alive[pick]));
        alive.erase(alive.begin() + static_cast<long>(pick));
        break;
      }
    }
  }
  return batch;
}

void ExpectEquivalent(const Graph& base, const UpdateBatch& batch) {
  Graph inc;
  Graph reb;
  UpdateResult r_inc;
  UpdateResult r_reb;
  ASSERT_TRUE(base.ApplyUpdate(batch, &inc, &r_inc))
      << UpdateStatusName(r_inc.status) << ": " << r_inc.error;
  ASSERT_TRUE(ApplyUpdateByRebuild(base, batch, &reb, &r_reb))
      << UpdateStatusName(r_reb.status) << ": " << r_reb.error;
  EXPECT_EQ(Serialize(inc), Serialize(reb));
  EXPECT_EQ(GraphFingerprint(inc), GraphFingerprint(reb));
  EXPECT_EQ(r_inc.delta.ToString(), r_reb.delta.ToString());
}

TEST(UpdateEquivalenceTest, HandPickedBatchesOnSmallGraph) {
  Graph g = SmallGraph();
  {
    UpdateBatch b;
    b.ops.push_back(UpdateOp::AddNode("N"));
    b.ops.push_back(UpdateOp::DeleteNode(1));
    b.ops.push_back(UpdateOp::AddEdge(0, 2, "skip"));
    b.ops.push_back(UpdateOp::SetAttr(3, "idx", Value(int64_t{3})));
    b.ops.push_back(UpdateOp::DelAttr(0, "idx"));
    ExpectEquivalent(g, b);
  }
  {
    UpdateBatch b;  // delete then re-add an edge with the same endpoints
    b.ops.push_back(UpdateOp::DeleteEdge(0, 1, "next"));
    b.ops.push_back(UpdateOp::AddEdge(0, 1, "next"));
    ExpectEquivalent(g, b);
  }
}

TEST(UpdateEquivalenceTest, RandomBatchSweepOnBsbm) {
  BsbmConfig cfg;
  cfg.products = 40;
  cfg.seed = 11;
  Graph g = GenerateBsbm(cfg);
  Rng rng(1234);
  for (int round = 0; round < 6; ++round) {
    UpdateBatch batch = RandomBatch(g, 1 + rng.Index(40), rng);
    ExpectEquivalent(g, batch);
  }
}

TEST(UpdateEquivalenceTest, ChainedEpochsStayEquivalent) {
  BsbmConfig cfg;
  cfg.products = 25;
  cfg.seed = 5;
  Graph g = GenerateBsbm(cfg);
  Rng rng(99);
  // Walk the incremental chain; at every epoch the rebuild path applied to
  // the SAME base must agree byte for byte.
  for (int round = 0; round < 4; ++round) {
    UpdateBatch batch = RandomBatch(g, 12, rng);
    Graph reb;
    UpdateResult r;
    ASSERT_TRUE(ApplyUpdateByRebuild(g, batch, &reb, &r)) << r.error;
    Graph inc;
    ASSERT_TRUE(g.ApplyUpdate(batch, &inc, &r)) << r.error;
    ASSERT_EQ(Serialize(inc), Serialize(reb));
    ASSERT_EQ(inc.generation(), g.generation() + 1);
    g = std::move(inc);
  }
}

TEST(UpdateEquivalenceTest, AnswersAgreeUnderBothSemantics) {
  BsbmConfig cfg;
  cfg.products = 30;
  cfg.seed = 3;
  Graph g = GenerateBsbm(cfg);
  Rng rng(7);
  UpdateBatch batch = RandomBatch(g, 25, rng);
  Graph inc;
  Graph reb;
  UpdateResult r;
  ASSERT_TRUE(g.ApplyUpdate(batch, &inc, &r)) << r.error;
  ASSERT_TRUE(ApplyUpdateByRebuild(g, batch, &reb, &r)) << r.error;
  const std::string text =
      "node r Review rating >= i:3\nnode p Product\nedge r p reviewOf\n"
      "output r\n";
  for (MatchSemantics s :
       {MatchSemantics::kIsomorphism, MatchSemantics::kSimulation}) {
    std::optional<Query> qi = ParseQuery(text, inc, nullptr);
    std::optional<Query> qr = ParseQuery(text, reb, nullptr);
    ASSERT_TRUE(qi.has_value());
    ASSERT_TRUE(qr.has_value());
    MatchContext ci(inc);
    MatchContext cr(reb);
    std::vector<NodeId> ai = MakeMatchEngine(ci, s)->MatchOutput(*qi);
    std::vector<NodeId> ar = MakeMatchEngine(cr, s)->MatchOutput(*qr);
    EXPECT_EQ(ai, ar) << MatchSemanticsName(s);
  }
}

}  // namespace
}  // namespace whyq
