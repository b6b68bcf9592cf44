#include "gen/profiles.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace whyq {

namespace {

// Shape parameters of one synthetic profile (see DESIGN.md §4: these track
// the label-alphabet size, attribute richness and density ratios the paper
// reports for the corresponding real dataset, at scaled-down node counts).
struct ProfileParams {
  const char* name;
  size_t default_nodes;
  double edge_ratio;     // |E| / |V|
  size_t node_labels;    // alphabet size (scaled where the original is huge)
  size_t edge_labels;
  size_t attr_pool;      // distinct attribute names
  double avg_attrs;      // attributes per node
  double label_zipf;     // label-frequency skew
  double numeric_frac;   // fraction of numeric attributes
};

const ProfileParams& ParamsOf(DatasetProfile p) {
  static const ProfileParams kDBpedia{"dbpedia", 60000, 3.09, 676, 120,
                                      200,       9.0,   1.10, 0.7};
  static const ProfileParams kYago{"yago", 40000, 1.54, 4000, 60,
                                   120,    5.0,   1.05, 0.6};
  static const ProfileParams kFreebase{"freebase", 80000, 1.57, 2000, 150,
                                       150,        8.0,   1.10, 0.7};
  static const ProfileParams kPokec{"pokec", 15000, 19.1, 1, 3,
                                    60,      24.0,  1.0,  0.8};
  static const ProfileParams kIMDb{"imdb", 40000, 3.06, 12, 8,
                                   30,     6.0,   1.05, 0.65};
  switch (p) {
    case DatasetProfile::kDBpedia:
      return kDBpedia;
    case DatasetProfile::kYago:
      return kYago;
    case DatasetProfile::kFreebase:
      return kFreebase;
    case DatasetProfile::kPokec:
      return kPokec;
    case DatasetProfile::kIMDb:
      return kIMDb;
  }
  WHYQ_CHECK(false);
  return kDBpedia;
}

}  // namespace

const char* DatasetProfileName(DatasetProfile p) { return ParamsOf(p).name; }

size_t DefaultProfileNodes(DatasetProfile p) {
  return ParamsOf(p).default_nodes;
}

Graph GenerateProfile(DatasetProfile p, size_t nodes, uint64_t seed) {
  const ProfileParams& pp = ParamsOf(p);
  size_t n = nodes == 0 ? pp.default_nodes : nodes;
  Rng rng(seed);
  GraphBuilder b;

  // The label alphabet scales with the node count so per-label
  // selectivity (nodes per label) is size-invariant — downscaled graphs
  // keep the original's matching characteristics.
  size_t n_labels = pp.node_labels;
  if (n < pp.default_nodes) {
    n_labels = std::min(
        pp.node_labels,
        std::max<size_t>(
            4, pp.node_labels * n / std::max<size_t>(pp.default_nodes, 1)));
  }

  // Pre-intern label / attribute alphabets so ids are dense and stable.
  std::vector<SymbolId> labels(n_labels);
  for (size_t i = 0; i < n_labels; ++i) {
    labels[i] = b.node_labels().Intern(NumberedName("L", i));
  }
  std::vector<SymbolId> elabels(pp.edge_labels);
  for (size_t i = 0; i < pp.edge_labels; ++i) {
    elabels[i] = b.edge_labels().Intern(NumberedName("r", i));
  }
  std::vector<SymbolId> attrs(pp.attr_pool);
  for (size_t i = 0; i < pp.attr_pool; ++i) {
    attrs[i] = b.attr_names().Intern(NumberedName("a", i));
  }

  // Nodes: Zipf-skewed labels; per-label attribute pools (deterministic
  // label -> attribute association creates the common/differential
  // attribute structure the Why algorithms exploit).
  std::vector<size_t> label_of(n);
  std::vector<std::vector<NodeId>> by_label(n_labels);
  for (size_t i = 0; i < n; ++i) {
    size_t l = rng.Zipf(n_labels, pp.label_zipf);
    label_of[i] = l;
    NodeId v = b.AddNodeById(labels[l]);
    by_label[l].push_back(v);
    size_t pool = std::max<size_t>(
        2, static_cast<size_t>(std::lround(pp.avg_attrs * 1.5)));
    pool = std::min(pool, pp.attr_pool);
    size_t n_attrs = std::max<size_t>(
        1, static_cast<size_t>(
               std::lround(pp.avg_attrs * (0.6 + 0.8 * rng.Double()))));
    n_attrs = std::min(n_attrs, pool);
    for (size_t k = 0; k < n_attrs; ++k) {
      size_t slot = (l * 7 + rng.Index(pool)) % pp.attr_pool;
      SymbolId a = attrs[slot];
      if (rng.Double() < pp.numeric_frac) {
        // Coarse leveled domains (4..16 distinct values per attribute):
        // real attributes share values across entities (price tiers,
        // ratings, years), which is what makes cleanly separating V_N from
        // the desired answers genuinely hard.
        int64_t levels = 4 + static_cast<int64_t>(slot % 13);
        int64_t step = 1 + static_cast<int64_t>(slot % 7) * 10;
        b.SetAttrById(v, a, Value(rng.Uniform(0, levels) * step));
      } else {
        std::string value = NumberedName("v", slot);
        value += '_';
        value += std::to_string(rng.Zipf(20, 1.2));
        b.SetAttrById(v, a, Value(std::move(value)));
      }
    }
  }

  // Edges: mostly label-affine (deterministic compatible-label pools, which
  // yields recurring typed motifs queries can latch onto, and keeps nodes of
  // one label structurally similar — the regime where Why-questions are
  // genuinely hard); a small uniform remainder adds noise.
  size_t m = static_cast<size_t>(pp.edge_ratio * static_cast<double>(n));
  for (size_t i = 0; i < m; ++i) {
    NodeId src = static_cast<NodeId>(rng.Index(n));
    size_t ls = label_of[src];
    NodeId dst;
    if (rng.Chance(0.93) && n_labels > 1) {
      size_t lt = (ls * 13 + 1 + rng.Index(3)) % n_labels;
      if (by_label[lt].empty()) {
        dst = static_cast<NodeId>(rng.Index(n));
      } else {
        dst = by_label[lt][rng.Index(by_label[lt].size())];
      }
    } else {
      dst = static_cast<NodeId>(rng.Index(n));
    }
    if (dst == src) dst = static_cast<NodeId>((src + 1) % n);
    size_t lt = label_of[dst];
    size_t el = (ls * 5 + lt * 3 + rng.Index(2)) % pp.edge_labels;
    b.AddEdgeById(src, dst, elabels[el]);
    // A sprinkle of reciprocal edges (real relations are often mutual):
    // these give the graphs directed cycles, without which cyclic query
    // templates (Fig. 6(d)) could never be carved out.
    if (rng.Chance(0.06)) b.AddEdgeById(dst, src, elabels[el]);
  }

  return b.Build();
}

}  // namespace whyq
