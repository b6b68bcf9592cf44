#ifndef WHYQ_GRAPH_SNAPSHOT_H_
#define WHYQ_GRAPH_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/image.h"
#include "graph/graph.h"

// Frozen graph snapshot: Graph::Build() output serialized into one
// relocatable, mmap-able image in the common/image.h container. The
// byte-level contract lives in docs/SNAPSHOT_FORMAT.md; this header is the
// single source of truth for every constant of the format (whyq-lint rule
// "snapshot-limits" forbids numeric limits anywhere else in the snapshot
// layer), and the struct declarations below are what the documentation's
// field tables are checked against (tools/check_docs.sh).

namespace whyq {

/// Format constants. Bump kSnapshotVersion on ANY layout change — the
/// loader rejects images whose version, header size, or section count do
/// not match exactly (no in-place migration; rebuild with `whyq_cli
/// snapshot build`).
inline constexpr char kSnapshotMagic[8] = {'W', 'H', 'Y', 'Q',
                                           'S', 'N', 'P', '1'};
inline constexpr uint32_t kSnapshotVersion = 1;
// Payload alignment: the container's (common/image.h).
inline constexpr uint32_t kSnapshotSectionAlign = kImageSectionAlign;
// Number of sections in a version-1 image (one per SnapSectionId).
inline constexpr uint32_t kSnapshotSectionCount = 20;

/// The container header with the snapshot's three format words.
struct SnapHeader {
  WHYQ_IMAGE_HEADER(node_count,   // |V|
                    edge_count,   // |E| (after duplicate collapse)
                    fingerprint)  // logical graph fingerprint
};

/// Section ids, in file order (the ids of the container's section table).
enum SnapSectionId : uint32_t {
  kSecNodeLabels = 0,     // SymbolId x node_count
  kSecOutEdges = 1,       // HalfEdge x edge_count
  kSecInEdges = 2,        // HalfEdge x edge_count
  kSecOutEdgeRange = 3,   // uint64_t x (node_count + 1)
  kSecInEdgeRange = 4,    // uint64_t x (node_count + 1)
  kSecOutNbrs = 5,        // NodeId x edge_count (label-partitioned)
  kSecInNbrs = 6,         // NodeId x edge_count
  kSecOutSlices = 7,      // Graph::LabelSlice rows
  kSecInSlices = 8,       // Graph::LabelSlice rows
  kSecOutSliceRange = 9,  // uint64_t x (node_count + 1)
  kSecInSliceRange = 10,  // uint64_t x (node_count + 1)
  kSecBucketNodes = 11,   // NodeId x node_count (label buckets)
  kSecBucketRange = 12,   // uint64_t x (label_space + 1)
  kSecAttrRanges = 13,    // AttrRange x attr_space
  kSecAttrEntries = 14,   // SnapAttrEntry rows (interned attribute column)
  kSecAttrEntryRange = 15,  // uint64_t x (node_count + 1)
  kSecStringPool = 16,    // raw bytes (names + string attribute values)
  kSecNodeLabelDict = 17, // SnapStringRef x |node label dictionary|
  kSecEdgeLabelDict = 18, // SnapStringRef x |edge label dictionary|
  kSecAttrNameDict = 19,  // SnapStringRef x |attribute name dictionary|
};

/// One entry of the section table.
using SnapSection = ImageSection;

/// One interned attribute entry (section kSecAttrEntries). The in-memory
/// AttrEntry holds a Value variant; on disk the value is a tagged 8-byte
/// payload, with strings interned into the string pool.
struct SnapAttrEntry {
  SymbolId attr;     // attribute name id
  uint32_t kind;     // SnapValueKind
  uint64_t payload;  // int64/double bits, or (offset << 32) | bytes
};

enum SnapValueKind : uint32_t {
  kSnapValueInt = 0,     // payload: int64_t bit pattern
  kSnapValueDouble = 1,  // payload: IEEE-754 double bit pattern
  kSnapValueString = 2,  // payload: string-pool (offset << 32) | bytes
};

/// One string-pool reference (dictionary sections): `offset`/`bytes` locate
/// the name inside kSecStringPool.
struct SnapStringRef {
  uint32_t offset;
  uint32_t bytes;
};

/// Logical content fingerprint of a built graph: FNV-1a over a canonical
/// serialization of nodes, labels, attribute tuples, edges, and symbol
/// tables, computed through the public Graph API only — so a heap-built
/// graph and a snapshot-backed one with equal content hash equal, and the
/// hash can validate prepared artifacts against the graph they were
/// compiled for.
uint64_t GraphFingerprint(const Graph& g);

/// A graph served directly out of an mmap'ed snapshot image. The POD
/// columns of the embedded Graph borrow the mapped bytes (read-only,
/// MAP_PRIVATE — one physical copy shared across processes); attribute
/// values and symbol tables are materialized at load. Keep the snapshot
/// alive as long as any reference to graph() is in use (the service wraps
/// it in an aliasing shared_ptr).
class GraphSnapshot {
 public:
  /// Summary of an image, readable without mapping the payload.
  struct Info {
    uint32_t version = 0;
    uint64_t file_bytes = 0;
    uint64_t node_count = 0;
    uint64_t edge_count = 0;
    uint64_t fingerprint = 0;
    uint64_t payload_hash = 0;
    std::vector<SnapSection> sections;
  };

  ~GraphSnapshot();

  GraphSnapshot(const GraphSnapshot&) = delete;
  GraphSnapshot& operator=(const GraphSnapshot&) = delete;

  /// Serializes `g` into `path` (PublishFile, durable: an fsynced temp
  /// file renamed into place). Returns false with `*error` set on I/O
  /// failure.
  static bool Write(const Graph& g, const std::string& path,
                    std::string* error);

  /// Maps `path` read-only and validates header, section table, checksum,
  /// and structural invariants before exposing the graph. Returns null
  /// with `*error` set on any validation failure.
  static std::unique_ptr<GraphSnapshot> Load(const std::string& path,
                                             std::string* error);

  /// Reads header + section table only (no payload validation).
  static bool ReadInfo(const std::string& path, Info* out,
                       std::string* error);

  const Graph& graph() const { return graph_; }
  uint64_t fingerprint() const { return fingerprint_; }
  size_t mapped_bytes() const { return map_bytes_; }

 private:
  GraphSnapshot() = default;

  Graph graph_;
  uint64_t fingerprint_ = 0;
  void* map_ = nullptr;
  size_t map_bytes_ = 0;
};

}  // namespace whyq

#endif  // WHYQ_GRAPH_SNAPSHOT_H_
