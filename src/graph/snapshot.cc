#include "graph/snapshot.h"

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <unordered_map>
#include <utility>

namespace whyq {

namespace {

constexpr ImageFormat kSnapshotImage{"snapshot", kSnapshotMagic,
                                     kSnapshotVersion, kSnapshotSectionCount};

void HashValue(Fnv& f, const Value& v) {
  if (v.is_int()) {
    f.U64(kSnapValueInt);
    f.U64(static_cast<uint64_t>(v.as_int()));
  } else if (v.is_double()) {
    f.U64(kSnapValueDouble);
    f.U64(std::bit_cast<uint64_t>(v.as_double()));
  } else {
    f.U64(kSnapValueString);
    f.Str(v.as_string());
  }
}

void HashDictionary(Fnv& f, const Dictionary& d) {
  f.U64(d.size());
  for (SymbolId i = 0; i < d.size(); ++i) f.Str(d.NameOf(i));
}

// Interns strings into the snapshot's string pool, deduplicated.
class StringPool {
 public:
  // Returns false when the pool outgrows the 32-bit offsets of the format.
  bool Add(std::string_view s, uint32_t* offset, uint32_t* bytes) {
    if (s.size() > UINT32_MAX) return false;
    auto it = index_.find(std::string(s));
    if (it == index_.end()) {
      if (pool_.size() + s.size() > UINT32_MAX) return false;
      it = index_.emplace(std::string(s),
                          static_cast<uint32_t>(pool_.size())).first;
      pool_.append(s);
    }
    *offset = it->second;
    *bytes = static_cast<uint32_t>(s.size());
    return true;
  }

  const std::string& bytes() const { return pool_; }

 private:
  std::string pool_;
  std::unordered_map<std::string, uint32_t> index_;
};

bool LoadDictionary(const ImageRegion& dict, const ImageRegion& pool,
                    Dictionary* out, std::string* error, const char* what) {
  if (!dict.RowAligned<SnapStringRef>()) {
    return ImageFail(error,
                     std::string("snapshot: ragged dictionary section: ") +
                         what);
  }
  size_t count = dict.RowCount<SnapStringRef>();
  const SnapStringRef* refs = dict.Rows<SnapStringRef>();
  for (size_t i = 0; i < count; ++i) {
    uint64_t end = uint64_t{refs[i].offset} + refs[i].bytes;
    if (end > pool.bytes) {
      return ImageFail(error,
                       std::string("snapshot: dictionary name out of pool: ") +
                           what);
    }
    std::string_view name(
        reinterpret_cast<const char*>(pool.data) + refs[i].offset,
        refs[i].bytes);
    if (out->Intern(name) != i) {
      return ImageFail(error,
                       std::string("snapshot: duplicate dictionary name: ") +
                           what);
    }
  }
  return true;
}

}  // namespace

uint64_t GraphFingerprint(const Graph& g) {
  Fnv f;
  f.Str("whyq.graph.fp.v1");
  f.U64(g.node_count());
  f.U64(g.edge_count());
  HashDictionary(f, g.node_labels());
  HashDictionary(f, g.edge_labels());
  HashDictionary(f, g.attr_names());
  for (NodeId v = 0; v < g.node_count(); ++v) {
    f.U64(g.label(v));
    AttrSpan tuple = g.attrs(v);
    f.U64(tuple.size());
    for (const AttrEntry& e : tuple) {
      f.U64(e.attr);
      HashValue(f, e.value);
    }
    EdgeSpan out = g.out_edges(v);
    f.U64(out.size());
    for (const HalfEdge& e : out) {
      f.U64(e.other);
      f.U64(e.label);
    }
  }
  return f.h;
}

GraphSnapshot::~GraphSnapshot() {
  if (map_ != nullptr) ::munmap(map_, map_bytes_);
}

bool GraphSnapshot::Write(const Graph& g, const std::string& path,
                          std::string* error) {
  // Stage the interned attribute column and the string pool.
  StringPool pool;
  std::vector<SnapAttrEntry> attr_entries;
  attr_entries.reserve(g.attr_pool_->size());
  for (const AttrEntry& e : *g.attr_pool_) {
    SnapAttrEntry row{};
    row.attr = e.attr;
    if (e.value.is_int()) {
      row.kind = kSnapValueInt;
      row.payload = static_cast<uint64_t>(e.value.as_int());
    } else if (e.value.is_double()) {
      row.kind = kSnapValueDouble;
      row.payload = std::bit_cast<uint64_t>(e.value.as_double());
    } else {
      row.kind = kSnapValueString;
      uint32_t off = 0;
      uint32_t len = 0;
      if (!pool.Add(e.value.as_string(), &off, &len)) {
        return ImageFail(error,
                         "snapshot: string pool exceeds 32-bit offsets");
      }
      row.payload = (uint64_t{off} << 32) | len;
    }
    attr_entries.push_back(row);
  }
  auto stage_dict = [&pool](const Dictionary& d,
                            std::vector<SnapStringRef>& refs) {
    refs.reserve(d.size());
    for (SymbolId i = 0; i < d.size(); ++i) {
      SnapStringRef r{};
      if (!pool.Add(d.NameOf(i), &r.offset, &r.bytes)) return false;
      refs.push_back(r);
    }
    return true;
  };
  std::vector<SnapStringRef> node_dict;
  std::vector<SnapStringRef> edge_dict;
  std::vector<SnapStringRef> attr_dict;
  if (!stage_dict(g.node_labels(), node_dict) ||
      !stage_dict(g.edge_labels(), edge_dict) ||
      !stage_dict(g.attr_names(), attr_dict)) {
    return ImageFail(error, "snapshot: string pool exceeds 32-bit offsets");
  }

  // A default-constructed (never Built) empty graph has zero-length range
  // columns, while Build() leaves the canonical single zero row. Stage the
  // latter in both cases so the two serialize to the same loadable image.
  static constexpr uint64_t kZeroRow[1] = {0};
  auto range = [](const Column<uint64_t>& c) {
    return c.empty() ? ImageRegion(kZeroRow, sizeof(kZeroRow))
                     : ImageRegion::Of(c);
  };
  ImageRegion sec[kSnapshotSectionCount];
  sec[kSecNodeLabels] = ImageRegion::Of(g.node_label_);
  sec[kSecOutEdges] = ImageRegion::Of(g.out_pool_);
  sec[kSecInEdges] = ImageRegion::Of(g.in_pool_);
  sec[kSecOutEdgeRange] = range(g.out_range_);
  sec[kSecInEdgeRange] = range(g.in_range_);
  sec[kSecOutNbrs] = ImageRegion::Of(g.out_nbrs_);
  sec[kSecInNbrs] = ImageRegion::Of(g.in_nbrs_);
  sec[kSecOutSlices] = ImageRegion::Of(g.out_slices_);
  sec[kSecInSlices] = ImageRegion::Of(g.in_slices_);
  sec[kSecOutSliceRange] = range(g.out_slice_range_);
  sec[kSecInSliceRange] = range(g.in_slice_range_);
  sec[kSecBucketNodes] = ImageRegion::Of(g.bucket_nodes_);
  sec[kSecBucketRange] = range(g.bucket_range_);
  sec[kSecAttrRanges] = ImageRegion::Of(g.attr_ranges_);
  sec[kSecAttrEntries] = ImageRegion::Of(attr_entries);
  sec[kSecAttrEntryRange] = range(g.attr_range_);
  sec[kSecStringPool] = ImageRegion::Of(pool.bytes());
  sec[kSecNodeLabelDict] = ImageRegion::Of(node_dict);
  sec[kSecEdgeLabelDict] = ImageRegion::Of(edge_dict);
  sec[kSecAttrNameDict] = ImageRegion::Of(attr_dict);
  const uint64_t words[kImageFormatWords] = {g.node_count(), g.edge_count(),
                                             GraphFingerprint(g)};
  return WriteImage(kSnapshotImage, words, sec, path, nullptr, error);
}

bool GraphSnapshot::ReadInfo(const std::string& path, Info* out,
                             std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return ImageFail(error, "snapshot: cannot open " + path);
  SnapHeader hdr{};
  in.read(reinterpret_cast<char*>(&hdr), sizeof(hdr));
  if (!in) return ImageFail(error, "snapshot: truncated header in " + path);
  if (!CheckImageHeader(kSnapshotImage, &hdr, path, error)) return false;
  out->version = hdr.version;
  out->file_bytes = hdr.file_bytes;
  out->node_count = hdr.node_count;
  out->edge_count = hdr.edge_count;
  out->fingerprint = hdr.fingerprint;
  out->payload_hash = hdr.payload_hash;
  out->sections.assign(hdr.section_count, SnapSection{});
  in.read(reinterpret_cast<char*>(out->sections.data()),
          static_cast<long>(hdr.section_count * sizeof(SnapSection)));
  if (!in) {
    return ImageFail(error, "snapshot: truncated section table in " + path);
  }
  return true;
}

std::unique_ptr<GraphSnapshot> GraphSnapshot::Load(const std::string& path,
                                                   std::string* error) {
  auto fail = [error](std::string msg) {
    if (error != nullptr) *error = std::move(msg);
    return std::unique_ptr<GraphSnapshot>();
  };

  size_t size = 0;
  UniqueFd fd = OpenImage(kSnapshotImage, path, &size, nullptr, error);
  if (!fd.valid()) return nullptr;
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd.get(), 0);
  if (map == MAP_FAILED) return fail("snapshot: mmap failed for " + path);
  std::unique_ptr<GraphSnapshot> snap(new GraphSnapshot());
  snap->map_ = map;
  snap->map_bytes_ = size;
  ImageRegion sec[kSnapshotSectionCount];
  if (!ValidateImage(kSnapshotImage, map, size, path, sec, error)) {
    return nullptr;
  }
  SnapHeader hdr;
  std::memcpy(&hdr, map, sizeof(hdr));

  // Structural validation, then borrow the columns.
  const size_t n = hdr.node_count;
  const size_t e = hdr.edge_count;
  Graph& g = snap->graph_;

  if (!sec[kSecNodeLabels].Holds<SymbolId>(n)) {
    return fail("snapshot: node label column size mismatch");
  }
  if (!sec[kSecOutEdges].Holds<HalfEdge>(e) ||
      !sec[kSecInEdges].Holds<HalfEdge>(e)) {
    return fail("snapshot: adjacency column size mismatch");
  }
  if (!sec[kSecOutEdgeRange].IsOffsetColumn(n + 1, e) ||
      !sec[kSecInEdgeRange].IsOffsetColumn(n + 1, e)) {
    return fail("snapshot: adjacency offsets not monotonic");
  }
  size_t out_nbrs = sec[kSecOutNbrs].RowCount<NodeId>();
  size_t in_nbrs = sec[kSecInNbrs].RowCount<NodeId>();
  if (out_nbrs != e || in_nbrs != e) {
    return fail("snapshot: label-partitioned adjacency size mismatch");
  }
  if (!sec[kSecOutSlices].RowAligned<Graph::LabelSlice>() ||
      !sec[kSecInSlices].RowAligned<Graph::LabelSlice>()) {
    return fail("snapshot: ragged label slice section");
  }
  size_t out_slices = sec[kSecOutSlices].RowCount<Graph::LabelSlice>();
  size_t in_slices = sec[kSecInSlices].RowCount<Graph::LabelSlice>();
  if (!sec[kSecOutSliceRange].IsOffsetColumn(n + 1, out_slices) ||
      !sec[kSecInSliceRange].IsOffsetColumn(n + 1, in_slices)) {
    return fail("snapshot: label slice offsets not monotonic");
  }
  auto slices_ok = [](const ImageRegion& r, size_t nbr_count) {
    const auto* rows = r.Rows<Graph::LabelSlice>();
    size_t count = r.RowCount<Graph::LabelSlice>();
    for (size_t i = 0; i < count; ++i) {
      if (rows[i].begin > rows[i].end || rows[i].end > nbr_count) {
        return false;
      }
    }
    return true;
  };
  if (!slices_ok(sec[kSecOutSlices], out_nbrs) ||
      !slices_ok(sec[kSecInSlices], in_nbrs)) {
    return fail("snapshot: label slice out of bounds");
  }
  if (!sec[kSecBucketNodes].Holds<NodeId>(n)) {
    return fail("snapshot: label bucket column size mismatch");
  }
  const NodeId* bucket_rows = sec[kSecBucketNodes].Rows<NodeId>();
  if (std::any_of(bucket_rows, bucket_rows + n,
                  [n](NodeId v) { return v >= n; })) {
    return fail("snapshot: label bucket node out of range");
  }
  size_t bucket_offsets = sec[kSecBucketRange].RowCount<uint64_t>();
  if (bucket_offsets == 0 ||
      !sec[kSecBucketRange].IsOffsetColumn(bucket_offsets, n)) {
    return fail("snapshot: label bucket offsets not monotonic");
  }
  if (!sec[kSecAttrRanges].RowAligned<AttrRange>()) {
    return fail("snapshot: ragged attribute range section");
  }
  if (!sec[kSecAttrEntries].RowAligned<SnapAttrEntry>()) {
    return fail("snapshot: ragged attribute column");
  }
  size_t attr_rows = sec[kSecAttrEntries].RowCount<SnapAttrEntry>();
  if (!sec[kSecAttrEntryRange].IsOffsetColumn(n + 1, attr_rows)) {
    return fail("snapshot: attribute offsets not monotonic");
  }

  // Materialize attribute values (strings decode from the pool).
  const ImageRegion& spool = sec[kSecStringPool];
  const auto* attr_src = sec[kSecAttrEntries].Rows<SnapAttrEntry>();
  std::vector<AttrEntry> attr_pool;
  attr_pool.reserve(attr_rows);
  for (size_t i = 0; i < attr_rows; ++i) {
    const SnapAttrEntry& row = attr_src[i];
    AttrEntry entry;
    entry.attr = row.attr;
    switch (row.kind) {
      case kSnapValueInt:
        entry.value = Value(static_cast<int64_t>(row.payload));
        break;
      case kSnapValueDouble:
        entry.value = Value(std::bit_cast<double>(row.payload));
        break;
      case kSnapValueString: {
        uint64_t off = row.payload >> 32;
        uint64_t len = row.payload & UINT32_MAX;
        if (off + len > spool.bytes) {
          return fail("snapshot: attribute string out of pool");
        }
        entry.value = Value(std::string(
            reinterpret_cast<const char*>(spool.data) + off, len));
        break;
      }
      default:
        return fail("snapshot: unknown attribute value kind " +
                    std::to_string(row.kind));
    }
    attr_pool.push_back(std::move(entry));
  }

  if (!LoadDictionary(sec[kSecNodeLabelDict], spool, &g.node_labels_, error,
                      "node labels") ||
      !LoadDictionary(sec[kSecEdgeLabelDict], spool, &g.edge_labels_, error,
                      "edge labels") ||
      !LoadDictionary(sec[kSecAttrNameDict], spool, &g.attr_names_, error,
                      "attribute names")) {
    return nullptr;
  }

  g.node_label_.Borrow(sec[kSecNodeLabels].Rows<SymbolId>(), n);
  g.out_pool_.Borrow(sec[kSecOutEdges].Rows<HalfEdge>(), e);
  g.in_pool_.Borrow(sec[kSecInEdges].Rows<HalfEdge>(), e);
  g.out_range_.Borrow(sec[kSecOutEdgeRange].Rows<uint64_t>(), n + 1);
  g.in_range_.Borrow(sec[kSecInEdgeRange].Rows<uint64_t>(), n + 1);
  g.out_nbrs_.Borrow(sec[kSecOutNbrs].Rows<NodeId>(), out_nbrs);
  g.in_nbrs_.Borrow(sec[kSecInNbrs].Rows<NodeId>(), in_nbrs);
  g.out_slices_.Borrow(sec[kSecOutSlices].Rows<Graph::LabelSlice>(),
                       out_slices);
  g.in_slices_.Borrow(sec[kSecInSlices].Rows<Graph::LabelSlice>(), in_slices);
  g.out_slice_range_.Borrow(sec[kSecOutSliceRange].Rows<uint64_t>(), n + 1);
  g.in_slice_range_.Borrow(sec[kSecInSliceRange].Rows<uint64_t>(), n + 1);
  g.bucket_nodes_.Borrow(sec[kSecBucketNodes].Rows<NodeId>(), n);
  g.bucket_range_.Borrow(sec[kSecBucketRange].Rows<uint64_t>(),
                         bucket_offsets);
  g.attr_ranges_.Borrow(sec[kSecAttrRanges].Rows<AttrRange>(),
                        sec[kSecAttrRanges].RowCount<AttrRange>());
  g.attr_pool_ =
      std::make_shared<const std::vector<AttrEntry>>(std::move(attr_pool));
  g.attr_range_.Borrow(sec[kSecAttrEntryRange].Rows<uint64_t>(), n + 1);
  g.edge_count_ = e;
  // Snapshot-backed graphs are frozen: most columns alias the PROT_READ
  // mapping, so ApplyUpdate must refuse them (UpdateStatus::kFrozen) rather
  // than fault. Identity is the content fingerprint — two loads of the same
  // image are the same logical graph and may share cached prepared queries.
  g.identity_ = hdr.fingerprint;
  g.generation_ = 0;
  g.frozen_ = true;
  g.FinalizeAttrColumns();
  snap->fingerprint_ = hdr.fingerprint;
  return snap;
}

}  // namespace whyq
