#ifndef WHYQ_COMMON_IMAGE_H_
#define WHYQ_COMMON_IMAGE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "common/net.h"

// The sectioned image container of the graph snapshot (graph/snapshot.h)
// and the compiled plan file (service/plan.h): a 64-byte header, a section
// table, 64-byte aligned zero-padded payloads and a striped FNV-1a
// checksum, plus the one atomic file publish every on-disk artifact goes
// through. Contract: docs/IMAGE_FORMAT.md, whose field tables
// tools/check_docs.sh checks against this header; every constant of the
// container lives here (whyq-lint rule "image-limits").

namespace whyq {

/// FNV-1a 64-bit parameters (checksum, graph fingerprint, plan addresses).
inline constexpr uint64_t kFnvOffsetBasis = 14695981039346656037ull;
inline constexpr uint64_t kFnvPrime = 1099511628211ull;
// Written as the native-endian value 0x01020304; a loader on an
// opposite-endian host reads 0x04030201 and rejects the image.
inline constexpr uint32_t kImageEndianCheck = 0x01020304;
// Every section payload starts on a 64-byte boundary (cache line; a
// multiple of every row alignment). Padding bytes are written as zero, so
// images are deterministic byte-for-byte.
inline constexpr uint32_t kImageSectionAlign = 64;
// The payload checksum folds 64-bit little-endian words round-robin into
// this many independent FNV-1a lanes, which breaks the multiply chain so
// validating a cold image costs a fraction of a byte-serial pass. The
// digest byte-hashes the lanes in order (docs/IMAGE_FORMAT.md).
inline constexpr uint32_t kImageChecksumLanes = 4;
// Header words whose meaning each format defines (SnapHeader, PlanHeader).
inline constexpr size_t kImageFormatWords = 3;

/// Streaming byte-serial FNV-1a.
struct Fnv {
  uint64_t h = kFnvOffsetBasis;

  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) h = (h ^ p[i]) * kFnvPrime;
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void Str(std::string_view s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
};

/// The fixed 64-byte header at offset 0, declared once: each format's
/// header struct (SnapHeader, PlanHeader) expands it with the names of its
/// three format-defined words.
#define WHYQ_IMAGE_HEADER(word_a, word_b, word_c)                             \
  char magic[8];          /* the format's tag (ImageFormat::magic) */         \
  uint32_t version;       /* the format's version, exact-match */             \
  uint32_t endian_check;  /* kImageEndianCheck, native byte order */          \
  uint32_t header_bytes;  /* sizeof(ImageHeader) */                           \
  uint32_t section_count; /* the format's section count */                    \
  uint64_t file_bytes;    /* total image size, including padding */           \
  uint64_t word_a;                                                            \
  uint64_t word_b;                                                            \
  uint64_t word_c;                                                            \
  uint64_t payload_hash;  /* striped word-FNV, see kImageChecksumLanes */

struct ImageHeader {
  WHYQ_IMAGE_HEADER(word_a, word_b, word_c)
};
static_assert(sizeof(ImageHeader) == kImageSectionAlign,
              "header must stay one aligned block");

/// One entry of the section table, which follows the header with exactly
/// one entry per section id, ascending.
struct ImageSection {
  uint32_t id;        // section id = index in the table
  uint32_t reserved;  // written as zero
  uint64_t offset;    // from file start; kImageSectionAlign-aligned
  uint64_t bytes;     // payload size (padding to the next section excluded)
};

/// What one on-disk format fixes in the container.
struct ImageFormat {
  const char* name;  // error-message prefix, e.g. "snapshot"
  const char* magic;  // 8 bytes, not NUL-terminated
  uint32_t version;
  uint32_t section_count;
};

/// One byte range: a section payload staged for writing, a validated
/// payload of a loaded image, or a chunk handed to PublishFile.
struct ImageRegion {
  const unsigned char* data = nullptr;
  size_t bytes = 0;

  ImageRegion() = default;
  ImageRegion(const void* d, size_t n)
      : data(static_cast<const unsigned char*>(d)), bytes(n) {}
  /// The rows of a contiguous container (vector, string, Graph::Column).
  template <typename C>
  static ImageRegion Of(const C& c) {
    return ImageRegion(c.data(), c.size() * sizeof(*c.data()));
  }

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
  /// Exactly `rows` rows of T.
  template <typename T>
  bool Holds(uint64_t rows) const {
    return RowAligned<T>() && RowCount<T>() == rows;
  }
  /// A CSR offset column: `rows` (> 0) uint64_t offsets starting at 0,
  /// non-decreasing, ending at `last`. Loaders index with these raw.
  bool IsOffsetColumn(uint64_t rows, uint64_t last) const {
    if (rows == 0 || !Holds<uint64_t>(rows)) return false;
    const uint64_t* r = Rows<uint64_t>();
    for (uint64_t i = 1; i < rows; ++i) {
      if (r[i] < r[i - 1]) return false;
    }
    return r[0] == 0 && r[rows - 1] == last;
  }
};

/// Sets `*error` (when non-null) to `msg` and returns false.
bool ImageFail(std::string* error, std::string msg);

/// Lays out an image of `format` — header with `words`, section table,
/// then `sections` (index = section id) each on an aligned boundary — and
/// publishes it at `path` with PublishFile(durable). `*file_bytes`
/// (optional) receives the image size.
bool WriteImage(const ImageFormat& format,
                const uint64_t (&words)[kImageFormatWords],
                std::span<const ImageRegion> sections, const std::string& path,
                uint64_t* file_bytes, std::string* error);

/// Opens `path` for reading and returns its descriptor with `*size` set,
/// rejecting a file smaller than the header. On failure returns an invalid
/// descriptor with `*error` set; `*absent` (optional) tells whether no
/// file exists at `path` (ENOENT at open).
UniqueFd OpenImage(const ImageFormat& format, const std::string& path,
                   size_t* size, bool* absent, std::string* error);

/// Checks the fixed fields of a 64-byte `header`: magic, byte order,
/// version, header size and section count.
bool CheckImageHeader(const ImageFormat& format, const void* header,
                      const std::string& path, std::string* error);

/// Validates the `size` bytes at `image` (8-byte aligned, at least one
/// header): CheckImageHeader, `file_bytes` against `size`, the section
/// table (ids in order, alignment, bounds) and the payload checksum. On
/// success `sections` (format.section_count entries) holds each payload.
bool ValidateImage(const ImageFormat& format, const void* image, size_t size,
                   const std::string& path, std::span<ImageRegion> sections,
                   std::string* error);

/// Atomically replaces `path` with the concatenation of `chunks`: writes
/// `path.tmp`, checks every write, renames it over `path`, and removes the
/// temp file on any failure, so a reader sees the old file or the new one,
/// never a torn one. `durable` also fsyncs the temp file before the rename
/// and the directory after it (the image writers; the periodic stats
/// dumps skip it). `*bytes` (optional) receives the size written; errors
/// read "<what>: <cause> <file>".
bool PublishFile(const std::string& path, std::span<const ImageRegion> chunks,
                 bool durable, const char* what, uint64_t* bytes,
                 std::string* error);

}  // namespace whyq

#endif  // WHYQ_COMMON_IMAGE_H_
