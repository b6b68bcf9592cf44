#include "common/image.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <vector>

#include "common/check.h"

namespace whyq {

namespace {

// The payload checksum (see kImageChecksumLanes). It covers the header
// prefix (everything before payload_hash itself, the format words
// included), the section table, and every payload in id order, so
// tampering with any header field is rejected like payload corruption.
uint64_t PayloadHash(const void* header, const void* table,
                     std::span<const ImageRegion> sections) {
  uint64_t lane[kImageChecksumLanes];
  std::fill(std::begin(lane), std::end(lane), kFnvOffsetBasis);
  size_t next = 0;
  auto mix = [&lane, &next](uint64_t w) {
    lane[next] = (lane[next] ^ w) * kFnvPrime;
    next = (next + 1) % kImageChecksumLanes;
  };
  // Each region's final partial word is zero-padded.
  auto fold = [&mix](const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    const size_t whole = n & ~(sizeof(uint64_t) - 1);
    for (size_t i = 0; i < whole; i += sizeof(uint64_t)) {
      uint64_t w;
      std::memcpy(&w, p + i, sizeof(w));
      mix(w);
    }
    if (whole != n) {
      uint64_t w = 0;
      std::memcpy(&w, p + whole, n - whole);
      mix(w);
    }
  };
  fold(header, offsetof(ImageHeader, payload_hash));
  fold(table, sections.size() * sizeof(ImageSection));
  for (const ImageRegion& s : sections) fold(s.data, s.bytes);
  Fnv digest;
  digest.Bytes(lane, sizeof(lane));
  return digest.h;
}

size_t AlignUp(size_t n) {
  return (n + kImageSectionAlign - 1) & ~size_t{kImageSectionAlign - 1};
}

bool Fail(std::string* error, const char* what, const std::string& msg) {
  return ImageFail(error, std::string(what) + ": " + msg);
}

// Opens `tmp` and locks it exclusively, so publishers of one path (threads,
// or processes sharing a directory) take turns; opens afresh when the file
// it waited on was renamed away meanwhile. Invalid on error.
UniqueFd LockedTemp(const std::string& tmp) {
  for (;;) {
    UniqueFd fd(::open(tmp.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC,
                       DEFFILEMODE));
    if (!fd.valid()) return fd;
    int rc;
    do {
      rc = ::flock(fd.get(), LOCK_EX);
    } while (rc != 0 && errno == EINTR);
    struct stat held{};
    struct stat named{};
    if (rc != 0 || ::fstat(fd.get(), &held) != 0) return UniqueFd();
    if (::stat(tmp.c_str(), &named) != 0) {
      if (errno != ENOENT) return UniqueFd();
    } else if (named.st_dev == held.st_dev && named.st_ino == held.st_ino) {
      return fd;
    }
  }
}

}  // namespace

bool ImageFail(std::string* error, std::string msg) {
  if (error != nullptr) *error = std::move(msg);
  return false;
}

bool WriteImage(const ImageFormat& format,
                const uint64_t (&words)[kImageFormatWords],
                std::span<const ImageRegion> sections, const std::string& path,
                uint64_t* file_bytes, std::string* error) {
  WHYQ_CHECK(sections.size() == format.section_count);
  ImageHeader hdr{};
  std::memcpy(hdr.magic, format.magic, sizeof(hdr.magic));
  hdr.version = format.version;
  hdr.endian_check = kImageEndianCheck;
  hdr.header_bytes = sizeof(ImageHeader);
  hdr.section_count = format.section_count;
  hdr.word_a = words[0];
  hdr.word_b = words[1];
  hdr.word_c = words[2];
  // Header, table, then each payload behind its zero padding (always
  // shorter than one alignment block).
  static constexpr unsigned char kZeros[kImageSectionAlign] = {};
  std::vector<ImageSection> table(sections.size());
  std::vector<ImageRegion> chunks = {ImageRegion(&hdr, sizeof(hdr)),
                                     ImageRegion::Of(table)};
  size_t end = sizeof(hdr) + sizeof(ImageSection) * table.size();
  for (uint32_t i = 0; i < table.size(); ++i) {
    const size_t offset = AlignUp(end);
    table[i] = ImageSection{i, 0, offset, sections[i].bytes};
    chunks.emplace_back(kZeros, offset - end);
    chunks.push_back(sections[i]);
    end = offset + sections[i].bytes;
  }
  hdr.file_bytes = AlignUp(end);
  chunks.emplace_back(kZeros, hdr.file_bytes - end);
  hdr.payload_hash = PayloadHash(&hdr, table.data(), sections);
  return PublishFile(path, chunks, /*durable=*/true, format.name, file_bytes,
                     error);
}

UniqueFd OpenImage(const ImageFormat& format, const std::string& path,
                   size_t* size, bool* absent, std::string* error) {
  UniqueFd fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  if (absent != nullptr) *absent = !fd.valid() && errno == ENOENT;
  struct stat st{};
  if (!fd.valid()) {
    Fail(error, format.name, "cannot open " + path);
  } else if (::fstat(fd.get(), &st) != 0) {
    Fail(error, format.name, "cannot stat " + path);
  } else if (static_cast<size_t>(st.st_size) < sizeof(ImageHeader)) {
    Fail(error, format.name, "file too small: " + path);
  } else {
    *size = static_cast<size_t>(st.st_size);
    return fd;
  }
  return UniqueFd();
}

bool CheckImageHeader(const ImageFormat& format, const void* header,
                      const std::string& path, std::string* error) {
  ImageHeader hdr;
  std::memcpy(&hdr, header, sizeof(hdr));
  if (std::memcmp(hdr.magic, format.magic, sizeof(hdr.magic)) != 0) {
    return Fail(error, format.name, "bad magic in " + path);
  }
  if (hdr.endian_check != kImageEndianCheck) {
    return Fail(error, format.name, "foreign byte order in " + path);
  }
  if (hdr.version != format.version ||
      hdr.header_bytes != sizeof(ImageHeader) ||
      hdr.section_count != format.section_count) {
    return Fail(error, format.name,
                "unsupported version " + std::to_string(hdr.version) +
                    " in " + path);
  }
  return true;
}

bool ValidateImage(const ImageFormat& format, const void* image, size_t size,
                   const std::string& path, std::span<ImageRegion> sections,
                   std::string* error) {
  WHYQ_CHECK(size >= sizeof(ImageHeader) &&
             sections.size() == format.section_count);
  if (!CheckImageHeader(format, image, path, error)) return false;
  const auto* base = static_cast<const unsigned char*>(image);
  ImageHeader hdr;
  std::memcpy(&hdr, base, sizeof(hdr));
  if (hdr.file_bytes != size) {
    return Fail(error, format.name,
                "truncated file (header says " +
                    std::to_string(hdr.file_bytes) + " bytes, file has " +
                    std::to_string(size) + "): " + path);
  }
  // Section table: one entry per id, ascending, aligned, in bounds.
  const unsigned char* table = base + sizeof(ImageHeader);
  if (sizeof(ImageHeader) + sections.size() * sizeof(ImageSection) > size) {
    return Fail(error, format.name, "truncated section table: " + path);
  }
  for (uint32_t i = 0; i < sections.size(); ++i) {
    ImageSection s;
    std::memcpy(&s, table + i * sizeof(s), sizeof(s));
    const std::string at = "section " + std::to_string(i);
    if (s.id != i) return Fail(error, format.name, at + " out of order");
    if (s.offset % kImageSectionAlign != 0) {
      return Fail(error, format.name, "misaligned " + at);
    }
    if (s.offset > size || s.bytes > size - s.offset) {
      return Fail(error, format.name, at + " out of bounds");
    }
    sections[i] = ImageRegion(base + s.offset, s.bytes);
  }
  if (PayloadHash(base, table, sections) != hdr.payload_hash) {
    return Fail(error, format.name,
                "payload checksum mismatch (corrupt file): " + path);
  }
  return true;
}

bool PublishFile(const std::string& path, std::span<const ImageRegion> chunks,
                 bool durable, const char* what, uint64_t* bytes,
                 std::string* error) {
  const std::string tmp = path + ".tmp";
  UniqueFd fd = LockedTemp(tmp);
  if (!fd.valid()) return Fail(error, what, "cannot open " + tmp);
  auto fail = [&](const std::string& msg) {
    ::unlink(tmp.c_str());
    return Fail(error, what, msg);
  };
  if (::ftruncate(fd.get(), 0) != 0) return fail("cannot truncate " + tmp);
  uint64_t written = 0;
  for (const ImageRegion& c : chunks) {
    for (size_t done = 0; done < c.bytes;) {
      ssize_t n = ::write(fd.get(), c.data + done, c.bytes - done);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return fail("short write to " + tmp);
      done += static_cast<size_t>(n);
    }
    written += c.bytes;
  }
  if (durable && ::fsync(fd.get()) != 0) return fail("cannot sync " + tmp);
  // Renamed while still locked, so a waiting publisher finds the name
  // gone and opens a fresh file.
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return fail("cannot rename into " + path);
  }
  if (durable) {
    // The rename is durable once the directory entry is.
    // Built, not assigned: gcc 12 -O3 flags `dir = "."` with a false
    // -Wrestrict.
    std::filesystem::path parent = std::filesystem::path(path).parent_path();
    const std::string dir = parent.empty() ? std::string(".") : parent.string();
    UniqueFd dfd(::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC));
    if (!dfd.valid() || ::fsync(dfd.get()) != 0) {
      return Fail(error, what, "cannot sync directory " + dir);
    }
  }
  if (bytes != nullptr) *bytes = written;
  return true;
}

}  // namespace whyq
