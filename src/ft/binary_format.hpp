#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "integrity/crc32.hpp"

namespace ipregel::ft {

/// Shared framing for every binary file this framework writes.
///
/// The fault-tolerance subsystem persists engine state to disk, and a
/// snapshot that loads *partially* is worse than no snapshot at all: a
/// recovery that silently resumes from torn state defeats the whole
/// mechanism. So every on-disk artefact — engine snapshots and the graph
/// binary cache alike — uses one framing:
///
///   header:   u64 magic | u32 format version | u32 CRC32(magic, version)
///   sections: u32 tag | u64 payload bytes | payload | u32 CRC32(payload)
///   trailer:  the reserved end-of-file section (tag kEndTag, empty)
///
/// The trailer makes truncation at a section boundary detectable (a short
/// read inside a section already fails), and the per-section CRC catches
/// bit rot and mid-write crashes. All integers are little-endian native:
/// these files are caches and restart points for a single-node in-memory
/// framework, not an interchange format.
///
/// Readers throw FormatError — never return partially-populated data.

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320). The
/// implementation moved to integrity/crc32.hpp (the corruption-defense
/// subsystem is its natural home, and the paged store seals pages with it
/// without depending on ft); this alias keeps the historical spelling the
/// ft/net/shard call sites use.
using integrity::crc32;

/// Malformed, corrupted, truncated, or version-mismatched binary file.
class FormatError : public std::runtime_error {
 public:
  explicit FormatError(const std::string& what) : std::runtime_error(what) {}
};

/// Section tag reserved for the end-of-file trailer.
inline constexpr std::uint32_t kEndTag = 0xFFFFFFFFu;

/// Writes the header, then sections, then the trailer. The caller owns the
/// stream; `finish()` must be the last call before closing it.
class BinaryWriter {
 public:
  BinaryWriter(std::ostream& out, std::uint64_t magic, std::uint32_t version);

  /// Appends one CRC-protected section. `tag` must not be kEndTag.
  void section(std::uint32_t tag, const void* data, std::size_t bytes);

  /// Writes the end-of-file trailer. No section may follow.
  void finish();

 private:
  std::ostream& out_;
  bool finished_ = false;
};

/// Validates the header on construction, then yields sections in file
/// order. Throws FormatError on any structural or CRC violation.
class BinaryReader {
 public:
  /// `path` labels error messages only. Accepts format versions in
  /// [min_version, max_version]; read the accepted version from
  /// `version()`.
  BinaryReader(std::istream& in, const std::string& path, std::uint64_t magic,
               std::uint32_t min_version, std::uint32_t max_version);

  [[nodiscard]] std::uint32_t version() const noexcept { return version_; }

  /// Reads the next section. Returns false at the end-of-file trailer.
  /// Throws FormatError on truncation (EOF before the trailer) or CRC
  /// mismatch. A corrupt length field cannot make it allocate more than
  /// the stream actually holds.
  bool next_section(std::uint32_t& tag, std::vector<std::uint8_t>& payload);

  /// Reads the next section and checks its tag. A missing or reordered
  /// section is a structural error.
  [[nodiscard]] std::vector<std::uint8_t> expect_section(std::uint32_t tag);

 private:
  std::istream& in_;
  std::string path_;
  std::uint32_t version_ = 0;
};

/// Little helper for fixed-layout metadata payloads: append/consume
/// integers without struct-padding surprises.
class FieldWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// The IEEE-754 bit pattern, as a u64.
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  /// A u32 byte count, then the bytes.
  void blob(const void* data, std::size_t n);
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept {
    return bytes_;
  }

 private:
  std::vector<std::uint8_t> bytes_;
};

class FieldReader {
 public:
  FieldReader(const std::vector<std::uint8_t>& bytes, std::string context)
      : bytes_(bytes), context_(std::move(context)) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }
  [[nodiscard]] std::vector<std::uint8_t> blob();
  /// All fields must be consumed: trailing bytes mean a layout mismatch.
  void done() const;

 private:
  void need(std::size_t n) const;

  const std::vector<std::uint8_t>& bytes_;
  std::string context_;
  std::size_t pos_ = 0;
};

}  // namespace ipregel::ft
