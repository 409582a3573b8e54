#include "ft/binary_format.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>

namespace ipregel::ft {
namespace {

template <typename T>
void write_raw(std::ostream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}

template <typename T>
bool read_raw(std::istream& in, T& v) {
  in.read(reinterpret_cast<char*>(&v), sizeof v);
  return static_cast<bool>(in);
}

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw FormatError(path + ": " + what);
}

}  // namespace

BinaryWriter::BinaryWriter(std::ostream& out, std::uint64_t magic,
                           std::uint32_t version)
    : out_(out) {
  write_raw(out_, magic);
  write_raw(out_, version);
  std::uint8_t head[sizeof magic + sizeof version];
  std::memcpy(head, &magic, sizeof magic);
  std::memcpy(head + sizeof magic, &version, sizeof version);
  write_raw(out_, crc32(head, sizeof head));
}

void BinaryWriter::section(std::uint32_t tag, const void* data,
                           std::size_t bytes) {
  if (finished_) {
    throw std::logic_error("BinaryWriter: section() after finish()");
  }
  write_raw(out_, tag);
  write_raw(out_, static_cast<std::uint64_t>(bytes));
  if (bytes != 0) {
    out_.write(static_cast<const char*>(data),
               static_cast<std::streamsize>(bytes));
  }
  write_raw(out_, crc32(data, bytes));
}

void BinaryWriter::finish() {
  section(kEndTag, nullptr, 0);
  finished_ = true;
  out_.flush();
}

BinaryReader::BinaryReader(std::istream& in, const std::string& path,
                           std::uint64_t magic, std::uint32_t min_version,
                           std::uint32_t max_version)
    : in_(in), path_(path) {
  std::uint64_t got_magic = 0;
  std::uint32_t got_version = 0;
  std::uint32_t got_crc = 0;
  if (!read_raw(in_, got_magic) || !read_raw(in_, got_version) ||
      !read_raw(in_, got_crc)) {
    fail(path_, "file too short for a header");
  }
  if (got_magic != magic) {
    fail(path_, "wrong magic number (not this file format, or corrupted)");
  }
  std::uint8_t head[sizeof got_magic + sizeof got_version];
  std::memcpy(head, &got_magic, sizeof got_magic);
  std::memcpy(head + sizeof got_magic, &got_version, sizeof got_version);
  if (crc32(head, sizeof head) != got_crc) {
    fail(path_, "header CRC mismatch (corrupted file)");
  }
  if (got_version < min_version || got_version > max_version) {
    fail(path_, "unsupported format version " + std::to_string(got_version) +
                    " (this build reads versions " +
                    std::to_string(min_version) + ".." +
                    std::to_string(max_version) + ")");
  }
  version_ = got_version;
}

bool BinaryReader::next_section(std::uint32_t& tag,
                                std::vector<std::uint8_t>& payload) {
  std::uint32_t got_tag = 0;
  std::uint64_t bytes = 0;
  if (!read_raw(in_, got_tag) || !read_raw(in_, bytes)) {
    fail(path_, "truncated file (end of data before the end-of-file marker)");
  }
  // The declared length is untrusted until its bytes arrive: grow the
  // buffer in doubling steps from 1 MiB as reads succeed, so a flipped bit
  // in the length fails as truncation with at most ~2x the stream's real
  // size allocated, instead of asking for up to 2^64 bytes up front.
  payload.clear();
  for (std::uint64_t step = 1 << 20; payload.size() < bytes; step *= 2) {
    const std::size_t have = payload.size();
    payload.resize(have + std::min<std::uint64_t>(step, bytes - have));
    in_.read(reinterpret_cast<char*>(payload.data() + have),
             static_cast<std::streamsize>(payload.size() - have));
    if (!in_) {
      fail(path_, "truncated section (declared " + std::to_string(bytes) +
                      " bytes, file ends early)");
    }
  }
  std::uint32_t got_crc = 0;
  if (!read_raw(in_, got_crc)) {
    fail(path_, "truncated section checksum");
  }
  if (crc32(payload.data(), payload.size()) != got_crc) {
    fail(path_, "section CRC mismatch (corrupted file)");
  }
  tag = got_tag;
  return got_tag != kEndTag;
}

std::vector<std::uint8_t> BinaryReader::expect_section(std::uint32_t tag) {
  std::uint32_t got = 0;
  std::vector<std::uint8_t> payload;
  if (!next_section(got, payload)) {
    fail(path_, "missing section " + std::to_string(tag) +
                    " (file ends early)");
  }
  if (got != tag) {
    fail(path_, "expected section " + std::to_string(tag) + ", found " +
                    std::to_string(got));
  }
  return payload;
}

void FieldWriter::u32(std::uint32_t v) {
  const auto old = bytes_.size();
  bytes_.resize(old + sizeof v);
  std::memcpy(bytes_.data() + old, &v, sizeof v);
}

void FieldWriter::u64(std::uint64_t v) {
  const auto old = bytes_.size();
  bytes_.resize(old + sizeof v);
  std::memcpy(bytes_.data() + old, &v, sizeof v);
}

void FieldWriter::blob(const void* data, std::size_t n) {
  if (n > UINT32_MAX) {
    throw std::length_error("FieldWriter::blob: more than 4 GiB");
  }
  u32(static_cast<std::uint32_t>(n));
  const auto* p = static_cast<const std::uint8_t*>(data);
  bytes_.insert(bytes_.end(), p, p + n);
}

void FieldReader::need(std::size_t n) const {
  if (pos_ + n > bytes_.size()) {
    throw FormatError(context_ + ": metadata payload too short");
  }
}

std::uint8_t FieldReader::u8() {
  need(1);
  return bytes_[pos_++];
}

std::uint32_t FieldReader::u32() {
  need(4);
  std::uint32_t v = 0;
  std::memcpy(&v, bytes_.data() + pos_, sizeof v);
  pos_ += sizeof v;
  return v;
}

std::uint64_t FieldReader::u64() {
  need(8);
  std::uint64_t v = 0;
  std::memcpy(&v, bytes_.data() + pos_, sizeof v);
  pos_ += sizeof v;
  return v;
}

std::vector<std::uint8_t> FieldReader::blob() {
  const std::uint32_t n = u32();
  need(n);
  const auto* p = bytes_.data() + pos_;
  pos_ += n;
  return {p, p + n};
}

void FieldReader::done() const {
  if (pos_ != bytes_.size()) {
    throw FormatError(context_ + ": metadata payload has trailing bytes");
  }
}

}  // namespace ipregel::ft
