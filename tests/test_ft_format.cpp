// The shared binary framing (ft/binary_format.hpp) under attack: a file
// that is corrupted, truncated, or from a different format version must be
// rejected with a clear error — never partially loaded. The graph binary
// cache is retrofitted onto the same framing, so it inherits the same
// guarantees and is tested here too.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "ft/binary_format.hpp"
#include "graph/edge_list.hpp"
#include "graph/io.hpp"

namespace ipregel {
namespace {

using ft::BinaryReader;
using ft::BinaryWriter;
using ft::FormatError;

constexpr std::uint64_t kMagic = 0x544D524654534554ULL;  // test magic

std::string write_two_sections() {
  std::ostringstream out(std::ios::binary);
  BinaryWriter writer(out, kMagic, 3);
  const std::vector<std::uint8_t> a{1, 2, 3, 4, 5};
  const std::vector<std::uint8_t> b{9, 8};
  writer.section(10, a.data(), a.size());
  writer.section(20, b.data(), b.size());
  writer.finish();
  return out.str();
}

TEST(BinaryFormat, RoundTripsSectionsInOrder) {
  const std::string bytes = write_two_sections();
  std::istringstream in(bytes, std::ios::binary);
  BinaryReader reader(in, "mem", kMagic, 1, 5);
  EXPECT_EQ(reader.version(), 3u);

  std::uint32_t tag = 0;
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(reader.next_section(tag, payload));
  EXPECT_EQ(tag, 10u);
  EXPECT_EQ(payload, (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));
  ASSERT_TRUE(reader.next_section(tag, payload));
  EXPECT_EQ(tag, 20u);
  EXPECT_EQ(payload, (std::vector<std::uint8_t>{9, 8}));
  EXPECT_FALSE(reader.next_section(tag, payload));  // trailer
}

TEST(BinaryFormat, RoundTripsEmptySection) {
  std::ostringstream out(std::ios::binary);
  BinaryWriter writer(out, kMagic, 1);
  writer.section(7, nullptr, 0);
  writer.finish();

  std::istringstream in(out.str(), std::ios::binary);
  BinaryReader reader(in, "mem", kMagic, 1, 1);
  const std::vector<std::uint8_t> payload = reader.expect_section(7);
  EXPECT_TRUE(payload.empty());
}

TEST(BinaryFormat, RejectsWrongMagic) {
  const std::string bytes = write_two_sections();
  std::istringstream in(bytes, std::ios::binary);
  EXPECT_THROW(BinaryReader(in, "mem", kMagic + 1, 1, 5), FormatError);
}

TEST(BinaryFormat, RejectsUnsupportedVersion) {
  const std::string bytes = write_two_sections();  // version 3
  {
    std::istringstream in(bytes, std::ios::binary);
    EXPECT_THROW(BinaryReader(in, "mem", kMagic, 4, 9), FormatError);
  }
  {
    std::istringstream in(bytes, std::ios::binary);
    EXPECT_THROW(BinaryReader(in, "mem", kMagic, 1, 2), FormatError);
  }
}

TEST(BinaryFormat, RejectsCorruptedHeader) {
  std::string bytes = write_two_sections();
  bytes[9] ^= 0x01;  // inside the version field, protected by header CRC
  std::istringstream in(bytes, std::ios::binary);
  EXPECT_THROW(BinaryReader(in, "mem", kMagic, 1, 5), FormatError);
}

TEST(BinaryFormat, RejectsCorruptedPayloadByte) {
  // Flip each payload byte of the first section in turn; the section CRC
  // must catch every single one.
  const std::string clean = write_two_sections();
  const std::size_t payload_start = 8 + 4 + 4 + 4 + 8;  // header + tag + len
  for (std::size_t i = 0; i < 5; ++i) {
    std::string bytes = clean;
    bytes[payload_start + i] ^= 0x40;
    std::istringstream in(bytes, std::ios::binary);
    BinaryReader reader(in, "mem", kMagic, 1, 5);
    std::uint32_t tag = 0;
    std::vector<std::uint8_t> payload;
    EXPECT_THROW((void)reader.next_section(tag, payload), FormatError)
        << "flipped payload byte " << i;
  }
}

TEST(BinaryFormat, RejectsTruncationAtEveryLength) {
  // Any prefix of a valid file must fail loudly, wherever the cut lands:
  // inside the header, a section, or exactly at the (missing) trailer.
  const std::string clean = write_two_sections();
  for (std::size_t len = 0; len < clean.size(); ++len) {
    std::istringstream in(clean.substr(0, len), std::ios::binary);
    bool threw = false;
    try {
      BinaryReader reader(in, "mem", kMagic, 1, 5);
      std::uint32_t tag = 0;
      std::vector<std::uint8_t> payload;
      while (reader.next_section(tag, payload)) {
      }
    } catch (const FormatError&) {
      threw = true;
    }
    EXPECT_TRUE(threw) << "prefix of " << len << " bytes parsed cleanly";
  }
}

TEST(BinaryFormat, ExpectSectionRejectsWrongTag) {
  const std::string bytes = write_two_sections();
  std::istringstream in(bytes, std::ios::binary);
  BinaryReader reader(in, "mem", kMagic, 1, 5);
  EXPECT_THROW((void)reader.expect_section(20), FormatError);
}

TEST(BinaryFormat, Crc32MatchesKnownVector) {
  // The standard check value: CRC-32("123456789") == 0xCBF43926.
  const char* s = "123456789";
  EXPECT_EQ(ft::crc32(s, 9), 0xCBF43926u);
  // Chaining must equal one-shot computation.
  EXPECT_EQ(ft::crc32(s + 4, 5, ft::crc32(s, 4)), 0xCBF43926u);
}

TEST(FieldCodec, RoundTripsAndRejectsLeftovers) {
  ft::FieldWriter w;
  w.u8(7);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFULL);

  ft::FieldReader r(w.bytes(), "test");
  EXPECT_EQ(r.u8(), 7u);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  r.done();

  ft::FieldReader short_read(w.bytes(), "test");
  (void)short_read.u8();
  EXPECT_THROW(short_read.done(), FormatError);

  const std::vector<std::uint8_t> two{1, 2};
  ft::FieldReader past_end(two, "test");
  EXPECT_THROW((void)past_end.u32(), FormatError);
}

TEST(FieldCodec, RoundTripsDoublesAndBlobs) {
  const std::string text = "detail text";
  ft::FieldWriter w;
  w.f64(-0.1);
  w.blob(text.data(), text.size());
  w.blob(nullptr, 0);
  w.f64(1e300);
  // A blob is a u32 byte count, then the bytes.
  ASSERT_EQ(w.bytes().size(), 8 + 4 + text.size() + 4 + 8);

  ft::FieldReader r(w.bytes(), "test");
  EXPECT_EQ(r.f64(), -0.1);
  const std::vector<std::uint8_t> got = r.blob();
  EXPECT_EQ(std::string(got.begin(), got.end()), text);
  EXPECT_TRUE(r.blob().empty());
  EXPECT_EQ(r.f64(), 1e300);
  r.done();

  // A blob whose declared count runs past the payload is a format error.
  ft::FieldWriter lying;
  lying.u32(100);
  lying.u8(1);
  ft::FieldReader bad(lying.bytes(), "test");
  EXPECT_THROW((void)bad.blob(), FormatError);
}

// ---- the retrofitted graph binary cache --------------------------------

class TempPath {
 public:
  TempPath() {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = (std::filesystem::temp_directory_path() /
             (std::string("ipregel_") + info->test_suite_name() + "_" +
              info->name() + ".bin"))
                .string();
  }
  ~TempPath() { std::filesystem::remove(path_); }
  [[nodiscard]] const std::string& str() const noexcept { return path_; }

 private:
  std::string path_;
};

graph::EdgeList weighted_list() {
  graph::EdgeList list;
  list.add(0, 1, 5);
  list.add(1, 2, 7);
  list.add(2, 0, 1);
  return list;
}

TEST(BinaryFormat, CorruptSectionLengthFailsWithoutAHugeAllocation) {
  // One flipped bit in a section's u64 length field must fail as a typed
  // truncation, with memory bounded by what the file really holds — not
  // as std::length_error/bad_alloc, and not by zero-filling gigabytes.
  // The first section's length sits at offset 20..27 (header 16, tag 4);
  // byte 23 makes it claim 1 GiB more, byte 27 (the high byte) 2^62.
  const TempPath path;
  {
    std::ofstream out(path.str(), std::ios::binary);
    BinaryWriter writer(out, kMagic, 3);
    const std::vector<std::uint8_t> payload(64, 0x5A);
    writer.section(10, payload.data(), payload.size());
    writer.finish();
  }
  std::string clean;
  {
    std::ifstream in(path.str(), std::ios::binary);
    clean.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  for (std::size_t at = 23; at <= 27; ++at) {
    std::string bytes = clean;
    bytes[at] = static_cast<char>(bytes[at] | 0x40);
    {
      std::ofstream out(path.str(), std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    std::ifstream in(path.str(), std::ios::binary);
    BinaryReader reader(in, path.str(), kMagic, 1, 5);
    std::uint32_t tag = 0;
    std::vector<std::uint8_t> payload;
    EXPECT_THROW((void)reader.next_section(tag, payload), FormatError)
        << "length byte " << at;
    // The buffer the failed read grew is the allocation it made.
    EXPECT_LE(payload.capacity(), std::size_t{2} << 20)
        << "length byte " << at;
  }
}

TEST(EdgeListBinary, CorruptedCacheIsRejected) {
  const TempPath path;
  graph::save_edge_list_binary(weighted_list(), path.str());

  std::vector<char> bytes;
  {
    std::ifstream in(path.str(), std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  // Flip one byte in the middle of the edge payload.
  bytes[bytes.size() / 2] ^= 0x20;
  {
    std::ofstream out(path.str(), std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW((void)graph::load_edge_list_binary(path.str()), FormatError);
}

TEST(EdgeListBinary, LegacyFormatGetsActionableError) {
  const TempPath path;
  {
    std::ofstream out(path.str(), std::ios::binary);
    const std::uint64_t legacy_magic = 0x4950524547454C31ULL;  // "IPREGEL1"
    const std::uint64_t count = 0;
    const std::uint64_t weighted = 0;
    out.write(reinterpret_cast<const char*>(&legacy_magic),
              sizeof legacy_magic);
    out.write(reinterpret_cast<const char*>(&count), sizeof count);
    out.write(reinterpret_cast<const char*>(&weighted), sizeof weighted);
  }
  try {
    (void)graph::load_edge_list_binary(path.str());
    FAIL() << "legacy cache loaded without error";
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("legacy"), std::string::npos);
  }
}

TEST(EdgeListBinary, TruncationAnywhereIsRejected) {
  const TempPath path;
  graph::save_edge_list_binary(weighted_list(), path.str());
  std::vector<char> bytes;
  {
    std::ifstream in(path.str(), std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  for (std::size_t len = 0; len < bytes.size(); len += 3) {
    std::ofstream out(path.str(), std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(len));
    out.close();
    EXPECT_THROW((void)graph::load_edge_list_binary(path.str()),
                 std::runtime_error)
        << "prefix of " << len << " bytes loaded cleanly";
  }
}

}  // namespace
}  // namespace ipregel
