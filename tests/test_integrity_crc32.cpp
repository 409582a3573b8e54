// integrity::crc32 is slicing-by-16, and every sealed byte in the
// framework (page seals, ring and wire frames, checkpoints) goes through
// it. These tests hold it to the plain byte-at-a-time table loop, kept
// here as the oracle: the same value on every length, alignment and seed,
// the same chaining, and the same verdict on a store page.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "integrity/crc32.hpp"
#include "io/faulty_vfs.hpp"
#include "store/page_error.hpp"
#include "store/page_format.hpp"
#include "store/paged_store.hpp"
#include "store/store_writer.hpp"

namespace ipregel::integrity {
namespace {

/// The reference: CRC-32 (reflected 0xEDB88320), one byte per step.
std::uint32_t oracle_crc32(const void* data, std::size_t bytes,
                           std::uint32_t seed = 0) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < bytes; ++i) {
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (std::uint8_t& b : out) {
    b = static_cast<std::uint8_t>(rng());
  }
  return out;
}

TEST(Crc32, KnownCheckValue) {
  // The oracle is held to the standard check value too, so the tests
  // below compare against a known-good CRC-32.
  const char* s = "123456789";
  EXPECT_EQ(crc32(s, 9), 0xCBF43926u);
  EXPECT_EQ(oracle_crc32(s, 9), 0xCBF43926u);
  EXPECT_EQ(crc32(s, 0), 0u);
}

TEST(Crc32, MatchesTheByteLoopOnEveryShortLengthAndOffset) {
  // Every length across a few 16-byte steps, at every start offset: the
  // block loop, the tail loop and their hand-over all get exercised.
  const std::vector<std::uint8_t> buf = random_bytes(128, 1);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 80; ++len) {
      EXPECT_EQ(crc32(buf.data() + offset, len),
                oracle_crc32(buf.data() + offset, len))
          << "offset " << offset << " len " << len;
    }
  }
}

TEST(Crc32, MatchesTheByteLoopOnRandomLengthsOffsetsAndSeeds) {
  const std::vector<std::uint8_t> buf = random_bytes(5008, 2);
  std::mt19937_64 rng(3);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (int trial = 0; trial < 400; ++trial) {
      const std::size_t len = rng() % 5001;
      const auto seed = static_cast<std::uint32_t>(rng());
      ASSERT_EQ(crc32(buf.data() + offset, len, seed),
                oracle_crc32(buf.data() + offset, len, seed))
          << "offset " << offset << " len " << len << " seed " << seed;
    }
  }
}

TEST(Crc32, ChainsAtEverySplitPoint) {
  // crc32(b, crc32(a)) == crc32(ab), wherever ab is cut — including cuts
  // that leave either side shorter than one 16-byte block.
  const std::vector<std::uint8_t> buf = random_bytes(300, 4);
  std::mt19937_64 rng(5);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    const std::size_t len = 200 + rng() % 93;
    const std::uint8_t* p = buf.data() + offset;
    const std::uint32_t whole = oracle_crc32(p, len);
    for (std::size_t cut = 0; cut <= len; ++cut) {
      ASSERT_EQ(crc32(p + cut, len - cut, crc32(p, cut)), whole)
          << "offset " << offset << " cut " << cut;
    }
  }
}

TEST(Crc32, MatchesTheByteLoopOnOneMebibyte) {
  const std::vector<std::uint8_t> buf = random_bytes(std::size_t{1} << 20, 6);
  EXPECT_EQ(crc32(buf.data(), buf.size()),
            oracle_crc32(buf.data(), buf.size()));
  EXPECT_EQ(crc32(buf.data() + 3, buf.size() - 3, 0x12345678u),
            oracle_crc32(buf.data() + 3, buf.size() - 3, 0x12345678u));
}

// A store page sealed by the oracle must be accepted by the store reader,
// and one flipped byte anywhere in the sealed slot — in each of the 16
// lanes of a block, and in the tail the byte loop finishes — rejected.

constexpr const char* kPath = "/store/crc.pages";
// 72 = four 16-byte blocks and an 8-byte tail.
constexpr std::size_t kPageBytes = 72;

class OracleSealedPage : public ::testing::Test {
 protected:
  void SetUp() override {
    const graph::CsrGraph g = graph::CsrGraph::build(
        graph::cycle_graph(64),
        graph::CsrBuildOptions{.addressing = graph::AddressingMode::kOffset,
                               .build_in_edges = false,
                               .keep_weights = false});
    store::write_store(g, kPath, &vfs_, {.page_bytes = kPageBytes});
    bytes_ = vfs_.read_all(kPath);
    // Fill page 0's slot with random bytes and reseal it with the oracle.
    const std::vector<std::uint8_t> fill = random_bytes(kPageBytes, 7);
    std::memcpy(slot(), fill.data(), kPageBytes);
    store::PageHeader header;
    std::memcpy(&header, page(), sizeof(header));
    header.payload_bytes = kPageBytes;
    header.crc = oracle_crc32(slot(), kPageBytes, oracle_crc32(&header, 12));
    std::memcpy(page(), &header, sizeof(header));
  }

  std::uint8_t* page() { return bytes_.data() + store::kSuperblockBytes; }
  std::uint8_t* slot() { return page() + store::kPageHeaderBytes; }

  void publish(const std::vector<std::uint8_t>& bytes) {
    const auto f = vfs_.open(kPath, io::Vfs::OpenMode::kTruncate);
    f->write(bytes.data(), bytes.size());
    f->close();
  }

  io::FaultyVfs vfs_;
  std::vector<std::uint8_t> bytes_;
};

TEST_F(OracleSealedPage, IsAcceptedByReadPage) {
  publish(bytes_);
  const store::PagedStore store(vfs_, kPath);
  std::vector<std::uint8_t> buf(store.page_stride());
  const auto payload = store.read_page(0, buf.data());
  ASSERT_EQ(payload.size(), kPageBytes);
  EXPECT_EQ(0, std::memcmp(payload.data(), slot(), kPageBytes));
}

TEST_F(OracleSealedPage, OneFlippedByteInAnyLaneOrTheTailIsBadCrc) {
  std::vector<std::size_t> offsets;
  for (std::size_t lane = 0; lane < 16; ++lane) {
    offsets.push_back(lane);  // first block: every slicing lane
  }
  for (std::size_t tail = 64; tail < kPageBytes; ++tail) {
    offsets.push_back(tail);  // past the last block: the byte loop
  }
  for (const std::size_t at : offsets) {
    std::vector<std::uint8_t> damaged = bytes_;
    damaged[store::kSuperblockBytes + store::kPageHeaderBytes + at] ^= 0x01;
    publish(damaged);
    const store::PagedStore store(vfs_, kPath);
    std::vector<std::uint8_t> buf(store.page_stride());
    try {
      (void)store.read_page(0, buf.data());
      ADD_FAILURE() << "flip at slot byte " << at << " was accepted";
    } catch (const store::PageError& e) {
      EXPECT_EQ(e.kind(), store::PageErrorKind::kBadCrc) << "slot byte " << at;
    }
  }
}

}  // namespace
}  // namespace ipregel::integrity
