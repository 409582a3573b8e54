// The paged store's on-disk contract: the emitted arrays are the CSR's own
// arrays byte for byte, the streaming build is byte-identical to the in-RAM
// build, and every way the bytes can be damaged surfaces as a typed
// PageError naming what was violated — never silently-wrong edges.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "graph/edge_stream.hpp"
#include "graph/generators.hpp"
#include "io/faulty_vfs.hpp"
#include "store/page_error.hpp"
#include "store/page_format.hpp"
#include "store/paged_store.hpp"
#include "store/store_writer.hpp"

namespace ipregel::store {
namespace {

using graph::CsrGraph;
using graph::EdgeList;
using io::FaultyVfs;

constexpr const char* kPath = "/store/graph.pages";

CsrGraph build_csr(const EdgeList& edges, bool in_edges, bool weights) {
  return CsrGraph::build(
      edges, graph::CsrBuildOptions{
                 .addressing = graph::AddressingMode::kOffset,
                 .build_in_edges = in_edges,
                 .keep_weights = weights});
}

/// Reconstructs the prefix-sum array the store's u64 offset section must
/// hold, from the graph's public degree API.
std::vector<std::uint64_t> expected_offsets(const CsrGraph& g, bool in) {
  std::vector<std::uint64_t> offsets(g.num_slots() + 1, 0);
  for (std::size_t s = 0; s < g.num_slots(); ++s) {
    const std::size_t d =
        s < g.first_slot() ? 0 : (in ? g.in_degree(s) : g.out_degree(s));
    offsets[s + 1] = offsets[s] + d;
  }
  return offsets;
}

TEST(StoreFormat, RoundTripMatchesCsrArrays) {
  const EdgeList edges = graph::grid_2d(
      9, 7, {.removal_fraction = 0.15, .max_weight = 9, .seed = 11});
  const CsrGraph g = build_csr(edges, /*in_edges=*/true, /*weights=*/true);

  FaultyVfs vfs;
  write_store(g, kPath, &vfs, {.page_bytes = 128});

  const PagedStore store(vfs, kPath);
  const Superblock& sb = store.superblock();
  EXPECT_EQ(sb.num_vertices, g.num_vertices());
  EXPECT_EQ(sb.num_slots, g.num_slots());
  EXPECT_EQ(sb.first_slot, g.first_slot());
  EXPECT_EQ(sb.num_edges, g.num_edges());
  EXPECT_EQ(sb.id_offset, g.id_offset());
  EXPECT_TRUE(sb.has_weights());
  EXPECT_TRUE(sb.has_in_edges());
  EXPECT_EQ(sb.page_bytes, 128u);

  EXPECT_EQ(store.load_u64_section(Section::kOutOffsets),
            expected_offsets(g, /*in=*/false));
  EXPECT_EQ(store.load_u64_section(Section::kInOffsets),
            expected_offsets(g, /*in=*/true));

  const std::vector<std::uint32_t> out = store.load_u32_section(
      Section::kOutTargets);
  const std::vector<std::uint32_t> weights = store.load_u32_section(
      Section::kWeights);
  const std::vector<std::uint32_t> in = store.load_u32_section(
      Section::kInTargets);
  ASSERT_EQ(out.size(), g.num_edges());
  ASSERT_EQ(weights.size(), g.num_edges());
  ASSERT_EQ(in.size(), g.num_edges());
  std::size_t e = 0;
  for (std::size_t s = g.first_slot(); s < g.num_slots(); ++s) {
    const auto targets = g.out_neighbours(s);
    const auto ws = g.out_weights(s);
    for (std::size_t i = 0; i < targets.size(); ++i, ++e) {
      ASSERT_EQ(out[e], targets[i]) << "edge " << e;
      ASSERT_EQ(weights[e], ws[i]) << "edge " << e;
    }
  }
  e = 0;
  for (std::size_t s = g.first_slot(); s < g.num_slots(); ++s) {
    for (const graph::vid_t src : g.in_neighbours(s)) {
      ASSERT_EQ(in[e], src) << "in-edge " << e;
      ++e;
    }
  }
}

TEST(StoreFormat, OffsetAddressingRoundTrips) {
  // Ids starting at 1000: the store must carry id_offset/first_slot so a
  // paged run addresses exactly the slots the in-RAM run does.
  EdgeList edges = graph::cycle_graph(32);
  graph::shift_ids(edges, 1000);
  const CsrGraph g = build_csr(edges, /*in_edges=*/true, /*weights=*/false);

  FaultyVfs vfs;
  write_store(g, kPath, &vfs, {.page_bytes = 64});
  const PagedStore store(vfs, kPath);
  EXPECT_EQ(store.superblock().id_offset, g.id_offset());
  EXPECT_EQ(store.superblock().first_slot, g.first_slot());
  EXPECT_FALSE(store.superblock().has_weights());
  EXPECT_EQ(store.load_u64_section(Section::kOutOffsets),
            expected_offsets(g, /*in=*/false));
}

TEST(StoreFormat, StreamingBuildIsByteIdenticalToInRamBuild) {
  // The headline contract of the beyond-RAM input path: scattering the
  // edge stream chunk by chunk under a tiny RAM budget produces the SAME
  // FILE as building the full CSR in memory and serialising it.
  graph::RmatStream stream(/*scale=*/8, /*edge_factor=*/4, {.seed = 7});
  const EdgeList edges = graph::rmat(8, 4, {.seed = 7});
  const CsrGraph g = build_csr(edges, /*in_edges=*/true, /*weights=*/false);

  FaultyVfs vfs;
  write_store(g, "/ram.pages", &vfs, {.page_bytes = 256});
  // A budget far below the edge arrays (4 KiB vs 4096 edges x 4 B x 2
  // sections) forces many scatter chunks.
  write_store_streaming(stream, "/streamed.pages", &vfs,
                        {.page_bytes = 256,
                         .build_in_edges = true,
                         .edge_ram_budget_bytes = 4096});
  EXPECT_EQ(vfs.read_all("/ram.pages"), vfs.read_all("/streamed.pages"));
}

TEST(StoreFormat, StreamingBuildHonoursTightestBudget) {
  // Degenerate budget: the chunked scatter must still terminate and stay
  // byte-identical when each chunk holds only a handful of elements.
  const EdgeList edges = graph::rmat(6, 4, {.seed = 3});  // 1024 edges
  graph::EdgeListSource source_a(edges);
  graph::EdgeListSource source_b(edges);
  FaultyVfs vfs;
  write_store_streaming(source_a, "/tight.pages", &vfs,
                        {.page_bytes = 64,
                         .build_in_edges = true,
                         .edge_ram_budget_bytes = 1});
  write_store_streaming(source_b, "/roomy.pages", &vfs,
                        {.page_bytes = 64,
                         .build_in_edges = true,
                         .edge_ram_budget_bytes = 1 << 20});
  EXPECT_EQ(vfs.read_all("/tight.pages"), vfs.read_all("/roomy.pages"));
}

TEST(StoreFormat, RejectsBadPageSizes) {
  EXPECT_THROW(validate_page_bytes(0), std::invalid_argument);
  EXPECT_THROW(validate_page_bytes(32), std::invalid_argument);   // < minimum
  EXPECT_THROW(validate_page_bytes(100), std::invalid_argument);  // % 8 != 0
  EXPECT_NO_THROW(validate_page_bytes(64));
  EXPECT_NO_THROW(validate_page_bytes(1 << 16));
}

TEST(StoreFormat, GarbageFileFailsTypedAsBadSuperblock) {
  FaultyVfs vfs;
  {
    const auto f = vfs.open(kPath, io::Vfs::OpenMode::kTruncate);
    std::vector<std::uint8_t> zeros(kSuperblockBytes, 0);
    f->write(zeros.data(), zeros.size());
    f->close();
  }
  try {
    const PagedStore store(vfs, kPath);
    FAIL() << "opened a garbage superblock";
  } catch (const PageError& e) {
    EXPECT_EQ(e.kind(), PageErrorKind::kBadSuperblock);
  }
}

TEST(StoreFormat, TruncatedFileFailsTypedAsShortRead) {
  FaultyVfs vfs;
  {
    const auto f = vfs.open(kPath, io::Vfs::OpenMode::kTruncate);
    const std::uint8_t byte = 0x42;
    f->write(&byte, 1);
    f->close();
  }
  try {
    const PagedStore store(vfs, kPath);
    FAIL() << "opened a truncated superblock";
  } catch (const PageError& e) {
    EXPECT_EQ(e.kind(), PageErrorKind::kShortRead);
  }
}

/// Writes a valid store, then corrupts one byte at `at` through the live
/// view, returning the vfs ready for reads.
void write_then_flip(FaultyVfs& vfs, std::size_t at) {
  const CsrGraph g =
      build_csr(graph::cycle_graph(64), /*in_edges=*/true, /*weights=*/false);
  write_store(g, kPath, &vfs, {.page_bytes = 64});
  std::vector<std::uint8_t> bytes = vfs.read_all(kPath);
  ASSERT_LT(at, bytes.size());
  bytes[at] ^= 0x01;
  const auto f = vfs.open(kPath, io::Vfs::OpenMode::kTruncate);
  f->write(bytes.data(), bytes.size());
  f->close();
}

TEST(StoreFormat, FlippedSuperblockBitIsTyped) {
  FaultyVfs vfs;
  write_then_flip(vfs, 40);  // inside the field area, before the CRC
  try {
    const PagedStore store(vfs, kPath);
    FAIL() << "accepted a superblock whose CRC cannot match";
  } catch (const PageError& e) {
    EXPECT_EQ(e.kind(), PageErrorKind::kBadSuperblock);
  }
}

TEST(StoreFormat, FlippedPayloadBitFailsTheSeal) {
  FaultyVfs vfs;
  // First byte of page 0's payload slot.
  write_then_flip(vfs, kSuperblockBytes + kPageHeaderBytes);
  const PagedStore store(vfs, kPath);
  std::vector<std::uint8_t> out(store.page_stride());
  try {
    (void)store.read_page(0, out.data());
    FAIL() << "served a payload that fails its seal";
  } catch (const PageError& e) {
    EXPECT_EQ(e.kind(), PageErrorKind::kBadCrc);
    EXPECT_TRUE(e.retryable());
    EXPECT_EQ(e.page(), 0u);
  }
}

TEST(StoreFormat, FlippedPaddingBitFailsTheSeal) {
  // The seal covers the ENTIRE slot including zero padding: rot in the
  // padding of the last (short) page must be detected too.
  FaultyVfs vfs;
  const CsrGraph g =
      build_csr(graph::cycle_graph(10), /*in_edges=*/true, /*weights=*/false);
  write_store(g, kPath, &vfs, {.page_bytes = 64});
  {
    std::vector<std::uint8_t> bytes = vfs.read_all(kPath);
    bytes.back() ^= 0x80;  // last padding byte of the last page
    const auto f = vfs.open(kPath, io::Vfs::OpenMode::kTruncate);
    f->write(bytes.data(), bytes.size());
    f->close();
  }
  const PagedStore store(vfs, kPath);
  std::vector<std::uint8_t> out(store.page_stride());
  const std::uint64_t last = store.num_pages() - 1;
  try {
    (void)store.read_page(last, out.data());
    FAIL() << "padding rot went undetected";
  } catch (const PageError& e) {
    EXPECT_EQ(e.kind(), PageErrorKind::kBadCrc);
  }
}

TEST(StoreFormat, WrongPageMagicIsBadHeader) {
  FaultyVfs vfs;
  write_then_flip(vfs, kSuperblockBytes);  // first byte of page 0's magic
  const PagedStore store(vfs, kPath);
  std::vector<std::uint8_t> out(store.page_stride());
  try {
    (void)store.read_page(0, out.data());
    FAIL() << "accepted a page with a wrong magic";
  } catch (const PageError& e) {
    EXPECT_EQ(e.kind(), PageErrorKind::kBadHeader);
    EXPECT_TRUE(e.retryable());
  }
}

TEST(StoreFormat, OutOfRangePageIsBadHeader) {
  FaultyVfs vfs;
  const CsrGraph g =
      build_csr(graph::cycle_graph(8), /*in_edges=*/true, /*weights=*/false);
  write_store(g, kPath, &vfs, {.page_bytes = 64});
  const PagedStore store(vfs, kPath);
  std::vector<std::uint8_t> out(store.page_stride());
  EXPECT_THROW((void)store.read_page(store.num_pages(), out.data()),
               PageError);
}

TEST(StoreFormat, PublishIsAtomic) {
  // AtomicFile discipline: the tmp name never survives a successful write,
  // and a rewrite over an existing store replaces it wholesale.
  FaultyVfs vfs;
  const CsrGraph small =
      build_csr(graph::cycle_graph(8), /*in_edges=*/true, /*weights=*/false);
  const CsrGraph big =
      build_csr(graph::cycle_graph(200), /*in_edges=*/true,
                /*weights=*/false);
  write_store(small, kPath, &vfs, {.page_bytes = 64});
  write_store(big, kPath, &vfs, {.page_bytes = 64});
  EXPECT_FALSE(vfs.exists(std::string(kPath) + ".tmp"));
  const PagedStore store(vfs, kPath);
  EXPECT_EQ(store.superblock().num_vertices, 200u);
}

}  // namespace
}  // namespace ipregel::store
